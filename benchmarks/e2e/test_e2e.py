"""Self-tests of the benchmark (not part of the repo's tier-1 suite).

    PYTHONPATH=src python3 -m pytest benchmarks/e2e/test_e2e.py -q

(``PYTHONPATH`` only because pytest also loads ``benchmarks/conftest.py``.)
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from collections import defaultdict

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import pool as pins  # noqa: E402
import run  # noqa: E402
import wire  # noqa: E402

RUN = [sys.executable, os.path.join(HERE, "run.py")]
SPEC = run.declared()


@pytest.fixture(scope="module")
def smoke() -> dict:
    """One ``run.py --smoke`` for the whole module: its document."""
    done = subprocess.run(RUN + ["--smoke", "--seed", "3"], stdout=subprocess.PIPE)
    assert done.returncode == 0, done.stdout.decode()[-2000:]
    with open(os.path.join(run.RESULTS_DIR, "BENCH_e2e_smoke.json")) as handle:
        return json.load(handle)


def test_smoke_carries_exactly_the_declared_names(smoke):
    assert sorted(smoke["workloads"]) == sorted(w["name"] for w in SPEC["workloads"])
    for name, workload in smoke["workloads"].items():
        for section, key in (("end_to_end", "traced_end_to_end"),
                             ("per_layer", "per_layer")):
            declared = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {k: v["unit"] for k, v in workload[key].items()}
            assert got == declared, (name, section)
        assert workload["failed"] == 0
        assert not set(workload["bypassed"]) - set(workload["per_layer"])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_last_line_is_the_contract_object(trace, section):
    done = subprocess.run(
        RUN + ["--workload", "adhoc_limit", "--seed", "5", "--seconds", "1",
               "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, text=True,
    )
    assert done.returncode == 0
    last = json.loads(done.stdout.splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0 < last["attempted"]
    assert {k: sorted(v) for k, v in last["metrics"].items()} == {
        m["name"]: ["unit", "value"] for m in SPEC[section]
    }
    assert all(
        last["metrics"][m["name"]]["unit"] == m["unit"] for m in SPEC[section]
    )


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_span_self_times_add_up_to_the_op_wall(smoke, workload):
    with open(os.path.join(run.RESULTS_DIR, f"trace_{workload}.jsonl")) as handle:
        spans = [json.loads(line) for line in handle]
    covered = defaultdict(float)  # parent id -> seconds its children cover
    for span in spans:
        if span["parent"] >= 0:
            covered[span["parent"]] += span["end"] - span["start"]
    own = {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in spans}
    by_op = defaultdict(float)
    for span in spans:
        by_op[span["op_id"]] += own[span["id"]]
    ops = [s for s in spans if s["name"] == "op"]
    assert ops
    for op in ops:
        wall = op["end"] - op["start"]
        assert by_op[op["op_id"]] == pytest.approx(wall, rel=0.05)
    unattributed = sum(own[op["id"]] for op in ops)
    assert unattributed <= 0.05 * sum(op["end"] - op["start"] for op in ops)
    names = {s["name"] for s in spans}
    assert {"labeling.build_two_hop", "db.build", "warmup"} <= names


def test_a_wrong_pinned_count_fails_the_run(monkeypatch, capsys):
    pool, digest = pins.load_pool()
    pool["adhoc"][0]["rows"]["XL"][0] += 1
    monkeypatch.setattr(pins, "load_pool", lambda: (pool, digest))
    status = run.main(
        ["--workload", "adhoc_limit", "--seed", "1", "--seconds", "0.5", "--smoke"]
    )
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert status != 0
    assert last["correct"] is False and last["failed"] > 0


def test_a_regenerated_graph_that_differs_from_its_pin_aborts(monkeypatch):
    pool, digest = pins.load_pool()
    pool["graphs"]["XL"]["edges"] += 1
    monkeypatch.setattr(pins, "load_pool", lambda: (pool, digest))
    with pytest.raises(SystemExit, match="differs from the pin"):
        run.run_workload("adhoc_limit", 1, 0.5, False, True)


def test_compare_flags_a_slowdown_and_refuses_a_mismatch(smoke, tmp_path, capsys):
    base = copy.deepcopy(smoke)
    for workload in base["workloads"].values():  # the shape of a full run
        workload["end_to_end"] = workload.pop("traced_end_to_end")
        workload["noisy"] = False
        for metric in workload["end_to_end"].values():  # a quiet box
            metric["repeats"] = [metric["value"]] * 3
    slower = copy.deepcopy(base)
    p50 = slower["workloads"]["fig4_live"]["end_to_end"]["latency_p50_ms"]
    p50["value"] *= 1.3
    p50["repeats"] = [v * 1.3 for v in p50["repeats"]]
    other_box = copy.deepcopy(base)
    other_box["cpu_count"] = base["cpu_count"] + 2
    paths = {}
    for name, document in (("a", base), ("b", slower), ("c", other_box)):
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w") as handle:
            json.dump(document, handle)
    assert compare.main([paths["a"], paths["a"]]) == 0
    capsys.readouterr()
    assert compare.main([paths["a"], paths["b"]]) == 1
    flagged = [
        line for line in capsys.readouterr().out.splitlines() if "regressed" in line
    ]
    assert len(flagged) == 1 and "fig4_live" in flagged[0] and "+30.0%" in flagged[0]
    assert compare.main([paths["a"], paths["c"]]) == 2
    assert "cpu_count differs" in capsys.readouterr().err


@pytest.mark.parametrize("every_step", [False, True])
def test_a_stalled_open_loop_step_is_dropped_unless_too_few_hold(monkeypatch, every_step):
    real, steps = wire.open_loop, []

    def stalled(conns, requests, offsets, keep_rows=()):
        replies, outstanding = real(conns, requests, offsets, keep_rows)
        steps.append(len(requests))
        if every_step or len(steps) == 1:
            for reply in replies:  # every request left a second late
                reply.sent += 1.0
        return replies, outstanding

    monkeypatch.setattr(wire, "open_loop", stalled)
    record = run.run_workload("serve_open", 1, 0.5, False, True)
    warm_up = 2 * record["samples_per_repeat"] // len(run.OPEN_LIMITS)
    if every_step:  # the program does not keep the schedule
        assert record["disturbed_steps"] == len(steps)
        assert record["failed"] == sum(steps) and not record["correct"]
        assert record["attempted"] == warm_up + sum(steps)
    else:  # the box stalled once
        assert record["disturbed_steps"] == 1 and record["repeats"] == len(steps) - 1
        assert record["failed"] == 0 and record["correct"]
        assert record["attempted"] == warm_up + sum(steps[1:])


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("crash", [False, True])
def test_server_and_sockets_are_gone_after_a_run(monkeypatch, crash):
    servers = []
    spawn = wire.Server.__init__

    def recording_spawn(self, path):
        spawn(self, path)
        servers.append(self.proc)

    monkeypatch.setattr(wire.Server, "__init__", recording_spawn)
    if crash:
        def broken(self):
            raise RuntimeError("planted")
        monkeypatch.setattr(run.ServeClosed, "repeat", broken)
    pins.import_repro()  # its one-off imports are not this run's descriptors
    before = open_fds()
    if crash:
        with pytest.raises(RuntimeError, match="planted"):
            run.run_workload("serve_closed", 1, 0.5, False, True)
    else:
        assert run.run_workload("serve_closed", 1, 0.5, False, True)["correct"]
    assert servers
    for proc in servers:
        assert proc.returncode is not None  # terminated and reaped
        with pytest.raises(ProcessLookupError):
            os.kill(proc.pid, 0)
    assert open_fds() == before
    assert not os.path.exists(os.path.join(pins.HERE, ".work", str(os.getpid())))
