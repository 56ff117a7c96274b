"""sanitizer — runtime tripwires for invariants the structure cannot carry.

A built database is immutable, one engine owns one private
:class:`~repro.query.physical.cache.CenterCache` and
:class:`~repro.storage.snapshot.Snapshot` hands out only materialised
values, so most lifetime bugs cannot be written.  What is left is
checked on the actual execution:

* **snapshot view poisoning** — closing a
  :class:`~repro.storage.snapshot.Snapshot` while a zero-copy view of
  its mapping is still alive (only storage-layer internals can hold
  one) raises :class:`SanitizerError` naming the hazard instead of the
  cryptic ``BufferError``;
* **cache byte ledger** — the
  :class:`~repro.query.physical.cache.CenterCache` keeps a byte ledger
  that must match the entries actually resident and stay within its
  budget; :func:`verify_cache_ledger` recomputes it at every
  execution-context construction, so a locking bug that lets two slot
  threads race on the ledger trips at runtime (the runtime twin of the
  ``conc/*`` rules in ``tests/test_source_rules.py``);
* **spill row sizes** — a :class:`~repro.query.algebra.TemporalTable`
  sizes its rows off its layout; every spilled row is re-measured with
  the generic ``record_size``, since a wrong size silently moves every
  page boundary and with it every I/O count.

Everything is opt-in, by one switch: ``REPRO_SANITIZE=1`` in the
environment (read per execution, so the differential suite can flip it
without re-importing anything).  The
hooks live in the query/storage modules themselves and import this
module lazily — this module must stay stdlib-only so the analysis layer
never depends on the query layer.
"""

from __future__ import annotations

import os
from typing import Any

#: environment switch; any value other than these enables sanitize mode
_FALSEY = frozenset({"", "0", "false", "off", "no"})


class SanitizerError(RuntimeError):
    """A runtime tripwire fired: a checked invariant was violated."""


def sanitize_enabled() -> bool:
    """Is sanitize mode requested via ``REPRO_SANITIZE``?

    Read on every call (never cached at import time) so tests and CI
    legs can toggle the environment per execution.
    """
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() not in _FALSEY


def verify_cache_ledger(cache: Any, where: str = "") -> None:
    """Audit a cache's byte ledger against its resident entries.

    Duck-typed on ``check_ledger() -> list[str]`` (the
    :class:`~repro.query.physical.cache.CenterCache` has it), so this
    module never imports the query layer.  Raises
    :class:`SanitizerError` listing every violation.
    """
    violations = cache.check_ledger()
    if violations:
        location = f" in {where}" if where else ""
        raise SanitizerError(
            f"cache byte ledger violated{location}: "
            + "; ".join(violations)
            + " — an unlocked write raced the ledger (see conc/* rules)"
        )


__all__ = [
    "SanitizerError",
    "sanitize_enabled",
    "verify_cache_ledger",
]
