"""Reachability labelings: 2-hop graph codes, interval codes, SSPI."""

from .interval import (
    Interval,
    MultiIntervalCode,
    TreeIntervalCode,
    build_multi_interval,
    build_tree_intervals,
    merge_intervals,
    point_in_intervals,
)
from .sspi import SSPI
from .twohop import TwoHopLabeling, build_two_hop, greedy_two_hop

__all__ = [
    "Interval",
    "MultiIntervalCode",
    "TreeIntervalCode",
    "build_multi_interval",
    "build_tree_intervals",
    "merge_intervals",
    "point_in_intervals",
    "SSPI",
    "TwoHopLabeling",
    "build_two_hop",
    "greedy_two_hop",
]
