"""Baselines: naive ground truth, TwigStackD (TSD), IGMJ (INT-DP)."""

from .igmj import IGMJEngine, IGMJMetrics
from .naive import NaiveMatcher
from .twigstackd import TSDMetrics, TwigStackD

__all__ = [
    "IGMJEngine",
    "IGMJMetrics",
    "NaiveMatcher",
    "TSDMetrics",
    "TwigStackD",
]
