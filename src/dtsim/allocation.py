"""Fee-driven block-space allocation.

Maps a transaction's fee through the CDF of a log-normal distribution to a
whole number of occupied leaf slots, so that expensive transactions consume
more of a block's fixed capacity: a whole fee column in one pass
(`log_slots` of its `fee_logs` and their ascending order, both of which a
stream caches) or one fee at a time (`leaf_nodes`). The slot count is a step
function of the fee's log with at most max_trx_nodes levels, so a column is
mapped by bisecting, for all levels at once, where each level starts among
the sorted logs, and scattering the levels back through the order. Also
provides the per-block incentive sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import erf

import numpy as np

_SQRT2 = math.sqrt(2.0)
_CEIL_SLACK = 1e-9


@dataclass(frozen=True)
class AllocationParams:
    """Log-normal CDF parameters plus the per-transaction slot cap.

    `scale` is the mean of the fee's natural logarithm, `shape` its standard
    deviation; `max_trx_nodes` caps how many leaf slots one transaction may
    occupy no matter how large its fee.
    """

    scale: float
    shape: float
    max_trx_nodes: int

    def __post_init__(self):
        if self.shape <= 0:
            raise ValueError("shape must be positive")
        if self.max_trx_nodes < 1:
            raise ValueError("max_trx_nodes must be >= 1")


def _cdf(log_x, erf_fn, params: AllocationParams):
    # The one CDF formula, on a float or elementwise on a float array.
    return 0.5 + 0.5 * erf_fn((log_x - params.scale) / (params.shape * _SQRT2))


def leaf_nodes(fee: float, params: AllocationParams) -> int:
    """Leaf slots occupied by a transaction paying `fee`.

    Rounds F(fee) * max_trx_nodes up to a whole slot with a floor of one, so
    every transaction occupies at least one slot and none exceeds the cap.
    A 1e-9 slack absorbs float noise when the product lands on an exact
    integer (e.g. F = 0.5 with an even cap). `run` maps columns with
    `log_slots`; perfbench/run.py calls this per fee until ROADMAP item 12.
    """
    if fee <= 0:
        raise ValueError(f"leaf_nodes requires fee > 0, got {fee}")
    raw = _cdf(math.log(fee), erf, params) * params.max_trx_nodes
    return min(max(math.ceil(raw - _CEIL_SLACK), 1), params.max_trx_nodes)


def fee_logs(fees) -> np.ndarray:
    """`math.log` of every fee (all > 0), one at a time, as a float64 array. A
    `memoryview` yields the fees as Python floats, with no `np.float64` boxing
    and no list of them all. Not `np.log`: its loop does not always round like
    `math.log` (70 of the seed-2024 400k fees differ in the last bit), and one ulp
    of ln(fee) moves the slots of a fee whose F * max_trx_nodes sits on a ceil
    boundary."""
    fees = np.asarray(fees, dtype=np.float64)
    if not (fees > 0).all():
        raise ValueError("fee_logs requires every fee > 0")
    return np.fromiter(map(math.log, memoryview(fees)), np.float64, len(fees))


def log_slots(logs, order, params: AllocationParams) -> np.ndarray:
    """`leaf_nodes` of each fee whose `fee_logs` are `logs`, as one int64 array;
    `order` holds the positions of `logs` in ascending order (`np.argsort`).

    The float formula (`_slots`) is evaluated only near its steps, never once
    per log. The formula never decreases as the log grows (each IEEE step is
    monotone, and `math.erf` is nondecreasing across float neighbours, pinned
    in test_allocation), so along the sorted logs `logs[order]` the counts
    rise from lo_s at the first to hi_s at the last, and each level s in
    [lo_s, hi_s) ends at one sorted position. All those positions are
    bisected together, keeping lo < hi with count at lo <= s < count at hi.
    Levels share midpoints until their searches part, so midpoints never fall
    as s rises, and a round calls the formula once on the distinct ones'
    logs. After len(logs).bit_length() rounds hi is where level s + 1
    starts, and `order` scatters the runs back. Logs must not be NaN.
    """
    logs = np.asarray(logs, dtype=np.float64)
    n = len(logs)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    lo_s, hi_s = _slots(logs[order[[0, -1]]], params).tolist()
    s = np.arange(lo_s, hi_s)
    lo, hi = np.zeros_like(s), np.full_like(s, n - 1)
    for _ in range(n.bit_length()):
        mid = (lo + hi) // 2
        first = np.diff(mid, prepend=-1) > 0
        up = _slots(logs[order[mid[first]]], params)[np.cumsum(first) - 1] > s
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    slots = np.empty(n, dtype=np.int64)
    slots[order] = np.repeat(np.arange(lo_s, hi_s + 1), np.diff(hi, prepend=0, append=n))
    return slots


def _slots(logs, params: AllocationParams) -> np.ndarray:
    # The float formula of `leaf_nodes`, one `math.erf` per log.
    cdf = _cdf(logs, lambda z: np.fromiter(map(erf, z), np.float64, len(z)), params)
    raw = cdf * params.max_trx_nodes
    return np.clip(np.ceil(raw - _CEIL_SLACK), 1, params.max_trx_nodes).astype(np.int64)


def block_incentive(fees) -> float:
    """Total fee income of one block: the compensated sum of its fees."""
    fees = list(fees)
    for f in fees:
        if not f >= 0:  # NaN fails too
            raise ValueError("fees must be non-negative")
    return math.fsum(fees)
