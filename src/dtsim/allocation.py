"""Fee-driven block-space allocation.

Maps a transaction's fee through the CDF of a log-normal distribution to a
whole number of occupied leaf slots, so that expensive transactions consume
more of a block's fixed capacity: a whole fee column in one pass
(`fee_slots`, through the descending fee order that a stream sorts for fee
priority) or one fee at a time (`leaf_nodes`). The slot count is a step
function of the fee with at most max_trx_nodes levels, so a column is mapped
by bisecting, for all levels at once, where each level starts in that order,
taking the log of only the fees the bisection reads, and scattering the
levels back through the order.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from math import erf

import numpy as np

from .core import MIN_POSITIVE_FEE

_SQRT2 = math.sqrt(2.0)
_CEIL_SLACK = 1e-9


@dataclass(frozen=True)
class AllocationParams:
    """Log-normal CDF parameters plus the per-transaction slot cap.

    `scale` is the mean of the fee's natural logarithm, `shape` its standard
    deviation; `max_trx_nodes` caps how many leaf slots one transaction may
    occupy no matter how large its fee. A `DtsStrategy` checks all three.
    """

    scale: float
    shape: float
    max_trx_nodes: int


def _cdf(log_x, erf_fn, params: AllocationParams):
    # The one CDF formula, on a float or elementwise on a float array.
    return 0.5 + 0.5 * erf_fn((log_x - params.scale) / (params.shape * _SQRT2))


def leaf_nodes(fee: float, params: AllocationParams) -> int:
    """Leaf slots occupied by a transaction paying `fee`.

    Rounds F(fee) * max_trx_nodes up to a whole slot with a floor of one, so
    every transaction occupies at least one slot and none exceeds the cap.
    A 1e-9 slack absorbs float noise when the product lands on an exact
    integer (e.g. F = 0.5 with an even cap). `run` maps columns with
    `fee_slots`; perfbench/run.py calls this per fee until ROADMAP item 12.
    """
    if fee <= 0:
        raise ValueError(f"leaf_nodes requires fee > 0, got {fee}")
    raw = _cdf(math.log(fee), erf, params) * params.max_trx_nodes
    return min(max(math.ceil(raw - _CEIL_SLACK), 1), params.max_trx_nodes)


def fee_slots(fees, order, params: AllocationParams) -> np.ndarray:
    """`leaf_nodes` of each fee, a zero fee as MIN_POSITIVE_FEE, as one int64
    array; `order` holds the positions of `fees` (all >= 0) in descending fee
    order, as `Stream.ranks(Priority.FEE)` keeps it.

    The float formula (`_slots`) is evaluated only near its steps, never once
    per fee. It never decreases as the fee grows (each IEEE step is monotone,
    and `math.log` and `math.erf` are nondecreasing across float neighbours,
    pinned in test_allocation), so along the positive fees in `order` the
    counts fall from hi_s at the first to lo_s at the last, and each level s
    in [lo_s, hi_s) ends at one position. All those positions are bisected
    together, keeping lo < hi with count at lo > s >= count at hi. Levels
    share midpoints until their searches part, so midpoints never fall as s
    falls, and a round calls the formula once on the distinct ones' fees.
    After n.bit_length() rounds hi is where the counts of s and below start,
    and `order` scatters the runs back. The zero fees end the order and take
    MIN_POSITIVE_FEE's count outside the bisection, as that count may exceed
    a subnormal fee's. Fees must not be NaN.
    """
    fees = np.asarray(fees, dtype=np.float64)
    n = bisect_left(order, 0.0, key=lambda i: -fees[i])  # positive fees, then zeros
    slots = np.empty(len(fees), dtype=np.int64)
    if n < len(fees):
        slots[order[n:]] = _slots(np.array([MIN_POSITIVE_FEE]), params)
    if n == 0:
        return slots
    hi_s, lo_s = _slots(fees[order[[0, n - 1]]], params).tolist()
    s = np.arange(hi_s - 1, lo_s - 1, -1)
    lo, hi = np.zeros_like(s), np.full_like(s, n - 1)
    for _ in range(n.bit_length()):
        mid = (lo + hi) // 2
        first = np.diff(mid, prepend=-1) > 0
        up = _slots(fees[order[mid[first]]], params)[np.cumsum(first) - 1] > s
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    slots[order[:n]] = np.repeat(np.arange(hi_s, lo_s - 1, -1), np.diff(hi, prepend=0, append=n))
    return slots


def _slots(fees, params: AllocationParams) -> np.ndarray:
    # The float formula of `leaf_nodes`, one `math.log` and one `math.erf` per
    # fee (all > 0). Not `np.log`: its loop does not always round like
    # `math.log`, and one ulp of ln(fee) moves the slots of a fee whose
    # F * max_trx_nodes sits on a ceil boundary.
    logs = np.fromiter(map(math.log, fees.tolist()), np.float64, len(fees))
    cdf = _cdf(logs, lambda z: np.fromiter(map(erf, z), np.float64, len(z)), params)
    raw = cdf * params.max_trx_nodes
    return np.clip(np.ceil(raw - _CEIL_SLACK), 1, params.max_trx_nodes).astype(np.int64)
