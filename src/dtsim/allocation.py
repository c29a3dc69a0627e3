"""Fee-driven block-space allocation.

Maps a transaction's fee through the CDF of a log-normal distribution to a
whole number of occupied leaf slots, so that expensive transactions consume
more of a block's fixed capacity: a whole fee column in one pass
(`log_slots` of its `fee_logs` and their ascending order, both of which a
stream caches) or one fee at a time (`leaf_nodes`). The slot count is a step
function of the fee's log with at most max_trx_nodes levels, so a column is
mapped by finding the log at each step once, counting the sorted logs below
each step with one `searchsorted` per level, and scattering the levels back
through the order. Also provides the per-block incentive sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import erf
from statistics import NormalDist

import numpy as np

_SQRT2 = math.sqrt(2.0)
_CEIL_SLACK = 1e-9
# Half-width of the first bracket around a threshold's inverse-CDF estimate:
# the estimate and the float formula's step differ by under 2e-12 in units of
# shape (most by under 1e-13), plus a few ulps of rounding in the log itself.
# A step outside the bracket costs more bisection rounds, never a wrong count.
_BRACKET_SHAPES = 1e-13
_BRACKET_ULPS = 1e-15
_MAGNITUDE = np.int64(0x7FFF_FFFF_FFFF_FFFF)


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
    """`math.log` of every fee (all > 0), one at a time, as a float64 array. Not
    `np.log`: its loop does not always round like `math.log` (70 of the seed-2024
    400k fees differ in the last bit), and one ulp of ln(fee) moves the slots of
    a fee whose F * max_trx_nodes sits on a ceil boundary."""
    fees = np.asarray(fees, dtype=np.float64)
    if not (fees > 0).all():
        raise ValueError("fee_logs requires every fee > 0")
    return np.fromiter(map(math.log, fees), np.float64, len(fees))


def log_slots(logs, order, params: AllocationParams) -> np.ndarray:
    """`leaf_nodes` of each fee whose `fee_logs` are `logs`, as one int64 array;
    `order` holds the positions of `logs` in ascending order (`np.argsort`).

    The float formula (`_slots`) is evaluated only near its steps, never once
    per log. Between the slot counts lo_s and hi_s of the column's smallest
    and largest log, the threshold of each level s is the smallest float log
    whose count exceeds s; a log's count is lo_s plus the number of thresholds
    at or below it. So the sorted logs take each count in one run, which
    starts where its threshold falls among them, and `order` scatters the
    runs back to the positions. Each threshold starts from the inverse CDF at
    (s + slack) / max_trx_nodes and is bisected, all of them together, on
    order-preserving int64 keys of the floats within the column's [min, max],
    so in at most 64 rounds of one formula call each. That is exact because
    the formula never decreases as the log grows: each IEEE step is monotone,
    and `math.erf` is nondecreasing across float neighbours (pinned in
    test_allocation). Logs must not be NaN.
    """
    logs = np.asarray(logs, dtype=np.float64)
    if len(logs) == 0:
        return np.zeros(0, dtype=np.int64)
    ends = logs[order[[0, -1]]]
    lo_s, hi_s = _slots(ends, params).tolist()
    s = np.arange(lo_s, hi_s)
    guess = np.fromiter(map(NormalDist(params.scale, params.shape).inv_cdf,
                            (s + _CEIL_SLACK) / params.max_trx_nodes), np.float64, len(s))
    width = _BRACKET_SHAPES * params.shape + _BRACKET_ULPS * np.abs(guess)
    kmin, kmax = _keys(ends)
    lo, hi = (np.clip(_keys(guess + d), kmin, kmax) for d in (-width, width))
    # The count at kmin is lo_s <= s and at kmax hi_s > s. A probe on the
    # wrong side of its threshold widens that side to the column's end.
    lo_up, hi_up = _slots(_floats(np.concatenate([lo, hi])), params).reshape(2, -1) > s
    lo, hi = (np.where(lo_up, kmin, np.where(hi_up, lo, hi)),
              np.where(lo_up, lo, np.where(hi_up, hi, kmax)))
    while True:
        mid = (lo >> 1) + (hi >> 1) + (lo & hi & 1)  # hi - lo can overflow
        open_ = np.flatnonzero(mid > lo)
        if len(open_) == 0:
            break
        mid = mid[open_]
        up = _slots(_floats(mid), params) > s[open_]
        hi[open_] = np.where(up, mid, hi[open_])
        lo[open_] = np.where(up, lo[open_], mid)
    starts = np.searchsorted(logs[order], _floats(hi), side="left")
    runs = np.diff(starts, prepend=0, append=len(logs))
    slots = np.empty(len(logs), dtype=np.int64)
    slots[order] = np.repeat(np.arange(lo_s, hi_s + 1), runs)
    return slots


def _slots(logs, params: AllocationParams) -> np.ndarray:
    # The float formula of `leaf_nodes`, one `math.erf` per log.
    cdf = _cdf(logs, lambda z: np.fromiter(map(erf, z), np.float64, len(z)), params)
    raw = cdf * params.max_trx_nodes
    return np.clip(np.ceil(raw - _CEIL_SLACK), 1, params.max_trx_nodes).astype(np.int64)


def _keys(floats: np.ndarray) -> np.ndarray:
    # int64 keys in the order of the floats: the bits, negatives mirrored.
    bits = floats.view(np.int64)
    return bits ^ ((bits >> 63) & _MAGNITUDE)


def _floats(keys: np.ndarray) -> np.ndarray:
    return (keys ^ ((keys >> 63) & _MAGNITUDE)).view(np.float64)


def block_incentive(fees) -> float:
    """Total fee income of one block: the compensated sum of its fees."""
    fees = list(fees)
    for f in fees:
        if not f >= 0:  # NaN fails too
            raise ValueError("fees must be non-negative")
    return math.fsum(fees)
