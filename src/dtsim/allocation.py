"""Fee-driven block-space allocation.

Maps a transaction's fee through the CDF of a log-normal distribution to a
whole number of occupied leaf slots, so that expensive transactions consume
more of a block's fixed capacity: one fee at a time (`leaf_nodes`) or a whole
fee column in one pass (`leaf_slots`, or `log_slots` of a stream's cached
`fee_logs`). Also provides the per-block incentive sum.
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


def lognormal_cdf(x: float, params: AllocationParams) -> float:
    """F(x) = 1/2 + 1/2*erf((ln x - scale) / (shape*sqrt(2))) for x > 0."""
    if x <= 0:
        raise ValueError(f"lognormal_cdf requires x > 0, got {x}")
    return _cdf(math.log(x), erf, params)


def _cdf(log_x, erf_fn, params: AllocationParams):
    # The one CDF formula, on a float or elementwise on a float array.
    return 0.5 + 0.5 * erf_fn((log_x - params.scale) / (params.shape * _SQRT2))


def leaf_nodes(fee: float, params: AllocationParams) -> int:
    """Leaf slots occupied by a transaction paying `fee`.

    Rounds F(fee) * max_trx_nodes up to a whole slot with a floor of one, so
    every transaction occupies at least one slot and none exceeds the cap.
    A 1e-9 slack absorbs float noise when the product lands on an exact
    integer (e.g. F = 0.5 with an even cap).
    """
    if fee <= 0:
        raise ValueError(f"leaf_nodes requires fee > 0, got {fee}")
    raw = lognormal_cdf(fee, params) * params.max_trx_nodes
    return min(max(math.ceil(raw - _CEIL_SLACK), 1), params.max_trx_nodes)


def leaf_slots(fees, params: AllocationParams) -> np.ndarray:
    """`leaf_nodes` of every fee in `fees`, as one int64 array."""
    return log_slots(fee_logs(fees), params)


def fee_logs(fees) -> np.ndarray:
    """`math.log` of every fee (all > 0), one at a time, as a float64 array. Not
    `np.log`: its loop does not always round like `math.log` (70 of the seed-2024
    400k fees differ in the last bit), and one ulp of ln(fee) moves the slots of
    a fee whose F * max_trx_nodes sits on a ceil boundary."""
    fees = np.asarray(fees, dtype=np.float64)
    if not (fees > 0).all():
        raise ValueError("fee_logs requires every fee > 0")
    return np.fromiter(map(math.log, fees), np.float64, len(fees))


def log_slots(logs, params: AllocationParams) -> np.ndarray:
    """`leaf_slots` of the fees whose `fee_logs` are `logs`, by the same float operations."""
    cdf = _cdf(logs, lambda z: np.fromiter(map(erf, z), np.float64, len(z)), params)
    raw = cdf * params.max_trx_nodes
    return np.clip(np.ceil(raw - _CEIL_SLACK), 1, params.max_trx_nodes).astype(np.int64)


def block_incentive(fees) -> float:
    """Total fee income of one block: the compensated sum of its fees."""
    fees = list(fees)
    for f in fees:
        if f < 0:
            raise ValueError("fees must be non-negative")
    return math.fsum(fees)
