"""Fee-driven block-space allocation.

Maps a transaction's fee through the CDF of a log-normal distribution to a
whole number of occupied leaf slots, so that expensive transactions consume
more of a block's fixed capacity. Also provides the capacity test and the
per-block incentive sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import erf, erfc  # noqa: F401  erfc is re-exported

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
    z = (math.log(x) - params.scale) / (params.shape * _SQRT2)
    return 0.5 + 0.5 * erf(z)


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
    n = math.ceil(raw - _CEIL_SLACK)
    if n < 1:
        return 1
    if n > params.max_trx_nodes:
        return params.max_trx_nodes
    return n


def fits(occupied: int, tx_nodes: int, capacity: int) -> bool:
    """True when `tx_nodes` more slots still fit under the block capacity."""
    if not 0 <= occupied <= capacity:
        raise ValueError(f"occupied {occupied} outside [0, {capacity}]")
    if tx_nodes < 1:
        raise ValueError("tx_nodes must be >= 1")
    return occupied + tx_nodes <= capacity


def block_incentive(fees) -> float:
    """Total fee income of one block: the compensated sum of its fees."""
    fees = list(fees)
    for f in fees:
        if f < 0:
            raise ValueError("fees must be non-negative")
    return math.fsum(fees)
