"""Volatility of block incentives.

Volatility is the sample standard deviation (n-1 denominator) of the
logarithmic returns of consecutive incentives. A rolling variant evaluates
the same statistic over trailing windows of returns. The historical
reference range used for classification ships as fixed constants; its
source data is not redistributable.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from .core import DataError

# Yearly historical volatility of average daily block incentives, as
# published; the bolded 2019 minimum and 2012 maximum bound the reference
# range. (The published table lists these nine years.)
HISTORICAL_VOLATILITY = {
    2012: 0.238111,
    2013: 0.200857,
    2014: 0.218010,
    2015: 0.180948,
    2016: 0.073051,
    2017: 0.063965,
    2018: 0.045616,
    2019: 0.037647,
    2020: 0.059485,
}

BENCHMARK_MIN = min(HISTORICAL_VOLATILITY.values())
BENCHMARK_MAX = max(HISTORICAL_VOLATILITY.values())

# The fewest incentives `series_volatility` accepts: two returns.
MIN_INCENTIVES = 3


def log_returns(incentives: Sequence[float]) -> tuple:
    """R_n = ln(I_n / I_{n-1}) over consecutive incentives.

    Requires two values or more; one not finite and > 0 is a DataError naming its block, its index.
    """
    values = list(incentives)
    if len(values) < 2:
        raise ValueError("need at least two incentives to form returns")
    for i, v in enumerate(values):
        if not 0 < v < math.inf:
            raise DataError(f"block {i} has incentive {v}; it must be finite and > 0")
    return tuple(math.log(values[i] / values[i - 1]) for i in range(1, len(values)))


def volatility(returns) -> float:
    """Sample standard deviation of the returns about their mean."""
    values = list(returns)
    n = len(values)
    if n < 2:
        raise ValueError("volatility needs at least two returns")
    avg = math.fsum(values) / n
    ss = math.fsum((r - avg) ** 2 for r in values)
    return math.sqrt(ss / (n - 1))


def series_volatility(incentives: Sequence[float]) -> float:
    """Volatility of an incentive series: log returns, then sample std."""
    return volatility(log_returns(incentives))


def rolling_volatility(incentives: Sequence[float], window: int) -> List[float]:
    """Volatility over each trailing window of `window` consecutive returns.

    An incentive series of length L yields L-1 returns and therefore
    L-window values; `window` equal to the full return count degenerates to
    the single overall volatility.
    """
    if window < 2:
        raise ValueError("window must be >= 2")
    rets = log_returns(incentives)
    if window > len(rets):
        raise ValueError(
            f"window {window} exceeds the {len(rets)} available returns")
    return [
        volatility(rets[i: i + window])
        for i in range(len(rets) - window + 1)
    ]


def benchmark_check(vol: float) -> str:
    """Classify a volatility against the historical range: below/within/above."""
    if not vol >= 0:  # also NaN
        raise ValueError(f"volatility must be a number >= 0, got {vol}")
    if vol < BENCHMARK_MIN:
        return "below"
    if vol > BENCHMARK_MAX:
        return "above"
    return "within"
