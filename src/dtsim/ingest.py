"""Transaction stream loading, synthetic generation, fee perturbation; each
returns one `core.Stream`.

Synthetic streams follow the benchmark regime: Poisson arrivals at a
configurable rate and log-normally distributed amounts whose log-level
drifts over time (AR(1) regime waves), so that fee levels move the way
market data does instead of staying i.i.d. flat.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable

import numpy as np

from .core import (CSV_CHUNK_ROWS, MIN_POSITIVE_FEE, DataError, SchemaError, Stream,
                   Transaction, optional_float, read_csv_columns, write_csv_chunks)

DEFAULT_COMMISSION_RATIO = 0.002


@dataclass(frozen=True)
class DatasetSpec:
    """Parameters of a synthetic transaction stream."""

    count: int = 400000
    arrival_rate_tps: float = 3.5
    commission_ratio: float = DEFAULT_COMMISSION_RATIO
    # Median amount chosen so the default commission ratio puts the median fee
    # near e^4, a few log-units below the reference strategy's CDF scale: the
    # bulk of transactions then occupy few leaf slots while the expensive tail
    # engages the space rule, which is the regime the allocation targets.
    amount_mu: float = 4.0 - math.log(DEFAULT_COMMISSION_RATIO)
    amount_sigma: float = 1.0
    drift_sigma: float = 0.6
    drift_tau_s: float = 14400.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.count <= 0:
            raise ValueError("count must be positive")
        if self.arrival_rate_tps <= 0:
            raise ValueError("arrival_rate_tps must be positive")
        if self.amount_sigma < 0 or self.drift_sigma < 0:
            raise ValueError("sigmas must be non-negative")
        if self.drift_tau_s <= 0:
            raise ValueError("drift_tau_s must be positive")


@dataclass(frozen=True)
class IrrationalMix:
    """Population split between rational, overpaying and underpaying users,
    and the fee multiplier range of each perturbed group; the fields are the
    keys of the [irrational] config section."""

    rational_fraction: float = 1.0
    overpaid_fraction: float = 0.0
    underpaid_fraction: float = 0.0
    over_multiplier_low: float = 1.5
    over_multiplier_high: float = 3.0
    under_multiplier_low: float = 0.1
    under_multiplier_high: float = 0.7

    def __post_init__(self):
        total = self.rational_fraction + self.overpaid_fraction + self.underpaid_fraction
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"fractions must sum to 1, got {total}")
        for frac in (self.rational_fraction, self.overpaid_fraction, self.underpaid_fraction):
            if frac < 0:
                raise ValueError("fractions must be non-negative")
        for group, low, high in (("over", self.over_multiplier_low, self.over_multiplier_high),
                                 ("under", self.under_multiplier_low, self.under_multiplier_high)):
            if not 0 <= low <= high:  # also rejects NaN
                raise ValueError(f"{group}_multiplier_low ({low!r}) and {group}_multiplier_high "
                                 f"({high!r}) must satisfy 0 <= low <= high")


def generate(spec: DatasetSpec) -> Stream:
    """Deterministic synthetic stream of `spec.count` transactions.

    Interarrival times are exponential with mean 1/rate. Log-amounts are
    mu + d_i + sigma*eps_i where d is a stationary AR(1) level (std
    drift_sigma, correlation time drift_tau_s at the mean arrival rate), so
    the marginal amount distribution stays log-normal while the fee level
    wanders. Fees are amount * commission_ratio.
    """
    rng = np.random.default_rng(spec.rng_seed)
    n = spec.count

    gaps_ms = rng.exponential(1000.0 / spec.arrival_rate_tps, size=n)
    arrivals = np.floor(np.cumsum(gaps_ms)).astype(np.int64)

    noise = rng.standard_normal(n)
    drift = np.zeros(n)
    if spec.drift_sigma > 0:
        alpha = math.exp(-(1.0 / spec.arrival_rate_tps) / spec.drift_tau_s)
        innov_scale = spec.drift_sigma * math.sqrt(1.0 - alpha * alpha)
        eps = rng.standard_normal(n)
        # d_0 = drift_sigma*eps_0, then d_i = alpha*d_(i-1) + innov_scale*eps_i.
        drift = np.fromiter(accumulate(innov_scale * eps[1:], lambda d, shock: alpha * d + shock,
                                       initial=spec.drift_sigma * eps[0]), np.float64, n)

    amounts = np.exp(spec.amount_mu + drift + spec.amount_sigma * noise)
    return Stream(np.arange(n), arrivals, amounts, amounts * spec.commission_ratio)


def inject_irrational(stream: Iterable[Transaction], mix: IrrationalMix,
                      seed: int) -> Stream:
    """Replace a seeded random slice of fees with over/under-paid ones.

    n_over = round(overpaid_fraction * n) transactions are overpaid. The
    underpaid group takes round(underpaid_fraction * n), but at most the
    n - n_over left, so halves at n = 7 give 4 and 3. Multipliers are drawn
    uniformly from the configured ranges, one per perturbed transaction in
    stream order. Amounts, ids and arrival order are untouched. A fee that
    would underflow to zero is clamped to the smallest positive float, with
    a warning.
    """
    stream = Stream.of(stream)
    n = len(stream)
    rng = np.random.default_rng(seed)

    n_over = round(mix.overpaid_fraction * n)
    n_under = round(mix.underpaid_fraction * n)
    perm = rng.permutation(n)
    chosen = np.sort(perm[:n_over + n_under])
    over = np.isin(chosen, perm[:n_over])
    lows, highs = np.where(over[:, None], (mix.over_multiplier_low, mix.over_multiplier_high),
                           (mix.under_multiplier_low, mix.under_multiplier_high)).T
    fees = stream.fees.copy()
    fees[chosen] *= rng.uniform(lows, highs)
    clamped = chosen[fees[chosen] <= 0.0]
    if clamped.size:
        fees[clamped] = MIN_POSITIVE_FEE
        warnings.warn(f"{clamped.size} perturbed fees hit zero and were clamped "
                      f"to the minimum positive fee", stacklevel=2)
    return Stream(stream.ids, stream.arrivals, stream.amounts, fees)


def load_csv(path, commission_ratio: float = DEFAULT_COMMISSION_RATIO) -> Stream:
    """Load a transaction stream from CSV.

    Expected header: id, amount, arrival_time_ms and optionally fee. A fee
    that is absent or blank is derived as amount * commission_ratio. Every
    kind is numeric, so `read_csv_columns` parses a file that `write_csv`
    wrote in its C pass into arrays; a blank fee, as any cell the pass cannot
    take, leaves the rows to its row loop.
    Raises SchemaError naming the file: `read_csv_columns`' errors (an id or
    arrival time past 64 bits among them), or the `Stream` check's own message
    when the columns fail it (arrival order, repeated ids, finite non-negative
    values, a finite fee sum).
    """
    ids, amounts, arrivals, fees = read_csv_columns(path, {
        "id": int, "amount": float, "arrival_time_ms": int, "fee": optional_float})
    with np.errstate(all="ignore"):  # as Python's float product, which never warns
        fees = np.where(np.ma.getmaskarray(fees), amounts * commission_ratio, np.ma.getdata(fees))
    try:
        return Stream(ids, arrivals, amounts, fees)
    except DataError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def write_csv(stream: Iterable[Transaction], path) -> int:
    """Write a stream's column slices as CSV (id, amount, arrival_time_ms, fee); returns rows."""
    s = Stream.of(stream)
    return write_csv_chunks(path, ("id", "amount", "arrival_time_ms", "fee"), (
        tuple(col[at:at + CSV_CHUNK_ROWS] for col in (s.ids, s.amounts, s.arrivals, s.fees))
        for at in range(0, len(s), CSV_CHUNK_ROWS)))
