"""Transaction stream loading, synthetic generation, fee perturbation.

Synthetic streams follow the benchmark regime: Poisson arrivals at a
configurable rate and log-normally distributed amounts whose log-level
drifts over time (AR(1) regime waves), so that fee levels move the way
market data does instead of staying i.i.d. flat.
"""

from __future__ import annotations

import csv
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Iterable, List

import numpy as np

from .core import Transaction, write_csv_rows

MIN_POSITIVE_FEE = sys.float_info.min

DEFAULT_COMMISSION_RATIO = 0.002
# Median amount chosen so the default commission ratio puts the median fee
# near e^4, a few log-units below the reference strategy's CDF scale: the
# bulk of transactions then occupy few leaf slots while the expensive tail
# engages the space rule, which is the regime the allocation targets.
DEFAULT_AMOUNT_MU = 4.0 - math.log(DEFAULT_COMMISSION_RATIO)
DEFAULT_AMOUNT_SIGMA = 1.0
DEFAULT_DRIFT_SIGMA = 0.6
DEFAULT_DRIFT_TAU_S = 14400.0


@dataclass(frozen=True)
class DatasetSpec:
    """Parameters of a synthetic transaction stream."""

    count: int = 400000
    arrival_rate_tps: float = 3.5
    commission_ratio: float = DEFAULT_COMMISSION_RATIO
    amount_mu: float = DEFAULT_AMOUNT_MU
    amount_sigma: float = DEFAULT_AMOUNT_SIGMA
    drift_sigma: float = DEFAULT_DRIFT_SIGMA
    drift_tau_s: float = DEFAULT_DRIFT_TAU_S
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
    """Population split between rational, overpaying and underpaying users."""

    rational_fraction: float = 1.0
    overpaid_fraction: float = 0.0
    underpaid_fraction: float = 0.0
    over_multiplier: tuple = (1.5, 3.0)
    under_multiplier: tuple = (0.1, 0.7)

    def __post_init__(self):
        total = self.rational_fraction + self.overpaid_fraction + self.underpaid_fraction
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"fractions must sum to 1, got {total}")
        for frac in (self.rational_fraction, self.overpaid_fraction, self.underpaid_fraction):
            if frac < 0:
                raise ValueError("fractions must be non-negative")


def generate(spec: DatasetSpec) -> List[Transaction]:
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
    if spec.drift_sigma > 0:
        alpha = math.exp(-(1.0 / spec.arrival_rate_tps) / spec.drift_tau_s)
        innov_scale = spec.drift_sigma * math.sqrt(1.0 - alpha * alpha)
        eps = rng.standard_normal(n)
        drift = np.empty(n)
        level = spec.drift_sigma * eps[0]
        drift[0] = level
        for i in range(1, n):
            level = alpha * level + innov_scale * eps[i]
            drift[i] = level
    else:
        drift = np.zeros(n)

    amounts = np.exp(spec.amount_mu + drift + spec.amount_sigma * noise)
    fees = amounts * spec.commission_ratio

    return [
        Transaction(id=i, amount=float(amounts[i]), fee=float(fees[i]),
                    arrival_time=int(arrivals[i]))
        for i in range(n)
    ]


def inject_irrational(stream: Iterable[Transaction], mix: IrrationalMix,
                      seed: int) -> List[Transaction]:
    """Replace a seeded random slice of fees with over/under-paid ones.

    Exactly round(fraction * n) transactions fall in each irrational group;
    multipliers are drawn uniformly from the configured ranges. Amounts,
    ids and arrival order are untouched. A fee that would underflow to zero
    is clamped to the smallest positive float, with a warning.
    """
    txs = list(stream)
    n = len(txs)
    rng = np.random.default_rng(seed)

    n_over = round(mix.overpaid_fraction * n)
    n_under = round(mix.underpaid_fraction * n)
    perm = rng.permutation(n)
    over_ids = set(perm[:n_over].tolist())
    under_ids = set(perm[n_over:n_over + n_under].tolist())

    out = []
    clamped = 0
    for idx, tx in enumerate(txs):
        if idx in over_ids:
            mult = rng.uniform(*mix.over_multiplier)
        elif idx in under_ids:
            mult = rng.uniform(*mix.under_multiplier)
        else:
            out.append(tx)
            continue
        fee = tx.fee * mult
        if fee <= 0.0:
            fee = MIN_POSITIVE_FEE
            clamped += 1
        out.append(Transaction(id=tx.id, amount=tx.amount, fee=fee,
                               arrival_time=tx.arrival_time, size_bytes=tx.size_bytes))
    if clamped:
        warnings.warn(f"{clamped} perturbed fees hit zero and were clamped to "
                      f"the minimum positive fee", stacklevel=2)
    return out


class SchemaError(ValueError):
    """A CSV row or header does not match the transaction schema."""


def load_csv(path, commission_ratio: float = DEFAULT_COMMISSION_RATIO) -> List[Transaction]:
    """Load a transaction stream from CSV.

    Expected header: id, amount, arrival_time_ms and optionally fee. When
    the fee column is absent it is derived as amount * commission_ratio.
    Raises SchemaError with the offending line number on malformed rows and
    on arrival times that go backwards.
    """
    txs: List[Transaction] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        cols = {name.strip(): i for i, name in enumerate(header)}
        for required in ("id", "amount", "arrival_time_ms"):
            if required not in cols:
                raise SchemaError(f"{path}: missing required column {required!r}")
        fee_col = cols.get("fee")

        prev_arrival = -1
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                tx_id = int(row[cols["id"]])
                amount = float(row[cols["amount"]])
                arrival = int(row[cols["arrival_time_ms"]])
                if fee_col is not None and row[fee_col].strip() != "":
                    fee = float(row[fee_col])
                else:
                    fee = amount * commission_ratio
                tx = Transaction(id=tx_id, amount=amount, fee=fee, arrival_time=arrival)
            except (ValueError, IndexError) as exc:
                raise SchemaError(f"{path}:{lineno}: malformed row: {exc}") from None
            if arrival < prev_arrival:
                raise SchemaError(
                    f"{path}:{lineno}: arrival_time_ms {arrival} precedes previous "
                    f"{prev_arrival}; stream must be ordered by arrival")
            prev_arrival = arrival
            txs.append(tx)
    return txs


def write_csv(stream: Iterable[Transaction], path) -> int:
    """Write a stream as CSV (id, amount, arrival_time_ms, fee); returns rows."""
    return write_csv_rows(path, ("id", "amount", "arrival_time_ms", "fee"),
                          ((tx.id, tx.amount, tx.arrival_time, tx.fee) for tx in stream))
