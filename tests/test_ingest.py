import hashlib
import math

import numpy as np
import pytest

from dtsim.core import SchemaError
from dtsim.ingest import (
    DatasetSpec,
    IrrationalMix,
    generate,
    inject_irrational,
    load_csv,
    write_csv,
)


class TestGenerate:
    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            DatasetSpec(count=0)

    def test_determinism(self):
        spec = DatasetSpec(count=5000, rng_seed=77)
        a = generate(spec)
        b = generate(spec)
        assert [(t.id, t.amount, t.fee, t.arrival_time) for t in a] == \
               [(t.id, t.amount, t.fee, t.arrival_time) for t in b]

    def test_arrivals_nondecreasing_with_exponential_gaps(self):
        spec = DatasetSpec(count=100_000, rng_seed=5)
        stream = generate(spec)
        times = [t.arrival_time for t in stream]
        assert all(a <= b for a, b in zip(times, times[1:]))
        # mean gap within 2% of 1000/3.5 ms
        mean_gap = times[-1] / (len(times) - 1)
        assert abs(mean_gap - 1000.0 / 3.5) / (1000.0 / 3.5) < 0.02

    def test_fee_is_commission_on_amount(self):
        spec = DatasetSpec(count=200, rng_seed=1, commission_ratio=0.002)
        for t in generate(spec):
            assert t.fee == pytest.approx(t.amount * 0.002, rel=1e-12)

    def test_amount_median_sits_at_mu(self):
        # One run holds few independent drift regimes (tau ~ 50k txs), so the
        # anchor only shows up across seeds: average the per-seed log-medians.
        medians = []
        for seed in range(8):
            spec = DatasetSpec(count=50_000, rng_seed=seed)
            amounts = np.array([t.amount for t in generate(spec)])
            medians.append(math.log(float(np.median(amounts))))
        assert abs(float(np.mean(medians)) - spec.amount_mu) < 0.35

    def test_amount_median_exact_without_drift(self):
        spec = DatasetSpec(count=100_000, rng_seed=9, drift_sigma=0.0)
        amounts = np.array([t.amount for t in generate(spec)])
        assert abs(math.log(float(np.median(amounts))) - spec.amount_mu) < 0.02

    def test_drift_free_variant(self):
        spec = DatasetSpec(count=1000, rng_seed=3, drift_sigma=0.0)
        stream = generate(spec)
        logs = np.log([t.amount for t in stream])
        assert np.std(logs) == pytest.approx(spec.amount_sigma, rel=0.1)


@pytest.mark.parametrize("build, message", [
    (lambda: DatasetSpec(amount_sigma=-1.0), "sigmas must be non-negative"),
    (lambda: DatasetSpec(drift_sigma=-1.0), "sigmas must be non-negative"),
    (lambda: DatasetSpec(drift_tau_s=0.0), "drift_tau_s must be positive"),
    (lambda: IrrationalMix(rational_fraction=1.5, overpaid_fraction=-0.5),
     "fractions must be non-negative"),
    (lambda: DatasetSpec(drift_sigma=math.nan, commission_ratio=-0.5, drift_tau_s=math.inf),
     "drift_sigma must be finite, got nan; drift_tau_s must be finite, got inf; "
     "commission_ratio must be non-negative"),
    (lambda: IrrationalMix(overpaid_fraction=math.nan), "fractions must sum to 1, got nan"),
], ids=["amount-sigma", "drift-sigma", "drift-tau", "negative-fraction", "every-problem",
        "nan-fraction"])
def test_each_bound_raises_its_message(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message


class TestInjectIrrational:
    def test_identity_mix_is_noop(self):
        stream = generate(DatasetSpec(count=500, rng_seed=4))
        out = inject_irrational(stream, IrrationalMix(1.0, 0.0, 0.0), seed=1)
        assert [(t.id, t.fee) for t in out] == [(t.id, t.fee) for t in stream]

    def test_counts_hit_quota_exactly(self):
        n = 100_000
        stream = generate(DatasetSpec(count=n, rng_seed=4))
        mix = IrrationalMix(0.7, 0.15, 0.15)
        out = inject_irrational(stream, mix, seed=2)
        over = sum(1 for a, b in zip(stream, out) if b.fee > a.fee * 1.0 + 1e-12)
        under = sum(1 for a, b in zip(stream, out) if b.fee < a.fee - 1e-12)
        assert abs(over - 15_000) <= 1
        assert abs(under - 15_000) <= 1

    def test_underpaid_group_takes_at_most_what_overpaid_leaves(self):
        # round(0.5 * 7) is 4 for both groups; the underpaid get the other 3.
        stream = generate(DatasetSpec(count=7, rng_seed=4))
        mix = IrrationalMix(0.0, 0.5, 0.5, over_multiplier_low=2.0, over_multiplier_high=3.0,
                            under_multiplier_low=0.2, under_multiplier_high=0.5)
        out = inject_irrational(stream, mix, seed=6)
        ratios = [b.fee / a.fee for a, b in zip(stream, out)]
        assert sum(r >= 2.0 for r in ratios) == 4
        assert sum(r <= 0.5 for r in ratios) == 3

    def test_preserves_ids_amounts_and_order(self):
        stream = generate(DatasetSpec(count=2000, rng_seed=8))
        out = inject_irrational(stream, IrrationalMix(0.7, 0.15, 0.15), seed=3)
        assert [t.id for t in out] == [t.id for t in stream]
        assert [t.amount for t in out] == [t.amount for t in stream]
        assert [t.arrival_time for t in out] == [t.arrival_time for t in stream]

    def test_multipliers_stay_in_ranges(self):
        stream = generate(DatasetSpec(count=20_000, rng_seed=8))
        mix = IrrationalMix(0.7, 0.15, 0.15, over_multiplier_low=2.0, over_multiplier_high=3.0,
                            under_multiplier_low=0.2, under_multiplier_high=0.5)
        out = inject_irrational(stream, mix, seed=3)
        for before, after in zip(stream, out):
            ratio = after.fee / before.fee
            assert (abs(ratio - 1.0) < 1e-12 or 2.0 <= ratio <= 3.0
                    or 0.2 <= ratio <= 0.5)

    def test_zero_fee_clamped_with_warning(self):
        stream = [t for t in generate(DatasetSpec(count=10, rng_seed=1))]
        mix = IrrationalMix(0.0, 0.0, 1.0, under_multiplier_low=0.0, under_multiplier_high=0.0)
        with pytest.warns(UserWarning, match="clamped"):
            out = inject_irrational(stream, mix, seed=5)
        assert all(t.fee > 0 for t in out)

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            IrrationalMix(0.5, 0.1, 0.1)

    @pytest.mark.parametrize("group, ranges", [
        ("under", dict(under_multiplier_low=-1.0)),
        ("over", dict(over_multiplier_low=4.0, over_multiplier_high=2.0)),
        ("under", dict(under_multiplier_high=math.nan)),
    ])
    def test_multiplier_ranges_must_run_from_zero_up(self, group, ranges):
        with pytest.raises(ValueError, match=f"{group}_multiplier_low .* and {group}_multiplier_high "
                                             r".* must satisfy 0 <= low <= high"):
            IrrationalMix(0.8, 0.1, 0.1, **ranges)

    def test_determinism(self):
        stream = generate(DatasetSpec(count=3000, rng_seed=4))
        mix = IrrationalMix(0.7, 0.15, 0.15)
        a = inject_irrational(stream, mix, seed=9)
        b = inject_irrational(stream, mix, seed=9)
        assert [t.fee for t in a] == [t.fee for t in b]


class TestCsvRoundTrip:
    def test_three_row_file(self, tmp_path):
        path = tmp_path / "txs.csv"
        path.write_text("id,amount,arrival_time_ms,fee\n1,100.0,0,0.2\n2,50.0,10,0.1\n3,75.0,30,0.15\n")
        stream = load_csv(path)
        assert len(stream) == 3
        assert stream.fees[1] == 0.1

    def test_fee_column_optional(self, tmp_path):
        path = tmp_path / "txs.csv"
        path.write_text("id,amount,arrival_time_ms\n1,1000.0,0\n")
        stream = load_csv(path, commission_ratio=0.002)
        assert stream.fees[0] == pytest.approx(2.0)

    def test_missing_amount_column(self, tmp_path):
        path = tmp_path / "txs.csv"
        path.write_text("id,arrival_time_ms\n1,0\n")
        with pytest.raises(SchemaError, match="amount"):
            load_csv(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "txs.csv"
        path.write_text("id,amount,arrival_time_ms\n1,100.0,0\n2,oops,5\n")
        with pytest.raises(SchemaError, match=":3:"):
            load_csv(path)

    def test_unordered_arrivals_rejected(self, tmp_path):
        path = tmp_path / "txs.csv"
        path.write_text("id,amount,arrival_time_ms\n1,100.0,50\n2,100.0,10\n")
        with pytest.raises(SchemaError, match="ordered"):
            load_csv(path)

    def test_fee_total_past_the_float_max_rejected(self, tmp_path):
        path = tmp_path / "txs.csv"
        path.write_text("id,amount,arrival_time_ms,fee\n" + "".join(
            f"{i},100.0,{10 * i},{'1e308' if i in (10, 20, 30) else '0.2'}\n"
            for i in range(50)))
        with pytest.raises(SchemaError, match=f"{path}: the fees sum past the largest float"):
            load_csv(path)

    def test_large_round_trip_is_exact(self, tmp_path):
        stream = generate(DatasetSpec(count=50_000, rng_seed=123))
        path = tmp_path / "txs.csv"
        write_csv(stream, path)
        reloaded = load_csv(path)
        assert len(reloaded) == len(stream)
        assert [(t.id, t.amount, t.fee, t.arrival_time) for t in reloaded] == \
               [(t.id, t.amount, t.fee, t.arrival_time) for t in stream]


# sha256 of each column's little-endian int64 or float64 bytes, pinned so that
# any change to how streams are built, perturbed, written or read shows here.
_ORIGINAL = {
    "id": "33236cc6bd19fa6b89e06d441d3fcd8eb37dc8540f6a4f2b627b20af10894a41",
    "arrival_time": "15d1e9487e7731c2e228ce0b519e25c1bd8e0570fb1120e772545838c3f79d73",
    "amount": "504c97da9fa28d27fb5d64e1c22f931c6cafc3330c50db792b69a1db6b017026",
    "fee": "89fb5c1d7234440aa9ebc66cc029e011c26eeb692f5f45ef15c4a323c595dd89",
}
_PERTURBED = dict(_ORIGINAL, fee="0ab3ffe7fe85530bca2077f72343b8dec53409eec0d8ae98b6bcd4416b3f7f37")


def _column_digests(stream):
    cols = (("id", "<i8"), ("arrival_time", "<i8"), ("amount", "<f8"), ("fee", "<f8"))
    return {name: hashlib.sha256(np.fromiter((getattr(t, name) for t in stream), dtype,
                                             len(stream)).tobytes()).hexdigest()
            for name, dtype in cols}


def test_pinned_stream_columns(tmp_path):
    stream = generate(DatasetSpec(count=50_000, rng_seed=2024))
    assert _column_digests(stream) == _ORIGINAL
    perturbed = inject_irrational(stream, IrrationalMix(0.8, 0.1, 0.1), seed=2025)
    assert _column_digests(perturbed) == _PERTURBED
    path = tmp_path / "txs.csv"
    write_csv(perturbed, path)
    assert _column_digests(load_csv(path)) == _PERTURBED
