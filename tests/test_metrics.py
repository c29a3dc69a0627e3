import math

import pytest
from hypothesis import given, strategies as st

from dtsim.core import DataError
from dtsim.metrics import (
    BENCHMARK_MAX,
    BENCHMARK_MIN,
    HISTORICAL_VOLATILITY,
    MIN_INCENTIVES,
    benchmark_check,
    log_returns,
    rolling_volatility,
    series_volatility,
    volatility,
)


class TestLogReturns:
    def test_constant_series(self):
        assert log_returns([5.0, 5.0, 5.0]) == (0.0, 0.0)

    def test_e_spike(self):
        rets = log_returns([1.0, math.e, 1.0])
        assert rets[0] == pytest.approx(1.0, abs=1e-15)
        assert rets[1] == pytest.approx(-1.0, abs=1e-15)

    def test_length_contract(self):
        assert len(log_returns(range(1, 12))) == 10

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_returns([1.0, 0.0, 2.0])
        with pytest.raises(ValueError):
            log_returns([3.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_a_nonfinite_incentive_is_a_data_error_naming_its_block(self, bad):
        series = [1.0, bad, 2.0, 3.0]
        message = f"block 1 has incentive {bad}; it must be finite and > 0"
        with pytest.raises(DataError, match=message):
            series_volatility(series)
        with pytest.raises(DataError, match=message):
            rolling_volatility(series, window=2)


class TestVolatility:
    def test_plus_minus_one(self):
        assert volatility([1.0, -1.0]) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_constant_returns(self):
        assert volatility([0.3, 0.3, 0.3, 0.3]) == 0.0

    def test_needs_two(self):
        with pytest.raises(ValueError):
            volatility([0.1])

    def test_nonnegative_and_zero_iff_equal(self):
        assert volatility([2.0, 2.0, 2.0]) == 0.0
        assert volatility([2.0, 2.0001, 2.0]) > 0.0


class TestRollingVolatility:
    def test_constant_incentives(self):
        assert rolling_volatility([7.0] * 50, window=10) == [0.0] * 40

    def test_full_window_degenerates_to_single_value(self):
        series = [1.0, 2.0, 1.5, 3.0, 2.5]
        out = rolling_volatility(series, window=4)
        assert len(out) == 1
        assert out[0] == pytest.approx(series_volatility(series), abs=1e-15)

    def test_window_count_for_year_of_values(self):
        series = [100.0 + math.sin(i / 9.0) for i in range(365)]
        out = rolling_volatility(series, window=30)
        assert len(out) == 335

    def test_window_too_large(self):
        with pytest.raises(ValueError):
            rolling_volatility([1.0, 2.0, 3.0], window=3)
        with pytest.raises(ValueError):
            rolling_volatility([1.0, 2.0, 3.0], window=1)

    def test_periodic_series_gives_periodic_output(self):
        period = 12
        series = [10.0 + math.sin(2 * math.pi * (i % period) / period) for i in range(120)]
        out = rolling_volatility(series, window=period)
        for i in range(len(out) - period):
            assert out[i] == pytest.approx(out[i + period], abs=1e-12)


class TestBenchmark:
    def test_table_constants(self):
        assert BENCHMARK_MIN == 0.037647
        assert BENCHMARK_MAX == 0.238111
        assert HISTORICAL_VOLATILITY[2019] == BENCHMARK_MIN
        assert HISTORICAL_VOLATILITY[2012] == BENCHMARK_MAX
        assert len(HISTORICAL_VOLATILITY) == 9

    @pytest.mark.parametrize("vol,expected", [
        (0.1158, "within"),   # best published experiment
        (0.2317, "within"),   # overpaid-mix experiment, still under the max
        (0.5186, "above"),    # worst published experiment
        (0.01, "below"),
        (0.037647, "within"),
        (0.238111, "within"),
    ])
    def test_classification(self, vol, expected):
        assert benchmark_check(vol) == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            benchmark_check(-0.1)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="nan"):
            benchmark_check(math.nan)


def test_min_incentives_is_the_shortest_series_with_a_volatility():
    assert series_volatility([2.0, 3.0, 5.0][:MIN_INCENTIVES]) > 0
    with pytest.raises(ValueError):
        series_volatility([2.0, 3.0, 5.0][:MIN_INCENTIVES - 1])


@given(st.lists(st.floats(0.001, 1e6), min_size=3, max_size=40),
       st.floats(0.001, 1e6))
def test_scale_invariance(incentives, scale):
    base = series_volatility(incentives)
    scaled = series_volatility([v * scale for v in incentives])
    assert scaled == pytest.approx(base, abs=1e-9, rel=1e-9)


def test_rolling_windows_match_arbitrary_precision_oracle():
    # 365-value series, window 30: all 335 values against mpmath at dps 50.
    import mpmath as mp

    mp.mp.dps = 50
    series = [100.0 + 30.0 * math.sin(i / 7.0) + (i % 11) for i in range(365)]
    got = rolling_volatility(series, window=30)
    assert len(got) == 335
    rets = [mp.log(mp.mpf(repr(b)) / mp.mpf(repr(a))) for a, b in zip(series, series[1:])]
    for i, value in enumerate(got):
        window = rets[i: i + 30]
        avg = mp.fsum(window) / 30
        want = mp.sqrt(mp.fsum((r - avg) ** 2 for r in window) / 29)
        assert abs(value - float(want)) <= 1e-12 * max(1.0, float(want))
