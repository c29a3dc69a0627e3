"""Space-allocation rule tests.

Oracle values were computed with mpmath at 40+ significant digits (erf and
the log-normal CDF); the table below freezes them so the suite stays
hermetic. Regenerate with: mpmath.erf(x) at mp.dps=40.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dtsim import allocation
from dtsim.allocation import AllocationParams, erf, fee_slots, leaf_nodes
from dtsim.core import MIN_POSITIVE_FEE, Priority

# (x, erf(x)) pairs spanning the series branch, the continued-fraction
# branch and the sign reflection.
ERF_ORACLE = [
    (0.0, 0.0),
    (1e-12, 1.128379167095512573896e-12),
    (0.01, 0.01128341555584961691591),
    (0.1, 0.1124629160182848922033),
    (0.25, 0.2763263901682369329851),
    (0.5, 0.5204998778130465376827),
    (0.75, 0.7111556336535151315989),
    (1.0, 0.8427007929497148693412),
    (1.25, 0.9229001282564582301365),
    (1.5, 0.966105146475310727067),
    (1.75, 0.9866716712191824437722),
    (2.0, 0.9953222650189527341621),
    (2.5, 0.9995930479825550410604),
    (3.0, 0.9999779095030014145586),
    (4.0, 0.99999998458274209972),
    (5.0, 0.9999999999984625402056),
    (6.0, 0.9999999999999999784803),
    (-0.3, -0.3286267594591274276389),
    (-1.7, -0.9837904585907745636262),
    (-3.5, -0.9999992569016276585873),
]


@pytest.mark.parametrize("x,expected", ERF_ORACLE)
def test_erf_oracle_table(x, expected):
    got = erf(x)
    if expected == 0.0:
        assert got == 0.0
    else:
        assert abs(got - expected) / abs(expected) < 1e-12


def test_erf_is_odd_and_monotone():
    xs = [i / 7 for i in range(-30, 31)]
    for x in xs:
        assert erf(-x) == -erf(x)
    values = [erf(x) for x in xs]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_erf_is_nondecreasing_across_float_neighbours():
    # `fee_slots` bisects where each slot level starts along the sorted fees,
    # which is exact only if erf never steps down from one float to the next.
    # Probe glibc's piece boundaries (0.84375, 1.25, 1/0.35, 6) on both signs,
    # then random points.
    rng = np.random.default_rng(20)
    centres = [0.84375, 1.25, 1 / 0.35, 6.0, *rng.uniform(-7.0, 7.0, 40)]
    for c in centres + [-c for c in centres]:
        key = np.float64(c).view(np.int64)
        xs = np.sort(np.arange(key - 2000, key + 2000, dtype=np.int64).view(np.float64))
        values = np.array([erf(x) for x in xs.tolist()])
        assert (np.diff(values) >= 0).all(), c


def test_log_is_nondecreasing_across_float_neighbours():
    # So is `math.log`, or the formula would not be monotone in the fee itself.
    # Probe 1 and the points about it, e, the least normal float and a
    # subnormal, then random fees; positive floats order like their bits.
    rng = np.random.default_rng(21)
    centres = [0.5, 1.0, 2.0, math.e, MIN_POSITIVE_FEE, 1e-315,
               *rng.lognormal(6.0, 3.0, 30), *rng.uniform(0.0, 1e4, 10)]
    for c in centres:
        key = int(np.float64(c).view(np.int64))
        xs = np.arange(max(key - 3000, 1), key + 3000, dtype=np.int64).view(np.float64)
        values = np.array([math.log(x) for x in xs.tolist()])
        assert (np.diff(values) >= 0).all(), c


PARAMS_EXP17 = AllocationParams(scale=6.94, shape=1.00, max_trx_nodes=110)


def column_slots(fees, params):
    """`fee_slots` of `fees` through their stable descending order."""
    fees = np.asarray(fees, dtype=np.float64)
    return fee_slots(fees, np.argsort(-fees, kind="stable"), params)


class TestLognormalCdf:
    """The one CDF formula, `allocation._cdf`, of a fee's log."""

    def test_median_is_half(self):
        # erf(0) = 0 exactly at the distribution median, for any shape.
        for sigma in (0.1, 0.5, 1.0, 3.0):
            p = AllocationParams(scale=6.94, shape=sigma, max_trx_nodes=100)
            assert allocation._cdf(6.94, erf, p) == pytest.approx(0.5, abs=1e-13)

    def test_limit_toward_one(self):
        assert allocation._cdf(math.log(1e300), erf, PARAMS_EXP17) == pytest.approx(1.0, abs=1e-15)

    def test_oracle_point(self):
        # mpmath: 0.5 + 0.5*erf((ln 2000 - 6.94)/sqrt(2)) at dps=40
        expected = 0.745662565671609974769
        assert abs(allocation._cdf(math.log(2000.0), erf, PARAMS_EXP17) - expected) / expected < 1e-12


class TestLeafNodes:
    def test_huge_fee_saturates_at_cap(self):
        assert leaf_nodes(1e12, PARAMS_EXP17) == 110

    def test_median_fee_takes_half_the_cap(self):
        p = AllocationParams(scale=6.94, shape=1.00, max_trx_nodes=100)
        assert leaf_nodes(math.exp(6.94), p) == 50

    def test_tiny_fee_floors_at_one(self):
        # F(2) = 2.094e-10 (mpmath oracle); ceil would give 1 node anyway,
        # the floor guards the even smaller fees that underflow to 0.
        assert leaf_nodes(2.0, PARAMS_EXP17) == 1
        assert leaf_nodes(1e-300, PARAMS_EXP17) == 1

    def test_oracle_interior_points(self):
        # ceil(F(fee)*110) computed with mpmath at dps=40
        assert leaf_nodes(1000.0, PARAMS_EXP17) == 54
        assert leaf_nodes(5000.0, PARAMS_EXP17) == 104

    def test_rejects_nonpositive_fee(self):
        for fee in (0.0, -5.0):
            with pytest.raises(ValueError):
                leaf_nodes(fee, PARAMS_EXP17)

    def test_monotone_in_fee_quantified(self):
        # Spec-level property: 1e4 random fee pairs per parameter set.
        rng = np.random.default_rng(1234)
        for params in (PARAMS_EXP17,
                       AllocationParams(scale=4.0, shape=0.3, max_trx_nodes=17),
                       AllocationParams(scale=8.0, shape=2.0, max_trx_nodes=800)):
            fees = rng.lognormal(params.scale, 2.0, size=(10_000, 2))
            for f1, f2 in fees:
                lo, hi = sorted((f1, f2))
                assert leaf_nodes(lo, params) <= leaf_nodes(hi, params)

    def test_bounds_hold_across_regimes(self):
        rng = np.random.default_rng(99)
        for _ in range(2000):
            fee = float(rng.lognormal(5.0, 4.0))
            n = leaf_nodes(fee, PARAMS_EXP17)
            assert 1 <= n <= PARAMS_EXP17.max_trx_nodes

    def test_increasing_scale_never_increases_cdf(self):
        fee = 900.0
        last = 1.0
        for scale in (5.0, 6.0, 6.94, 8.0, 9.5):
            p = AllocationParams(scale=scale, shape=1.0, max_trx_nodes=110)
            value = allocation._cdf(math.log(fee), erf, p)
            assert value <= last + 1e-15
            last = value


class TestLeafSlots:
    """A fee column's slots, `fee_slots` through its descending order, must be
    exactly the scalar rule's counts."""

    def test_matches_leaf_nodes_on_the_400k_stream(self, big_stream):
        # The simulator clamps zero fees to the minimum positive fee.
        fees = [f if f > 0 else MIN_POSITIVE_FEE for f in big_stream.fees.tolist()]
        order = big_stream.ranks(Priority.FEE)[1]
        designated = AllocationParams(scale=6.72, shape=0.91, max_trx_nodes=93)
        for params in (PARAMS_EXP17, designated):
            assert (fee_slots(big_stream.fees, order, params).tolist()
                    == [leaf_nodes(f, params) for f in fees])

    # (fee, scale, shape) where F(fee) * cap is cap/2 up to float noise.
    # exp(6.94) round-trips, so F is exactly 1/2. ln(exp(0.03)) exceeds 0.03
    # by one ulp, which shape 0.01 turns into F = 1/2 + 3 ulps: only the
    # slack keeps cap/2. numpy's vectorized log puts ln(1.5651786956535216)
    # one ulp above math.log, so with that scale and a near-zero shape a
    # mapping through np.log would add a slot.
    @pytest.mark.parametrize("fee, scale, shape", [
        (math.exp(6.94), 6.94, 1.0),
        (math.exp(0.03), 0.03, 0.01),
        (1.5651786956535216, math.log(1.5651786956535216), 1e-9),
    ])
    @pytest.mark.parametrize("cap", [2, 94, 110, 2100])
    def test_exact_ceil_boundary(self, fee, scale, shape, cap):
        p = AllocationParams(scale=scale, shape=shape, max_trx_nodes=cap)
        assert leaf_nodes(fee, p) == cap // 2
        assert column_slots([fee], p).tolist() == [cap // 2]

    def test_floor_and_cap(self):
        fees = [MIN_POSITIVE_FEE, 1e-300, 2.0, 1e12, 1e300]
        assert column_slots(fees, PARAMS_EXP17).tolist() == [1, 1, 1, 110, 110]
        assert [leaf_nodes(f, PARAMS_EXP17) for f in fees] == [1, 1, 1, 110, 110]

    def test_logs_are_math_log_of_each_fee(self, big_stream):
        # With the median at a fee's own `math.log` and a near-zero shape, F is
        # exactly 1/2; a log one ulp higher, as numpy's loop gives for some
        # fees, would add a slot.
        fees = big_stream.fees
        differ = fees[np.log(fees) != [math.log(f) for f in fees.tolist()]]
        for fee in [1.5651786956535216, *differ.tolist()]:
            p = AllocationParams(scale=math.log(fee), shape=1e-9, max_trx_nodes=2100)
            assert column_slots([fee], p).tolist() == [leaf_nodes(fee, p)] == [1050]

    def test_zero_fees_take_the_least_positive_fees_count(self):
        # MIN_POSITIVE_FEE's count exceeds a subnormal fee's here, so the
        # zero fees that end the descending order are no step of its bisection.
        p = AllocationParams(scale=-710.0, shape=10.0, max_trx_nodes=2100)
        fees = [0.0, 5e-324, 1e-310, MIN_POSITIVE_FEE, -0.0, 2.0, 1e3, 0.0]
        want = [leaf_nodes(f or MIN_POSITIVE_FEE, p) for f in fees]
        assert want[0] > want[2] > want[1]
        assert column_slots(fees, p).tolist() == want
        assert column_slots([0.0] * 3, p).tolist() == [leaf_nodes(MIN_POSITIVE_FEE, p)] * 3
        assert column_slots([], p).dtype == np.int64 and len(column_slots([], p)) == 0


MAX_FEE = sys.float_info.max


def fee_rule(fee, params):
    """`leaf_nodes` of one fee, a zero fee as MIN_POSITIVE_FEE."""
    return scalar_slots(math.log(fee or MIN_POSITIVE_FEE), params)


def scalar_slots(log, params):
    """`leaf_nodes`' rule after its `math.log`, one float at a time."""
    cdf = 0.5 + 0.5 * math.erf((log - params.scale) / (params.shape * math.sqrt(2.0)))
    raw = cdf * params.max_trx_nodes
    return min(max(math.ceil(raw - 1e-9), 1), params.max_trx_nodes)


def _float(bits):
    # Positive floats order like their bits.
    return float(np.int64(bits).view(np.float64))


def threshold(s, params):
    """The smallest positive float fee whose `fee_rule` exceeds s (1 <= s < cap)."""
    lo, hi = 0, int(np.float64(MAX_FEE).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fee_rule(_float(mid), params) > s:
            hi = mid
        else:
            lo = mid
    return _float(hi)


def at_threshold(s, params):
    t = threshold(s, params)
    return [t, math.nextafter(t, -math.inf)]


@st.composite
def slot_cases(draw):
    params = AllocationParams(draw(st.floats(-2.0, 12.0)), draw(st.floats(1e-3, 3.0)),
                              draw(st.integers(1, 2100)))
    levels = (draw(st.lists(st.integers(1, params.max_trx_nodes - 1), max_size=4))
              if params.max_trx_nodes > 1 else [])
    near = [x for s in levels for x in at_threshold(s, params)]
    values = (st.sampled_from([0.0, 5e-324, 1e-310, MIN_POSITIVE_FEE, MAX_FEE, *near])
              | st.floats(0.0, MAX_FEE))
    fees = draw(st.lists(values, max_size=40))
    if fees and draw(st.booleans()):
        fees = fees[:1] * len(fees)
    return params, fees


class TestLogSlots:
    """`fee_slots` must give the log-normal rule's count for every float fee."""

    @settings(max_examples=150, deadline=None)
    @example((PARAMS_EXP17, []))
    @example((PARAMS_EXP17, [2000.0]))
    @example((PARAMS_EXP17, [math.exp(6.94)] * 7))
    @example((PARAMS_EXP17, [MIN_POSITIVE_FEE, 1.0, math.exp(1.5), math.exp(6.94), 1e4, 0.0]))
    @example((AllocationParams(12.0, 1e-3, 2100), [MAX_FEE, math.exp(12.0), MIN_POSITIVE_FEE, 0.0]))
    @example((AllocationParams(-710.0, 10.0, 2100), [1e-310, 0.0, 5e-324, 0.0, MIN_POSITIVE_FEE]))
    @given(slot_cases())
    def test_matches_the_scalar_rule(self, case):
        params, fees = case
        got = column_slots(fees, params)
        assert got.dtype == np.int64
        assert got.tolist() == [fee_rule(f, params) for f in fees]
        # Any descending order will do: here tied fees come last position first.
        fees = np.array(fees, dtype=np.float64)
        order = np.lexsort((-np.arange(len(fees)), -fees))
        assert fee_slots(fees, order, params).tolist() == got.tolist()

    @pytest.mark.parametrize("params", [
        PARAMS_EXP17,
        AllocationParams(scale=-2.0, shape=1e-3, max_trx_nodes=2100),
        AllocationParams(scale=4.0, shape=3.0, max_trx_nodes=2),
        AllocationParams(scale=9.5, shape=0.1, max_trx_nodes=800),
        AllocationParams(scale=1.0, shape=0.97, max_trx_nodes=2053),
    ])
    def test_every_threshold_and_the_float_below_it(self, params):
        fees = [x for s in range(1, params.max_trx_nodes) for x in at_threshold(s, params)]
        fees = np.random.default_rng(5).permutation([0.0, MIN_POSITIVE_FEE, MAX_FEE, *fees])
        assert column_slots(fees, params).tolist() == [fee_rule(f, params) for f in fees]

    def test_evaluates_the_formula_only_near_its_steps(self, big_stream, monkeypatch):
        # A count of work, not a time: one formula call per distinct midpoint
        # per bisection round, at most 2**k in round k and one per level,
        # plus the column's two ends. One erf per fee would be 400,000 calls.
        calls = []
        monkeypatch.setattr(allocation, "erf", lambda z: calls.append(z) or math.erf(z))
        slots = fee_slots(big_stream.fees, big_stream.ranks(Priority.FEE)[1], PARAMS_EXP17)
        thresholds = int(slots.max() - slots.min())
        rounds = len(big_stream).bit_length()
        assert 0 < len(calls) <= sum(min(2**k, thresholds) for k in range(rounds)) + 2

    def test_scalar_rule_is_leaf_nodes(self):
        rng = np.random.default_rng(8)
        for fee in [MIN_POSITIVE_FEE, 2.0, math.exp(6.94), *rng.lognormal(6.0, 3.0, 200)]:
            assert leaf_nodes(fee, PARAMS_EXP17) == scalar_slots(math.log(fee), PARAMS_EXP17)

