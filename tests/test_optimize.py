import math

import numpy as np
import pytest

from dtsim import allocation
from dtsim.core import SimulationConfig, Stream, category
from dtsim.ingest import DatasetSpec, generate
from dtsim.optimize import (
    DEFAULT_BOUNDS,
    OptimizerConfig,
    SearchSpace,
    constriction_params,
    evaluate,
    experiment_grid,
    grid_rows,
    run_optimizer,
)
from dtsim.optimizers import cma_es, differential_evolution, gbo, genetic_algorithm, pso
from dtsim.simulator import DataError


class TestConstriction:
    def test_published_parameterization(self):
        w, c1, c2 = constriction_params(1.0, 2.05, 2.05)
        assert w == pytest.approx(0.73, abs=0.005)
        assert c1 == pytest.approx(1.50, abs=0.005)
        assert c2 == pytest.approx(1.50, abs=0.005)

    def test_linear_in_k(self):
        assert constriction_params(0.0, 2.05, 2.05) == (0.0, 0.0, 0.0)
        w_half, _, _ = constriction_params(0.5, 2.05, 2.05)
        w_full, _, _ = constriction_params(1.0, 2.05, 2.05)
        assert w_half == pytest.approx(w_full / 2)

    def test_phi_below_four_rejected(self):
        with pytest.raises(ValueError):
            constriction_params(1.0, 1.95, 1.95)
        with pytest.raises(ValueError):
            constriction_params(1.5, 2.05, 2.05)


class TestSearchSpace:
    def test_dimensions_follow_category(self):
        assert SearchSpace(category=category(2)).names == ["a1", "a6", "a7", "a8"]
        assert SearchSpace(category=category(3)).names == ["a1", "a4", "a5", "a6", "a7", "a8"]

    def test_bounds_contain_published_optima(self):
        published = [
            # (category, a1, a4, a5, a6, a7, a8) from the results grid
            (2, 25469, None, None, 110, 6.94, 1.00),
            (1, 75039, 1.32, 1, 110, 6.92, 1.00),
            (4, 73714, None, None, 79, 6.79, 0.99),
            (3, 71907, 1.47, 17, 56, 6.19, 1.00),
            (4, 74972, None, None, 759, 9.70, 0.47),
            (3, 1141, 1.05, 3, 34, 7.26, 0.26),
        ]
        for cat_id, a1, a4, a5, a6, a7, a8 in published:
            space = SearchSpace(category=category(cat_id))
            values = {"a1": a1, "a4": a4, "a5": a5, "a6": a6, "a7": a7, "a8": a8}
            for name in space.names:
                lo, hi = space.bounds[name]
                assert lo <= values[name] <= hi, (cat_id, name, values[name])

    def test_decode_rounds_integer_attributes(self):
        space = SearchSpace(category=category(3))
        attrs = space.decode([1000.4, 1.23, 16.7, 109.5, 6.5, 0.9])
        assert attrs["a1"] == 1000 and isinstance(attrs["a1"], int)
        assert attrs["a5"] == 17 and attrs["a6"] == 110
        assert attrs["a4"] == pytest.approx(1.23)


def sphere_objective(attrs):
    # Center of the box is the optimum; pure continuous surrogate.
    space = DEFAULT_BOUNDS
    total = 0.0
    for name, value in attrs.items():
        lo, hi = space[name]
        mid = (lo + hi) / 2
        total += ((value - mid) / (hi - lo)) ** 2
    return total


class TestRunOptimizer:
    def test_budget_of_one_population_returns_initial_best(self):
        space = SearchSpace(category=category(2))
        config = OptimizerConfig(algorithm="pso", n_pop=20, max_gen=100, n_eval=20, rng_seed=1)
        result = run_optimizer("pso", space, sphere_objective, config)
        assert result.evaluations == 20
        assert len(result.trace) == 1  # only the initial generation

    def test_budget_compliance_all_algorithms(self):
        space = SearchSpace(category=category(2))
        for algo in ("pso", "de", "ga", "cmaes", "gbo"):
            config = OptimizerConfig(algorithm=algo, n_pop=10, max_gen=5, rng_seed=2)
            result = run_optimizer(algo, space, sphere_objective, config)
            assert result.evaluations <= 50, algo

    def test_ga_depends_only_on_n_pop_and_the_budget(self):
        # Both searches spend 60 evaluations in populations of 6, so the GA
        # step decays over the same 10 generations whatever max_gen says.
        space = SearchSpace(category=category(1))
        short = OptimizerConfig(algorithm="ga", n_pop=6, max_gen=5, n_eval=60, rng_seed=3)
        full = OptimizerConfig(algorithm="ga", n_pop=6, max_gen=10, rng_seed=3)
        r1 = run_optimizer("ga", space, sphere_objective, short)
        r2 = run_optimizer("ga", space, sphere_objective, full)
        assert (r1.trace, r1.best_attrs) == (r2.trace, r2.best_attrs)
        assert r1.evaluations == r2.evaluations == 60

    def test_seed_determinism(self):
        space = SearchSpace(category=category(4))
        config = OptimizerConfig(algorithm="de", n_pop=8, max_gen=6, rng_seed=33)
        r1 = run_optimizer("de", space, sphere_objective, config)
        r2 = run_optimizer("de", space, sphere_objective, config)
        assert r1.best_attrs == r2.best_attrs
        assert r1.trace == r2.trace

    def test_trace_monotone_nonincreasing(self):
        space = SearchSpace(category=category(2))
        for algo in ("pso", "de", "ga", "cmaes", "gbo"):
            config = OptimizerConfig(algorithm=algo, n_pop=10, max_gen=8, rng_seed=5)
            result = run_optimizer(algo, space, sphere_objective, config)
            assert all(b <= a + 1e-15 for a, b in zip(result.trace, result.trace[1:])), algo

    def test_integer_dims_always_integral_at_objective(self):
        space = SearchSpace(category=category(3))
        seen = []

        def recording(attrs):
            seen.append(attrs)
            return sphere_objective(attrs)

        config = OptimizerConfig(algorithm="gbo", n_pop=8, max_gen=4, rng_seed=7)
        run_optimizer("gbo", space, recording, config)
        assert seen
        for attrs in seen:
            for name in ("a1", "a5", "a6"):
                assert isinstance(attrs[name], int)


@pytest.fixture(scope="module")
def stream():
    return generate(DatasetSpec(count=8_000, rng_seed=21))


class TestEvaluate:
    CFG = SimulationConfig(rng_seed=0)

    def test_identical_candidates_identical_volatility(self, stream):
        cat = category(2)
        vec = [2000, 110, 6.94, 1.0]
        v1 = evaluate(vec, cat, stream, self.CFG)
        v2 = evaluate(vec, cat, stream, self.CFG)
        assert v1 == v2 and math.isfinite(v1)

    def test_invalid_candidate_gets_penalty(self, stream):
        cat = category(2)
        assert evaluate([2000, 110, 6.94, 0.0], cat, stream, self.CFG) == math.inf

    def test_oversize_nodes_penalized_not_raised(self, stream):
        cat = category(2)
        cfg = SimulationConfig(leaf_capacity=100)
        assert evaluate([2000, 110, 6.94, 1.0], cat, stream, cfg) == math.inf

    def test_evaluations_log_the_stream_once(self, stream, monkeypatch):
        vectors = ([2000, 110, 6.94, 1.0], [900, 60, 3.5, 0.8])
        before = [evaluate(vec, category(2), stream, self.CFG) for vec in vectors]
        fresh = Stream(stream.ids, stream.arrivals, stream.amounts, stream.fees)
        logged = []

        def fee_logs(fees):
            logged.append(len(fees))
            return allocation.fee_logs(fees)

        monkeypatch.setattr("dtsim.core.fee_logs", fee_logs)
        assert [evaluate(vec, category(2), fresh, self.CFG) for vec in vectors] == before
        assert logged == [len(stream)] and "fee_logs" in fresh.__dict__

    def test_data_error_propagates_instead_of_scoring_inf(self):
        reversed_stream = generate(DatasetSpec(count=3_000, rng_seed=1))[::-1]
        with pytest.raises(DataError, match="ordered by arrival_time"):
            evaluate([2000, 110, 6.94, 1.0], category(2), reversed_stream, SimulationConfig())


class TestExperimentGrid:
    def test_empty_dataset_rejected_before_running(self):
        with pytest.raises(ValueError, match="non-empty"):
            experiment_grid([], SimulationConfig())

    def test_grid_has_twenty_rows_and_published_layout(self):
        # Tiny surrogate budget keeps this a structure test.
        stream = generate(DatasetSpec(count=3_000, rng_seed=1))
        cfg = SimulationConfig()
        base = OptimizerConfig(n_pop=4, max_gen=2, rng_seed=0)
        runs = experiment_grid(stream, cfg, base_config=base)
        rows = grid_rows(runs)
        assert len(rows) == 20
        assert [r["experiment"] for r in rows] == list(range(1, 21))
        # Per-algorithm category order: (time,F), (time,T), (fee,F), (fee,T)
        assert [r["a2"] for r in rows[:4]] == ["Time-based", "Time-based", "Fee-based", "Fee-based"]
        assert [r["a3"] for r in rows[:4]] == [False, True, False, True]
        row17 = rows[16]
        assert row17["algorithm"] == "gbo" and row17["a2"] == "Time-based" and row17["a3"] is False
        row20 = rows[19]
        assert row20["algorithm"] == "gbo" and row20["a2"] == "Fee-based" and row20["a3"] is True
        for row in rows:
            if row["a3"] is False:
                assert row["a4"] == "-" and row["a5"] == "-"

    def test_grid_deterministic_per_seed(self):
        stream = generate(DatasetSpec(count=2_000, rng_seed=1))
        base = OptimizerConfig(n_pop=3, max_gen=2, rng_seed=9)
        r1 = experiment_grid(stream, SimulationConfig(), base_config=base, algorithms=("pso",))
        r2 = experiment_grid(stream, SimulationConfig(), base_config=base, algorithms=("pso",))
        assert [r.best_volatility for r in r1] == [r.best_volatility for r in r2]


def test_reference_vector_reproduces_golden_volatility():
    stream = generate(DatasetSpec(count=30_000, rng_seed=42))
    vol = evaluate([25469, 110, 6.94, 1.00], category(2), stream,
                   SimulationConfig(rng_seed=42))
    assert vol == pytest.approx(0.07730597612164632, abs=1e-12)


def test_search_never_worse_than_initial_population(stream):
    cat = category(2)
    space = SearchSpace(category=cat)
    cfg = SimulationConfig(rng_seed=0)
    calls = []

    def objective(attrs):
        v = evaluate([attrs[n] for n in space.names], cat, stream, cfg)
        calls.append(v)
        return v

    config = OptimizerConfig(algorithm="de", n_pop=6, max_gen=4, rng_seed=12)
    result = run_optimizer("de", space, objective, config)
    initial_best = min(calls[:6])
    assert result.best_volatility <= initial_best


def test_grid_pool_has_at_most_one_worker_per_cell(monkeypatch):
    import concurrent.futures

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    stream = generate(DatasetSpec(count=1_500, rng_seed=1))
    runs = experiment_grid(stream, SimulationConfig(), base_config=OptimizerConfig(n_pop=2, max_gen=1),
                           algorithms=("pso",), jobs=50)
    assert sizes == [4]
    assert len(runs) == 4


def test_grid_results_independent_of_job_count():
    stream = generate(DatasetSpec(count=1_500, rng_seed=1))
    base = OptimizerConfig(n_pop=3, max_gen=2, rng_seed=4)
    serial = experiment_grid(stream, SimulationConfig(), base_config=base,
                             algorithms=("pso", "de"), jobs=1)
    parallel = experiment_grid(stream, SimulationConfig(), base_config=base,
                               algorithms=("pso", "de"), jobs=2)
    assert [r.best_volatility for r in serial] == [r.best_volatility for r in parallel]
    assert [r.best_attrs for r in serial] == [r.best_attrs for r in parallel]


def _direct(algo, space, objective, config):
    """The optimizer behind `algo` driven with `objective(space.decode(x))`,
    with no memo in between."""
    def f(x):
        return objective(space.decode(x))

    lb, ub, budget = space.lb, space.ub, config.budget
    rng = np.random.default_rng(config.rng_seed)
    n_pop = config.n_pop
    if algo == "pso":
        return pso(f, lb, ub, budget, rng, n_pop=n_pop)
    if algo == "de":
        return differential_evolution(f, lb, ub, budget, rng, n_pop=n_pop)
    if algo == "ga":
        return genetic_algorithm(f, lb, ub, budget, rng, n_pop=n_pop)
    if algo == "cmaes":
        return cma_es(f, lb, ub, budget, rng)
    return gbo(f, lb, ub, budget, rng, n_pop=n_pop)


@pytest.mark.parametrize("algo", ["pso", "de", "ga", "cmaes", "gbo"])
def test_memo_changes_no_result_and_skips_repeated_candidates(algo):
    # Sixteen integer points, and a8 pushed to its bound: every algorithm
    # repeats candidates within its 60 evaluations.
    bounds = {**DEFAULT_BOUNDS, "a1": (1, 4), "a6": (1, 4), "a7": (5.0, 5.0), "a8": (0.5, 1.0)}
    space = SearchSpace(category=category(2), bounds=bounds)
    config = OptimizerConfig(algorithm=algo, n_pop=6, max_gen=10, rng_seed=3)
    calls = []

    def counting(attrs):
        calls.append(tuple(attrs.values()))
        return (attrs["a1"] - 2.6) ** 2 + abs(attrs["a6"] - 3.2) + attrs["a7"] * attrs["a8"]

    memoized = run_optimizer(algo, space, counting, config)
    distinct = len(set(calls))
    assert len(calls) == distinct == memoized.simulations
    calls.clear()
    direct = _direct(algo, space, counting, config)
    assert (memoized.best_attrs, memoized.best_volatility, memoized.trace,
            memoized.evaluations) == (space.decode(direct.best_x), direct.best_f,
                                      direct.trace, direct.evaluations)
    assert len(set(calls)) == distinct < len(calls) == direct.evaluations


# Twenty small grid cells (5 algorithms x 4 categories, n_pop 6, max_gen 5,
# rng seed 3) on a 4k seed-5 stream with leaf capacity 300: best volatility
# and trace as float.hex, best attributes exactly.
GRID_PINS = {
    ("pso", 2): ("0x1.1d826dc466b1dp-4",
        "0x1.a0ad742abdeadp-4 0x1.215fd7b46bbfap-4 0x1.215fd7b46bbfap-4 0x1.215fd7b46bbfap-4 0x1.1d826dc466b1dp-4",
        {"a1": 18149, "a6": 197, "a7": 9.335812717891663, "a8": 0.47088332110757636}),
    ("pso", 1): ("0x1.d750c78067f28p-5",
        "0x1.325d04f7ed739p-3 0x1.0c0f2ced8ac75p-4 0x1.07755fada7ffbp-4 0x1.07755fada7ffbp-4 0x1.d750c78067f28p-5",
        {"a1": 80000, "a4": 1.9906093665940923, "a5": 180, "a6": 10, "a7": 7.2638227436935265, "a8": 0.3952902064341729}),
    ("pso", 4): ("0x1.2353b5ad806b8p-4",
        "0x1.53a9bfcf7ed8fp-3 0x1.5065ffcc1a608p-4 0x1.5065ffcc1a608p-4 0x1.5065ffcc1a608p-4 0x1.2353b5ad806b8p-4",
        {"a1": 6655, "a6": 62, "a7": 7.920259122846158, "a8": 0.1}),
    ("pso", 3): ("0x1.33de1558b6644p-6",
        "0x1.b43d39b24aa30p-6 0x1.701a4d985b8d8p-6 0x1.33de1558b6644p-6 0x1.33de1558b6644p-6 0x1.33de1558b6644p-6",
        {"a1": 56057, "a4": 1.1050022526560046, "a5": 134, "a6": 275, "a7": 4.0, "a8": 0.7561679536444861}),
    ("de", 2): ("0x1.215fd7b46bbfap-4",
        "0x1.9ffc2318521c0p-2 0x1.9ffc2318521c0p-2 0x1.215fd7b46bbfap-4 0x1.215fd7b46bbfap-4 0x1.215fd7b46bbfap-4",
        {"a1": 21019, "a6": 243, "a7": 9.441648509096362, "a8": 0.226902714160221}),
    ("de", 1): ("0x1.4ccb864b96f31p-5",
        "inf 0x1.eefaee2a239cbp-5 0x1.b6da09122d6fcp-5 0x1.ac47ccb619453p-5 0x1.4ccb864b96f31p-5",
        {"a1": 1783, "a4": 1.0, "a5": 0, "a6": 10, "a7": 6.806658819075501, "a8": 1.0}),
    ("de", 4): ("0x1.f7c4a66bedd57p-5",
        "0x1.4082b6081c5b5p-3 0x1.57d6af0a3d4a2p-4 0x1.f7c4a66bedd57p-5 0x1.f7c4a66bedd57p-5 0x1.f7c4a66bedd57p-5",
        {"a1": 47996, "a6": 288, "a7": 6.363874398742313, "a8": 0.8844597676637405}),
    ("de", 3): ("0x1.8df22186c6fc8p-6",
        "0x1.abfdcbf1be68fp-6 0x1.abfdcbf1be68fp-6 0x1.abfdcbf1be68fp-6 0x1.8df22186c6fc8p-6 0x1.8df22186c6fc8p-6",
        {"a1": 30880, "a4": 1.3306325137526747, "a5": 66, "a6": 75, "a7": 4.0, "a8": 0.946933171089005}),
    ("ga", 2): ("0x1.50693ed3ccc0ap-2",
        "0x1.ef3a16b5bd16ap-2 0x1.ef3a16b5bd16ap-2 0x1.ef3a16b5bd16ap-2 0x1.50693ed3ccc0ap-2 0x1.50693ed3ccc0ap-2",
        {"a1": 78588, "a6": 122, "a7": 7.040374344718041, "a8": 0.4493493819067135}),
    ("ga", 1): ("0x1.212aa4bdfbc68p-4",
        "0x1.3628523dd862ap-4 0x1.3628523dd862ap-4 0x1.3628523dd862ap-4 0x1.212aa4bdfbc68p-4 0x1.212aa4bdfbc68p-4",
        {"a1": 45554, "a4": 1.941327519200639, "a5": 167, "a6": 63, "a7": 7.071909039582716, "a8": 0.9239066722713871}),
    ("ga", 4): ("0x1.0b5338a8a2492p-4",
        "0x1.27ea67cab3549p-2 0x1.27ea67cab3549p-2 0x1.0b5338a8a2492p-4 0x1.0b5338a8a2492p-4 0x1.0b5338a8a2492p-4",
        {"a1": 26509, "a6": 290, "a7": 8.755901484756128, "a8": 0.5195567464284804}),
    ("ga", 3): ("0x1.214250cc18194p-5",
        "0x1.22c168d468e70p-5 0x1.22b2caa8af449p-5 0x1.22b2caa8af449p-5 0x1.214250cc18194p-5 0x1.214250cc18194p-5",
        {"a1": 69886, "a4": 1.6260114031517943, "a5": 61, "a6": 290, "a7": 5.770964038416346, "a8": 0.9710708077006771}),
    ("cmaes", 2): ("0x1.215fd7b46bbfap-4",
        "0x1.215fd7b46bbfap-4 0x1.215fd7b46bbfap-4 0x1.215fd7b46bbfap-4",
        {"a1": 42410, "a6": 10, "a7": 10.0, "a8": 1.0}),
    ("cmaes", 1): ("0x1.1ba8528d3de70p-4",
        "0x1.215fd7b46bbfap-4 0x1.1ba8528d3de70p-4 0x1.1ba8528d3de70p-4",
        {"a1": 35160, "a4": 2.0, "a5": 200, "a6": 287, "a7": 10.0, "a8": 1.0}),
    ("cmaes", 4): ("0x1.2a225926196eep-5",
        "0x1.2a225926196eep-5 0x1.2a225926196eep-5 0x1.2a225926196eep-5",
        {"a1": 42919, "a6": 212, "a7": 4.0, "a8": 0.1}),
    ("cmaes", 3): ("0x1.58ba3810a7a65p-4",
        "0x1.14072a7a4ed22p-3 0x1.58ba3810a7a65p-4 0x1.58ba3810a7a65p-4",
        {"a1": 42645, "a4": 1.0, "a5": 0, "a6": 10, "a7": 4.0, "a8": 1.0}),
    ("gbo", 2): ("0x1.17e5997d9163dp-4",
        "0x1.215fd7b46bbfap-4 0x1.1d826dc466b1dp-4 0x1.1d826dc466b1dp-4 0x1.1d826dc466b1dp-4 0x1.17e5997d9163dp-4",
        {"a1": 55034, "a6": 174, "a7": 8.72708340103624, "a8": 0.40972455847475264}),
    ("gbo", 1): ("0x1.065e073637e7ap-4",
        "0x1.0dba5ccfe99cep-4 0x1.0dba5ccfe99cep-4 0x1.0dba5ccfe99cep-4 0x1.0dba5ccfe99cep-4 0x1.065e073637e7ap-4",
        {"a1": 46145, "a4": 1.1938881559406536, "a5": 116, "a6": 101, "a7": 8.515588307448217, "a8": 0.486485864355674}),
    ("gbo", 4): ("0x1.447c1ee562ccbp-6",
        "0x1.8f1a65bc4cd48p-6 0x1.51ec0ca152758p-6 0x1.51ec0ca152758p-6 0x1.4de6ecf101badp-6 0x1.447c1ee562ccbp-6",
        {"a1": 44883, "a6": 260, "a7": 4.145447949726417, "a8": 0.7528378235452604}),
    ("gbo", 3): ("0x1.a5b650ebcfeafp-6",
        "0x1.4eb4f540588ebp-5 0x1.4eb4f540588ebp-5 0x1.32ad42d0f805ap-5 0x1.12b825ac8833cp-5 0x1.a5b650ebcfeafp-6",
        {"a1": 30846, "a4": 1.0, "a5": 138, "a6": 70, "a7": 4.143177332968709, "a8": 0.8948520348704715}),
}


@pytest.fixture(scope="module")
def pinned_grid():
    stream = generate(DatasetSpec(count=4_000, rng_seed=5))
    runs = experiment_grid(stream, SimulationConfig(leaf_capacity=300),
                           base_config=OptimizerConfig(n_pop=6, max_gen=5, rng_seed=3))
    return {(r.algorithm, r.category_id): r for r in runs}


@pytest.mark.parametrize("cell", GRID_PINS, ids=lambda cell: f"{cell[0]}-cat{cell[1]}")
def test_pinned_grid_cells(pinned_grid, cell):
    best, trace, attrs = GRID_PINS[cell]
    r = pinned_grid[cell]
    assert (r.best_volatility.hex(), " ".join(map(float.hex, r.trace)), r.best_attrs) == (
        best, trace, attrs)
