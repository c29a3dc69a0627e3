"""Strategy search: metaheuristics over the six free storage attributes.

The decision vector covers mempool size (a1), the small-fee threshold and
count (a4, a5; only for designated-space categories), the per-transaction
slot cap (a6) and the CDF scale/shape (a7, a8). Optimizers move in a
continuous box; integer attributes are rounded at evaluation time and every
candidate is judged by the volatility of a full simulation run against a
fixed dataset and seed (common random numbers), so comparisons are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (DataError, SimulationConfig, Stream, StrategyCategory, category,
                   strategy_from_category, validate_strategy, write_csv_rows)
from .metrics import MIN_INCENTIVES, series_volatility
from .optimizers import (PSO_COEFFICIENTS, cma_es, constriction_params,  # noqa: F401
                         differential_evolution, genetic_algorithm, gbo, pso)
from .simulator import incentives

# The searches by name, in the grid order from which each cell's seed derives.
ALGORITHMS: Dict[str, Callable] = {
    "pso": pso,
    "de": differential_evolution,
    "ga": genetic_algorithm,
    "cmaes": lambda objective, lb, ub, budget, rng, n_pop: cma_es(objective, lb, ub, budget, rng),
    "gbo": gbo,
}

# Attribute search bounds: the envelope of published optima, widened.
DEFAULT_BOUNDS: Dict[str, Tuple[float, float]] = {
    "a1": (1000, 80000),
    "a4": (1.0, 2.0),
    "a5": (0, 200),
    "a6": (10, 800),
    "a7": (4.0, 10.0),
    "a8": (0.1, 1.0),
}

INTEGER_ATTRS = frozenset({"a1", "a5", "a6"})


@dataclass(frozen=True)
class SearchSpace:
    """Bounded attribute box for one strategy category."""

    category: StrategyCategory
    bounds: Dict[str, Tuple[float, float]] = field(default_factory=lambda: dict(DEFAULT_BOUNDS))

    @property
    def names(self) -> List[str]:
        keys = ["a1"]
        if self.category.designated_space:
            keys += ["a4", "a5"]
        keys += ["a6", "a7", "a8"]
        return keys

    @property
    def lb(self) -> np.ndarray:
        return np.array([self.bounds[n][0] for n in self.names], dtype=float)

    @property
    def ub(self) -> np.ndarray:
        return np.array([self.bounds[n][1] for n in self.names], dtype=float)

    def decode(self, x: Sequence[float]) -> Dict[str, float]:
        """Vector -> attribute dict, rounding integer attributes."""
        return {name: int(round(value)) if name in INTEGER_ATTRS else float(value)
                for name, value in zip(self.names, x)}


@dataclass(frozen=True)
class OptimizerConfig:
    """The algorithm, population, budget and seed of a search.

    The evaluation budget of every algorithm is n_eval, or n_pop * max_gen
    (5000 with the defaults) when n_eval is None. max_gen sets nothing else
    and is no CLI setting; perfbench/run.py passes it until ROADMAP item 12.
    GA and GBO spread their schedules over the budget // n_pop generations
    that the budget allows, and CMA-ES takes its standard population size.
    The algorithms' own constants are fixed: PSO takes PSO_COEFFICIENTS, DE
    F = 0.5 and CR = 0.9, GA a crossover rate of 0.9 and GBO an escape
    probability of 0.5.
    """

    algorithm: str = "pso"
    n_pop: int = 50
    max_gen: int = 100
    n_eval: Optional[int] = None
    rng_seed: int = 0

    @property
    def budget(self) -> int:
        return self.n_eval if self.n_eval is not None else self.n_pop * self.max_gen

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected one of {tuple(ALGORITHMS)}")
        if self.n_pop < 1:
            raise ValueError("n_pop must be positive")
        if self.budget < 1:
            raise ValueError("evaluation budget must be positive")


@dataclass
class OptimizationRun:
    algorithm: str
    category_id: int
    best_attrs: Dict[str, float]
    best_volatility: float
    trace: List[float]
    evaluations: int
    simulations: int = 0  # objective calls: the evaluations less repeated candidates


def evaluate(candidate: Sequence[float], cat: StrategyCategory,
             dataset, cfg: SimulationConfig) -> float:
    """Objective: volatility of the simulated incentive series (`simulator.incentives`).

    Invalid strategies and degenerate runs (fewer than
    `metrics.MIN_INCENTIVES` sealed blocks) score +inf instead of raising,
    so optimizers can rank them out. Data errors of the stream (DataError
    from the simulator) propagate.
    """
    return evaluate_attrs(SearchSpace(category=cat).decode(candidate), cat, dataset, cfg)


def evaluate_attrs(attrs: Dict[str, float], cat: StrategyCategory,
                   dataset, cfg: SimulationConfig) -> float:
    """`evaluate` of an already decoded attribute dict."""
    try:
        strategy = strategy_from_category(cat, **attrs)
    except ValueError:
        return math.inf
    if validate_strategy(strategy, cfg):
        return math.inf
    series = incentives(dataset, strategy, cfg)
    return series_volatility(series) if len(series) >= MIN_INCENTIVES else math.inf


def run_optimizer(algo: str, space: SearchSpace, objective: Callable,
                  config: OptimizerConfig) -> OptimizationRun:
    """Spend the configured budget minimizing `objective` over `space`.

    `objective` receives the decoded attribute dict and must be
    deterministic, as common random numbers make `evaluate`: a candidate
    that decodes like an earlier one gets the earlier value without a new
    call, yet still counts against the budget. Deterministic per config
    seed; the returned generation trace is non-increasing. `algo` repeats
    `config.algorithm` for perfbench/run.py until ROADMAP item 12.
    """
    lb, ub = space.lb, space.ub
    rng = np.random.default_rng(config.rng_seed)
    memo: Dict[tuple, float] = {}  # decoded values in `space.names` order -> objective

    def boxed(x: np.ndarray) -> float:
        attrs = space.decode(x)
        key = tuple(attrs.values())
        if key not in memo:
            memo[key] = objective(attrs)
        return memo[key]

    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}")
    result = ALGORITHMS[algo](boxed, lb, ub, config.budget, rng, config.n_pop)
    return OptimizationRun(
        algorithm=algo,
        category_id=space.category.id,
        best_attrs=space.decode(result.best_x),
        best_volatility=result.best_f,
        trace=result.trace,
        evaluations=result.evaluations,
        simulations=len(memo),
    )


# Experiment layout mirroring the published grid: per algorithm, the four
# categories in the order (time, no-space), (time, space), (fee, no-space),
# (fee, space) -> category ids 2, 1, 4, 3.
GRID_CATEGORY_ORDER = (2, 1, 4, 3)


def grid_cell(cat_id: int, config: OptimizerConfig, dataset, cfg: SimulationConfig) -> OptimizationRun:
    """One cell: `config.algorithm` minimizing `evaluate` over category `cat_id`."""
    cat = category(cat_id)
    return run_optimizer(config.algorithm, SearchSpace(category=cat),
                         lambda attrs: evaluate_attrs(attrs, cat, dataset, cfg), config)


def experiment_grid(dataset, cfg: SimulationConfig,
                    base_config: OptimizerConfig = OptimizerConfig(),
                    algorithms: Sequence[str] = tuple(ALGORITHMS),
                    jobs: int = 1) -> List[OptimizationRun]:
    """All algorithm-by-category optimization runs (20 with the defaults).

    Each cell gets a deterministic seed derived from the base seed and its
    grid position, so results are identical no matter how many worker
    processes (at most `jobs`, one per cell) execute the cells.
    """
    dataset = Stream.of(dataset)
    if not dataset:
        raise DataError("experiment grid needs a non-empty dataset")
    cat_ids, configs = [], []
    for a_idx, algo in enumerate(algorithms):
        for c_idx, cat_id in enumerate(GRID_CATEGORY_ORDER):
            cell_seed = base_config.rng_seed + 1000 * a_idx + c_idx
            cat_ids.append(cat_id)
            configs.append(replace(base_config, algorithm=algo, rng_seed=cell_seed))
    cells = (cat_ids, configs, repeat(dataset), repeat(cfg))
    workers = min(jobs, len(configs))
    if workers <= 1:
        return list(map(grid_cell, *cells))
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(grid_cell, *cells))


def grid_rows(runs: Sequence[OptimizationRun]) -> List[dict]:
    """Grid runs -> table rows shaped like the published results table."""
    rows = []
    for i, r in enumerate(runs, start=1):
        cat = category(r.category_id)
        attrs = r.best_attrs
        rows.append({
            "algorithm": r.algorithm,
            "experiment": i,
            "a1": attrs["a1"],
            "a2": cat.priority.value,
            "a3": cat.designated_space,
            "a4": attrs.get("a4", "-"),
            "a5": attrs.get("a5", "-"),
            "a6": attrs["a6"],
            "a7": attrs["a7"],
            "a8": attrs["a8"],
            "volatility": r.best_volatility,
        })
    return rows


def write_grid_csv(rows: Sequence[dict], path) -> int:
    cols = ("algorithm", "experiment", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "volatility")
    return write_csv_rows(path, cols, ([row[c] for c in cols] for row in rows))


def write_trace_csv(run_: OptimizationRun, path) -> int:
    return write_csv_rows(path, ("generation", "best_volatility"), enumerate(run_.trace))
