"""Fee-driven dynamic block-space simulation and strategy optimization."""

from .allocation import AllocationParams, block_incentive, leaf_nodes
from .core import (
    BlockRecord,
    CATEGORIES,
    DataError,
    DtsStrategy,
    Priority,
    REFERENCE_STRATEGY,
    SimulationConfig,
    Stream,
    StrategyCategory,
    Transaction,
    category,
    strategy_from_category,
    validate_strategy,
)
from .ingest import DatasetSpec, IrrationalMix, generate, inject_irrational, load_csv
from .metrics import benchmark_check, log_returns, rolling_volatility, series_volatility, volatility
from .simulator import RunResult, fixed_block_baseline, run
from .verkle import (
    MembershipProof,
    VerkleTree,
    bandwidth_report,
    build_tree,
    merkle_proof_size_bytes,
    prove,
    verify,
    verkle_proof_size_bytes,
)
from .vrp import AssignmentMatrix, VrpInstance, brute_force_min_variance, check_constraints, encode, variance_objective

__version__ = "0.1.0"
