import numpy as np
import pytest

from dtsim.core import SimulationConfig, Stream, strategy_from_category
from dtsim.ingest import DatasetSpec, generate

ACCEPTANCE_SEED = 2024
ACCEPTANCE_COUNT = 400_000


@pytest.fixture(scope="session")
def big_stream():
    """The 400k-transaction synthetic stream shared by the heavy criteria."""
    return generate(DatasetSpec(count=ACCEPTANCE_COUNT, rng_seed=ACCEPTANCE_SEED))


@pytest.fixture(scope="session")
def reference_strategy():
    return strategy_from_category(2, a1=25469, a6=110, a7=6.94, a8=1.00)


@pytest.fixture(scope="session")
def default_cfg():
    return SimulationConfig(rng_seed=ACCEPTANCE_SEED)


@pytest.fixture(scope="session")
def zero_incentive_stream():
    """12k transactions whose fees are 0.0 at positions 3000-7999: under the
    reference strategy with a1 = 50, block 2 holds only zero fees."""
    at = np.arange(12_000)
    fees = np.where((at >= 3000) & (at < 8000), 0.0, 0.2)
    return Stream(at, at * 300, fees * 500, fees)
