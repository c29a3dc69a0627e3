import pytest

from dtsim.core import BlockRecord
from dtsim.vrp import (
    AssignmentMatrix,
    VrpInstance,
    block_sums,
    brute_force_min_variance,
    check_constraints,
    encode,
    variance_objective,
)


def block(height, tx_ids, nodes=100):
    return BlockRecord(height=height, tx_ids=tuple(tx_ids), occupied_nodes=nodes,
                       incentive=0.0, seal_time=0)


class TestEncode:
    def test_single_cell(self):
        m = encode([block(0, [7])])
        assert m.blocks == (0,)
        assert m.tx_ids == (7,)

    def test_rows_have_one_hot_placement(self):
        m = encode([block(0, [1, 3]), block(1, [2])])
        assert m.blocks == (0, 1, 0)
        assert m.tx_ids == (1, 2, 3)

    def test_duplicate_transaction_rejected(self):
        with pytest.raises(ValueError, match="more than one block"):
            encode([block(0, [1, 2]), block(1, [2])])

    def test_universe_can_include_unplaced(self):
        m = encode([block(0, [1])], universe=[1, 2])
        assert m.blocks == (0, None)


class TestAssignmentMatrix:
    @pytest.mark.parametrize("index", [-1, 2])
    def test_block_index_outside_the_blocks_rejected(self, index):
        with pytest.raises(ValueError, match=rf"block index {index} is outside \[0, 2\)"):
            AssignmentMatrix(blocks=(0, index, None), tx_ids=(1, 2, 3), n_blocks=2)


class TestCheckConstraints:
    def test_valid_matrix(self):
        m = encode([block(0, [1, 2]), block(1, [3])])
        inst = VrpInstance(fees=(1.0, 2.0, 3.0), demands=(50, 50, 50), capacity=2100)
        assert check_constraints(m, inst) == []

    def test_row_summing_twice(self):
        m = AssignmentMatrix(blocks=(0, 1, 1), tx_ids=(1, 1, 2), n_blocks=2)
        inst = VrpInstance(fees=(1.0, 1.0, 2.0), demands=(10, 10, 10), capacity=100)
        violations = check_constraints(m, inst)
        assert len(violations) == 1 and "packed 2 times" in violations[0]

    def test_capacity_breach(self):
        m = AssignmentMatrix(blocks=(0, 0), tx_ids=(1, 2), n_blocks=1)
        inst = VrpInstance(fees=(1.0, 2.0), demands=(1100, 1001), capacity=2100)
        violations = check_constraints(m, inst)
        assert len(violations) == 1 and "demand 2101 exceeds capacity 2100" in violations[0]


class TestVarianceObjective:
    def test_equal_blocks_have_zero_variance(self):
        m = AssignmentMatrix(blocks=(0, 1), tx_ids=(1, 2), n_blocks=2)
        assert variance_objective(m, [5.0, 5.0]) == 0.0

    def test_four_six_split(self):
        m = AssignmentMatrix(blocks=(0, 1), tx_ids=(1, 2), n_blocks=2)
        assert variance_objective(m, [4.0, 6.0]) == pytest.approx(1.0)

    def test_population_convention(self):
        # Three blocks at 1, 2, 3: population variance is 2/3.
        m = AssignmentMatrix(blocks=(0, 1, 2), tx_ids=(1, 2, 3), n_blocks=3)
        assert variance_objective(m, [1.0, 2.0, 3.0]) == pytest.approx(2.0 / 3.0)

    def test_column_permutation_invariance(self):
        fees = [3.0, 9.0, 4.0]
        m1 = AssignmentMatrix(blocks=(0, 1, 0), tx_ids=(1, 2, 3), n_blocks=2)
        m2 = AssignmentMatrix(blocks=(1, 0, 1), tx_ids=(1, 2, 3), n_blocks=2)
        assert variance_objective(m1, fees) == variance_objective(m2, fees)


class TestBruteForce:
    def test_four_six_hand_enumeration(self):
        inst = VrpInstance(fees=(4.0, 6.0), demands=(60, 60), capacity=100)
        matrix, var = brute_force_min_variance(inst, block_count=2)
        assert var == pytest.approx(1.0)
        assert check_constraints(matrix, inst) == []

    def test_symmetric_split_reaches_zero(self):
        inst = VrpInstance(fees=(5.0, 5.0, 5.0, 5.0), demands=(50, 50, 50, 50), capacity=100)
        _matrix, var = brute_force_min_variance(inst, block_count=2)
        assert var == 0.0

    def test_infeasible_demand_errors(self):
        inst = VrpInstance(fees=(1.0,), demands=(200,), capacity=100)
        with pytest.raises(ValueError, match="no feasible"):
            brute_force_min_variance(inst, block_count=2)

    def test_size_limits(self):
        inst = VrpInstance(fees=tuple([1.0] * 13), demands=tuple([1] * 13), capacity=100)
        with pytest.raises(ValueError, match="12"):
            brute_force_min_variance(inst, block_count=2)
        small = VrpInstance(fees=(1.0,), demands=(1,), capacity=10)
        with pytest.raises(ValueError, match="3 blocks"):
            brute_force_min_variance(small, block_count=4)

    def test_witness_is_deterministic(self):
        inst = VrpInstance(fees=(2.0, 2.0, 4.0), demands=(10, 10, 10), capacity=100)
        m1, v1 = brute_force_min_variance(inst, block_count=2)
        m2, v2 = brute_force_min_variance(inst, block_count=2)
        assert m1.blocks == m2.blocks and v1 == v2


def _message(build):
    """The message `build` raises, or what it returns."""
    try:
        return build()
    except ValueError as exc:
        return str(exc)


ONE_ROW = AssignmentMatrix(blocks=(0,), tx_ids=(1,), n_blocks=1)


@pytest.mark.parametrize("build, message", [
    (lambda: VrpInstance(fees=(1.0,), demands=(), capacity=1),
     "fees and demands must have equal length"),
    (lambda: VrpInstance(fees=(), demands=(), capacity=0), "capacity must be positive"),
    (lambda: AssignmentMatrix(blocks=(0,), tx_ids=(), n_blocks=1),
     "blocks and tx_ids must have equal length"),
    (lambda: check_constraints(ONE_ROW, VrpInstance(fees=(1.0, 2.0), demands=(1, 1), capacity=2)),
     ["matrix has 1 rows for 2 transactions"]),
    (lambda: check_constraints(AssignmentMatrix(blocks=(None,), tx_ids=(1,), n_blocks=1),
                               VrpInstance(fees=(1.0,), demands=(1,), capacity=1)),
     ["transaction 1 packed 0 times (expected once)"]),
    (lambda: block_sums(ONE_ROW, (1.0, 2.0)), "fee vector length must match matrix rows"),
    (lambda: variance_objective(AssignmentMatrix(blocks=(), tx_ids=(), n_blocks=0), ()),
     "variance needs at least one block"),
    (lambda: brute_force_min_variance(VrpInstance(fees=(), demands=(), capacity=1), 1),
     "instance has no transactions"),
    (lambda: brute_force_min_variance(VrpInstance(fees=(1.0, 1.0), demands=(2, 2), capacity=3), 1),
     "no capacity-feasible assignment exists"),
], ids=["instance-lengths", "capacity", "matrix-lengths", "rows", "unpacked", "fee-vector",
        "zero-blocks", "no-transactions", "infeasible"])
def test_each_invalid_input_gets_its_message(build, message):
    assert _message(build) == message
