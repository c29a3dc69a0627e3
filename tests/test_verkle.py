import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtsim import verkle
from dtsim.core import SimulationConfig, strategy_from_category
from dtsim.ingest import DatasetSpec, generate
from dtsim.simulator import run
from dtsim.verkle import (
    MembershipProof,
    bandwidth_report,
    build_tree,
    check_published_cells,
    graphene_integration_summary,
    merkle_proof_size_bytes,
    prove,
    slot_digest,
    verify,
    verkle_proof_size_bytes,
)


def leaves(n):
    return [slot_digest(i, 0) for i in range(n)]


class TestBuildTree:
    def test_single_layer_when_k_covers_all(self):
        tree = build_tree(leaves(4), k=4)
        assert tree.depth == 1

    def test_binary_shape_at_k2(self):
        tree = build_tree(leaves(4), k=2)
        assert tree.depth == 2
        assert len(tree.levels[1]) == 2

    def test_single_leaf_commits_once(self):
        ls = leaves(1)
        tree = build_tree(ls, k=7)
        assert tree.depth == 1
        assert tree.root == verkle.commit(ls)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_tree([], k=2)
        with pytest.raises(ValueError):
            build_tree(leaves(3), k=1)

    def test_depth_law_against_division_oracle(self):
        # Oracle: repeatedly divide the node count by k until one remains.
        for n in list(range(1, 66)) + [127, 128, 129, 2100, 4096]:
            for k in (2, 3, 5, 10, 16):
                levels = 0
                m = n
                while m > 1:
                    m = -(-m // k)
                    levels += 1
                levels = max(levels, 1)
                tree = build_tree(leaves(n), k=k)
                assert tree.depth == levels, (n, k)
                if n >= 2:
                    assert tree.depth == math.ceil(math.log(n, k) - 1e-9), (n, k)

    def test_root_changes_when_any_leaf_changes(self):
        base = leaves(30)
        root = build_tree(base, k=5).root
        for i in (0, 13, 29):
            mutated = list(base)
            mutated[i] = slot_digest(999, i)
            assert build_tree(mutated, k=5).root != root


class TestProofs:
    def test_round_trip_all_positions(self):
        ls = leaves(23)
        tree = build_tree(ls, k=3)
        for i in range(23):
            proof = prove(tree, i)
            assert len(proof.path) == tree.depth
            assert verify(tree.root, proof, ls[i])

    def test_depth_for_block_sized_tree(self):
        tree = build_tree(leaves(2100), k=5)
        assert len(prove(tree, 1500).path) == 5  # ceil(log5 2100) = 5

    def test_tampered_leaf_fails(self):
        ls = leaves(16)
        tree = build_tree(ls, k=4)
        proof = prove(tree, 7)
        assert not verify(tree.root, proof, slot_digest(7, 99))

    def test_wrong_root_fails(self):
        ls = leaves(16)
        tree = build_tree(ls, k=4)
        other = build_tree(leaves(17), k=4)
        assert not verify(other.root, prove(tree, 3), ls[3])

    def test_malformed_proof_returns_false(self):
        ls = leaves(9)
        tree = build_tree(ls, k=3)
        good = prove(tree, 2)
        bad = MembershipProof(leaf_index=2, path=((0, 5, good.path[0][2]),))
        assert verify(tree.root, bad, ls[2]) is False

    def test_index_out_of_range(self):
        tree = build_tree(leaves(5), k=2)
        with pytest.raises(IndexError):
            prove(tree, 5)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 4096), k=st.sampled_from([2, 3, 5, 10, 16]),
           pick=st.integers(0, 10**9))
    def test_round_trip_property(self, n, k, pick):
        ls = leaves(n)
        tree = build_tree(ls, k=k)
        i = pick % n
        proof = prove(tree, i)
        assert len(proof.path) == tree.depth
        assert verify(tree.root, proof, ls[i])


# Published table cells; the bytes column is the printed value.
MERKLE_CELLS = [(130999, 543.97), (174747, 557.28), (413507, 597.04)]
VERKLE_CELLS = [
    (2100, 3, 222.82), (2100, 5, 152.10), (2100, 10, 106.31),
    (174747, 5, 240.01), (413507, 5, 257.13),
    (130999, 3, 343.21), (130999, 10, 163.75),
]


class TestProofSizes:
    @pytest.mark.parametrize("n_t,expected", MERKLE_CELLS)
    def test_merkle_smooth_reproduces_published(self, n_t, expected):
        assert merkle_proof_size_bytes(n_t, "smooth") == pytest.approx(expected, abs=0.02)

    @pytest.mark.parametrize("n_t,k,expected", VERKLE_CELLS)
    def test_verkle_smooth_reproduces_published(self, n_t, k, expected):
        assert verkle_proof_size_bytes(n_t, k, "smooth") == pytest.approx(expected, abs=0.02)

    def test_merkle_ceil_mode(self):
        assert merkle_proof_size_bytes(2100, "ceil") == 384.0  # ceil(log2 2100) = 12

    def test_verkle_equals_merkle_at_k2(self):
        for n in (2, 3, 100, 2100, 540000):
            for mode in ("smooth", "ceil"):
                assert verkle_proof_size_bytes(n, 2, mode) == merkle_proof_size_bytes(n, mode)

    def test_monotone_nonincreasing_in_k(self):
        for n_t in (2100, 130999, 540000):
            sizes = [verkle_proof_size_bytes(n_t, k, "smooth") for k in range(2, 60)]
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_rejects_small_inputs(self):
        with pytest.raises(ValueError):
            merkle_proof_size_bytes(1)
        with pytest.raises(ValueError):
            verkle_proof_size_bytes(100, 1)
        with pytest.raises(ValueError):
            merkle_proof_size_bytes(2100, "round")

    def test_known_inconsistent_cells_are_flagged(self):
        report = check_published_cells()
        flagged = {(c["scenario"], c["structure"], c["k"]) for c in report if not c["matches"]}
        assert flagged == {("Bitcoin", "merkle", 2), ("XThin", "verkle", 5)}

    def test_integration_scenario_summary(self):
        s = graphene_integration_summary()
        assert s.merkle_levels == 19
        assert s.merkle_proof_bytes == 608.0
        assert s.verkle_proof_bytes == pytest.approx(60.94, abs=0.02)
        assert s.verkle_proof_bytes <= 61.0


class TestBandwidthReport:
    def test_empty_scenarios_give_empty_table(self):
        assert bandwidth_report([], ks=[3, 5]) == []

    def test_includes_integration_scenario_rows(self):
        rows = bandwidth_report([("Graphene-DTS", 540000)], ks=[1024], modes=("smooth",))
        verkle_rows = [r for r in rows if r["structure"] == "verkle"]
        assert verkle_rows[0]["bytes"] == pytest.approx(60.94, abs=0.02)
        by_mode = {r["mode"]: r for r in rows if r["structure"] == "merkle"}
        assert by_mode["smooth"]["bytes"] == pytest.approx(19.042 * 32, abs=0.1)
        assert by_mode["published"]["bytes"] == 608.0  # printed 19-level figure

    def test_row_shape(self):
        rows = bandwidth_report([("Bitcoin", 2100)], ks=[5], modes=("smooth", "ceil"))
        assert {r["mode"] for r in rows} == {"smooth", "ceil"}
        assert {r["structure"] for r in rows} == {"merkle", "verkle"}


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3000), k=st.integers(2, 1100), picks=st.lists(st.integers(0, 10**9),
                                                                      min_size=1, max_size=5))
def test_every_group_of_every_level_is_its_commit(n, k, picks):
    ls = leaves(n)
    tree = build_tree(ls, k=k)
    assert tree.levels[0] == tuple(ls) and len(tree.levels[-1]) == 1
    for below, above in zip(tree.levels, tree.levels[1:]):
        assert above == tuple(verkle.commit(below[i:i + k]) for i in range(0, len(below), k))
    for pick in picks:
        assert verify(tree.root, prove(tree, pick % n), ls[pick % n])


@settings(max_examples=40, deadline=None)
@given(block=st.lists(st.tuples(st.integers(0, 2**63 - 1), st.integers(1, 110)),
                      min_size=1, max_size=40, unique_by=lambda t: t[0]),
       k=st.sampled_from([2, 3, 5, 16, 1024]))
def test_block_root_is_the_root_of_the_slot_digest_tree(block, k):
    digests = [slot_digest(tx_id, slot) for tx_id, n in block for slot in range(n)]
    ids, slots = (np.array(column, dtype=np.int64) for column in zip(*block))
    assert verkle.block_root(ids, slots, k) == build_tree(digests, k).root


def test_levels_hold_only_digests():
    with pytest.raises(ValueError, match="32-byte digest"):
        build_tree([b"\x00" * 31, b"\x00" * 33], k=2)


# sha256 of the concatenated Verkle roots of every block of a run over a 4k
# seed-5 stream, a1 = 500, 1000 leaf slots per block, per (category,
# branching factor, block target, force_seal). At k = 1024 a block's root is
# its one commit. A target with force_seal cuts the run at that seal and
# force-seals a tail block that holds the one transaction opening the next.
_ROOT_PINS = {
    (1, 2, None, False): 'efe71bcaee50a1ddea6064bcb029154fc390d20ecba67890b0caf5bf43cb288a',
    (1, 5, None, False): '5b73f85f5af00c63d8d3c2b7958e92c0e49d21ea23dee4bd3af0f82600013b60',
    (1, 1024, None, False): '71c3ab2b7097e117b8e22c975247781b043df02173092ac13e4bb6e49e24aaf3',
    (2, 2, None, False): 'a133bdcd31da91c3782a66cbc1b45d755ec64ac849e425af2301aee3df3fb88d',
    (2, 5, None, False): '159f351a49b4b0cec9d823884db8b0efb936b44d819110eb5a97dbc7a95d5cb3',
    (2, 1024, None, False): '7b68fa4356d15efe4d9f91ad35ab8652ab935afce40130a045ed811d588aa394',
    (3, 2, None, False): '0f592864b175706f6a0ade198df7471c1f60cca0f28bb5aa72b3217c791ffa10',
    (3, 5, None, False): '0a96a189fbf4b4d8f8f1b79247cf4b7e009f60de5c77ca57756dce14d21c6c06',
    (3, 1024, None, False): '4ca90cdb91b9347b8b3c7f10037748109dbf8d96c0d9b29cc5556eba82865158',
    (4, 2, None, False): '48caa8db24b0bc90e27412e2bb753321b3f5f55950c137750b3371d69441fc81',
    (4, 5, None, False): '02dd3acb1752ec97c33d73341ecc027e33422460cc4e4f5a3731ea5b8ba592ad',
    (4, 1024, None, False): '51e2674260ce5bdf04fca2ef43ee07af25c5f6380210b7feb2a7fac8b72f86c2',
    (1, 5, 4, True): '013adf1fa5da9462a2852833589099b1f79052aaced1e9026ae717643e40f53c',
    (2, 5, 4, True): 'cc57a9a7f38d178b70e47d1df6bf14c697546b75307066680cdf11088792c46f',
    (3, 5, 4, True): '7f1b712f5d159ac58267e946c3c4539027c0f9585462730d4d3a0fb7b4838f6a',
    (4, 5, 4, True): '76363d7a62f71234a74502467386fa5974763bee6260c34634518010b9026573',
}
_SMALL = {1: {"a4": 60.0, "a5": 100}, 3: {"a4": 60.0, "a5": 200}}


@pytest.fixture(scope="module")
def stream_4k():
    return generate(DatasetSpec(count=4_000, rng_seed=5))


@pytest.mark.parametrize("case", sorted(_ROOT_PINS, key=repr), ids=repr)
def test_pinned_block_roots(case, stream_4k):
    cat, k, target, force_seal = case
    s = strategy_from_category(cat, a1=500, a6=110, a7=6.94, a8=1.0, **_SMALL.get(cat, {}))
    cfg = SimulationConfig(leaf_capacity=1000, verkle_branching_factor=k, block_count_target=target)
    result = run(stream_4k, s, cfg, force_seal=force_seal, build_trees=True)
    slots = {tx_id: n for tx_id, _height, _fee, n in result.assignments}
    for block in result.blocks:
        digests = [slot_digest(tx_id, slot) for tx_id in block.tx_ids for slot in range(slots[tx_id])]
        assert k < 1024 or len(digests) <= k
        assert block.verkle_root == build_tree(digests, k).root
    if force_seal:
        assert len(result.blocks) == target + 1 and len(result.blocks[-1].tx_ids) == 1
    roots = b"".join(block.verkle_root for block in result.blocks)
    assert hashlib.sha256(roots).hexdigest() == _ROOT_PINS[case]
