import math

import pytest
from hypothesis import given, settings, strategies as st

from dtsim import verkle
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
