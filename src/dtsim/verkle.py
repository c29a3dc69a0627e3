"""k-ary commitment tree over block leaf slots, with proof-size analytics.

The tree groups leaf digests into subsets of size k and commits each subset,
iterating until a single root commitment remains. The commitment is a digest
stand-in (hash of the ordered children) for a real vector commitment with
constant-size openings, so the closed-form proof-size figures below are
computed from the k-ary depth.

A level is one contiguous `bytes` buffer of 32-byte digests, and
`commit_level` is the one way to commit it: one sha256 per group of k over
the 2-byte big-endian child count and the group's slice of the buffer, the
short last group under its own count. A leaf is `slot_digest(id, slot)`, the
sha256 of the 8-byte big-endian id and the 4-byte big-endian slot number.
`block_root` packs a block's leaf preimages in one numpy pass, as 12-byte
records of a `>u8` id and a `>u4` slot, hashes each record once and commits
the joined digests up to the root, so a block's leaves are never Python ints
or tuples. `build_tree` commits through the same routine and keeps each
level as a tuple of 32-byte digests.

Proof size has one formula, `verkle_proof_size_bytes`; the binary (Merkle)
figures are its k = 2 case. It comes in two rounding modes because the
published comparison tables were computed without the ceiling that the
printed formulas carry:
  ceil    bytes = ceil(log_k(n)) * 32  (path counted in whole levels)
  smooth  bytes = log_k(n) * 32        (reproduces the published table cells)
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .core import write_csv_rows

_BYTES_PER_LEVEL = 32  # one sha256 digest


def slot_digest(tx_id: int, slot: int) -> bytes:
    """Digest for one occupied leaf slot of a transaction."""
    return hashlib.sha256(tx_id.to_bytes(8, "big") + slot.to_bytes(4, "big")).digest()


def commit_level(level: bytes, k: int) -> bytes:
    """The level above `level`, a buffer of 32-byte digests: per group of `k`
    children, the sha256 of its 2-byte big-endian child count and its
    children, joined into the same kind of buffer."""
    n, width = len(level) // _BYTES_PER_LEVEL, k * _BYTES_PER_LEVEL
    full = n - n % k
    count = k.to_bytes(2, "big") if full else b""
    sha256 = hashlib.sha256
    groups = [sha256(count + level[at:at + width]).digest()
              for at in range(0, full * _BYTES_PER_LEVEL, width)]
    if full < n:
        groups.append(sha256((n - full).to_bytes(2, "big")
                             + level[full * _BYTES_PER_LEVEL:]).digest())
    return b"".join(groups)


def block_root(ids: np.ndarray, slots: np.ndarray, k: int) -> bytes:
    """Root of the tree over `slot_digest(id, s)` for s in range(slots[i]) of
    each transaction ids[i] in order: `build_tree(...).root` without the tree.
    Ids must be non-negative; the `>u8` packing would wrap a negative one."""
    ends = np.cumsum(slots)
    count = int(ends[-1])
    packed = np.empty(count, dtype=[("id", ">u8"), ("slot", ">u4")])
    packed["id"] = np.repeat(ids, slots)
    packed["slot"] = np.arange(count) - np.repeat(ends - slots, slots)
    sha256 = hashlib.sha256
    level = commit_level(b"".join([sha256(c).digest() for c in packed.view("V12").tolist()]), k)
    while len(level) > _BYTES_PER_LEVEL:
        level = commit_level(level, k)
    return level


@dataclass(frozen=True)
class VerkleTree:
    levels: Tuple[Tuple[bytes, ...], ...]  # levels[0] = leaves, levels[-1] = (root,)

    @property
    def root(self) -> bytes:
        return self.levels[-1][0]


def build_tree(leaves: Sequence[bytes], k: int) -> VerkleTree:
    """Commit `leaves` bottom-up in groups of `k`.

    Depth, `len(levels) - 1`, is ceil(log_k(n)) for n >= 2 and exactly 1
    for a single leaf (the root then commits to that one leaf).
    """
    if k < 2:
        raise ValueError("branching factor must be >= 2")
    leaves = tuple(leaves)
    if not leaves:
        raise ValueError("cannot build a tree over zero leaves")
    if any(len(leaf) != _BYTES_PER_LEVEL for leaf in leaves):
        raise ValueError(f"every leaf must be a {_BYTES_PER_LEVEL}-byte digest")
    levels = [leaves]
    level = b"".join(leaves)
    while len(levels) == 1 or len(level) > _BYTES_PER_LEVEL:
        level = commit_level(level, k)
        levels.append(tuple(level[at:at + _BYTES_PER_LEVEL]
                            for at in range(0, len(level), _BYTES_PER_LEVEL)))
    return VerkleTree(tuple(levels))


def verkle_proof_size_bytes(n_t: int, k: int, mode: str = "smooth") -> int | float:
    """k-ary commitment-tree membership proof size in bytes for n_t
    transactions: log_k(n_t) levels of 32 bytes, a float in smooth mode; in
    ceil mode whole levels, so an int (levels x 32)."""
    if k < 2:
        raise ValueError("branching factor must be >= 2")
    if n_t < 2:
        raise ValueError("proof size is defined for n_t >= 2")
    levels = math.log(n_t) / math.log(k)
    if mode == "ceil":
        levels = math.ceil(levels - 1e-12)
    elif mode != "smooth":
        raise ValueError(f"mode must be 'ceil' or 'smooth', got {mode!r}")
    return levels * _BYTES_PER_LEVEL


def merkle_proof_size_bytes(n_t: int, mode: str = "smooth") -> int | float:
    """Binary-tree membership proof size in bytes: the k = 2 case (an int in ceil mode)."""
    return verkle_proof_size_bytes(n_t, 2, mode)


# The published large-block integration scenario, and the branching factors
# the proof-size tables report: the published cells' k, then the scenario's.
INTEGRATION_SCENARIO = ("Graphene-DTS", 540000)
BRANCHING_FACTORS = (3, 5, 10, 1024)

# Published proof-size table cells (scalability solution, transaction count,
# structure, branching factor, printed bytes). Two cells are known to
# disagree with the formulas and are expected to be flagged, not matched:
# the binary-tree Bitcoin row (365.57) and the k=5 XThin cell (218.33,
# which duplicates XThin's printed TPS figure).
PUBLISHED_PROOF_CELLS = (
    ("Bitcoin", 2100, "merkle", 2, 365.57),
    ("XThin", 130999, "merkle", 2, 543.97),
    ("Compact", 174747, "merkle", 2, 557.28),
    ("Graphene", 413507, "merkle", 2, 597.04),
    ("Bitcoin", 2100, "verkle", 3, 222.82),
    ("Bitcoin", 2100, "verkle", 5, 152.10),
    ("Bitcoin", 2100, "verkle", 10, 106.31),
    ("XThin", 130999, "verkle", 3, 343.21),
    ("XThin", 130999, "verkle", 5, 218.33),
    ("XThin", 130999, "verkle", 10, 163.75),
    ("Compact", 174747, "verkle", 3, 351.60),
    ("Compact", 174747, "verkle", 5, 240.01),
    ("Compact", 174747, "verkle", 10, 167.76),
    ("Graphene", 413507, "verkle", 3, 376.69),
    ("Graphene", 413507, "verkle", 5, 257.13),
    ("Graphene", 413507, "verkle", 10, 179.73),
)
# The published (scalability solution, transaction count) pairs, in table order.
PUBLISHED_SCENARIOS = tuple(dict.fromkeys(cell[:2] for cell in PUBLISHED_PROOF_CELLS))


def check_published_cells() -> List[dict]:
    """Compare every published table cell against the smooth-mode formula.

    Returns one record per cell with the computed value and a `matches`
    flag (within 0.02 bytes); the two known-inconsistent cells come back
    flagged False.
    """
    report = []
    for name, n_t, structure, k, published in PUBLISHED_PROOF_CELLS:
        computed = verkle_proof_size_bytes(n_t, k, "smooth")
        report.append({
            "scenario": name,
            "n_t": n_t,
            "structure": structure,
            "k": k,
            "published_bytes": published,
            "computed_bytes": computed,
            "matches": abs(computed - published) <= 0.02,
        })
    return report


@dataclass(frozen=True)
class IntegrationScenario:
    """Proof sizes for a large-block integration scenario."""

    n_t: int
    merkle_levels: int
    merkle_proof_bytes: float
    verkle_branching: int
    verkle_proof_bytes: float


def graphene_integration_summary() -> IntegrationScenario:
    """The published 540,000-transaction scenario, at k = 1024.

    The published derivation counts floor(log2(n_t)) hash levels (18
    non-leaf levels plus the root for n_t = 540,000, i.e. 19 levels and
    608 bytes); a strict ceiling would count 20. The k-ary figure uses the
    smooth formula.
    """
    n_t, k = INTEGRATION_SCENARIO[1], BRANCHING_FACTORS[-1]
    levels = math.floor(math.log2(n_t))
    return IntegrationScenario(
        n_t=n_t,
        merkle_levels=levels,
        merkle_proof_bytes=levels * _BYTES_PER_LEVEL,
        verkle_branching=k,
        verkle_proof_bytes=verkle_proof_size_bytes(n_t, k, "smooth"),
    )


def bandwidth_report(scenarios: Sequence[Tuple[str, int]],
                     ks: Sequence[int],
                     modes: Sequence[str] = ("smooth", "ceil")) -> List[dict]:
    """Tabulate binary- and k-ary proof sizes for each scenario.

    Rows carry (scenario, n_t, structure, k, mode, bytes); the binary rows
    come first, the same formula at k = 2, once per mode. The
    540,000-transaction integration scenario additionally gets a "published"
    binary row carrying the printed 19-level figure, which no strict
    rounding mode reproduces.
    """
    rows = []
    for name, n_t in scenarios:
        for structure, k in (("merkle", 2), *(("verkle", k) for k in ks)):
            sizes = [(mode, verkle_proof_size_bytes(n_t, k, mode)) for mode in modes]
            if structure == "merkle" and n_t == INTEGRATION_SCENARIO[1]:
                sizes.append(("published", graphene_integration_summary().merkle_proof_bytes))
            rows.extend({"scenario": name, "n_t": n_t, "structure": structure,
                         "k": k, "mode": mode, "bytes": size} for mode, size in sizes)
    return rows


def write_bandwidth_csv(rows: Sequence[dict], path) -> int:
    cols = ("scenario", "n_t", "structure", "k", "mode", "bytes")
    return write_csv_rows(path, cols, ([row[c] for c in cols] for row in rows))
