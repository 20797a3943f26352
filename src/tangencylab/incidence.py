"""Tangency-pair counting: brute force, hash-accelerated, and integer-exact.

All counters return unordered index pairs (i < j). The brute-force scan is
the canonical oracle; the hashed path must reproduce it exactly and only
buys speed. The integer path decides tangency with no floating error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError
from .families import CircleFamily, pack_grid_keys
from .geometry import ANNULUS_THICKNESS_FACTOR, Rect2, rect_axes, rect_corners

# The vectorized exact-tangency path stays in int64; coordinates above this
# bound switch to Python integers, which cannot overflow.
_INT64_SAFE_COORD = 2**24

# Coincident points would be tangent with a zero distance, which has no
# dyadic bucket; they can only come from duplicate circles.
_COINCIDENT = "points: coincident points cannot form a tangent pair"


@dataclass
class TangencyPairSet:
    """Unordered near-tangent (or exactly tangent) index pairs of a family.

    pairs has shape (m, 2) with i < j sorted lexicographically. delta is the
    gap threshold used (0 for the exact path). by_distance, when filled,
    partitions the pairs by the dyadic scale of their R^3 distance.
    """

    pairs: np.ndarray
    delta: float
    family_hash: str = ""
    by_distance: dict[float, np.ndarray] | None = None

    def __post_init__(self):
        self.pairs = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2)

    def __len__(self) -> int:
        return self.pairs.shape[0]

    @property
    def ordered_count(self) -> int:
        """Pairs counted with order, matching the squared-family convention."""
        return 2 * len(self)

    def as_set(self) -> set[tuple[int, int]]:
        return {(int(i), int(j)) for i, j in self.pairs}

    def serialize(self, family: CircleFamily) -> str:
        pts = family.points.astype(float)
        blocks = [
            f"# family_hash={self.family_hash or family.provenance_hash()} "
            f"delta={self.delta!r} n_pairs={len(self)}\n"
        ]
        # blocks of pairs, joined as they go, keep the Python objects beside
        # the output few
        for start in range(0, len(self), 4096):
            pairs = self.pairs[start:start + 4096]
            diff = pts[pairs[:, 0]] - pts[pairs[:, 1]]
            # sqrt of the row dot product rounds as np.linalg.norm does per
            # pair; a plain sum of squares does not, nor does np.hypot match
            # math.hypot
            dists = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])
            blocks.append("".join(
                f"{i} {j} {d!r} {abs(math.hypot(dx, dy) - abs(dz))!r}\n"
                for (i, j), (dx, dy, dz), d in zip(pairs.tolist(), diff.tolist(), dists.tolist())
            ))
        return "".join(blocks)


def _canonical(pairs_i, pairs_j) -> np.ndarray:
    if len(pairs_i) == 0:
        return np.empty((0, 2), dtype=np.int64)
    arr = np.column_stack([pairs_i, pairs_j]).astype(np.int64)
    order = np.lexsort((arr[:, 1], arr[:, 0]))
    return arr[order]


# ---------------------------------------------------------------------------
# delta-approximate counting
# ---------------------------------------------------------------------------


def count_ct_delta_bruteforce(family: CircleFamily, delta: float) -> TangencyPairSet:
    """All unordered pairs with tangency gap below delta, by full O(n^2) scan.

    This is the reference implementation every accelerated path is checked
    against.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    pts = family.points.astype(float)
    n = pts.shape[0]
    out_i: list[np.ndarray] = []
    out_j: list[np.ndarray] = []
    if n >= 2:
        block = max(1, int(4e6) // max(n, 1))
        for start in range(0, n - 1, block):
            stop = min(start + block, n - 1)
            rows = np.arange(start, stop)
            dx = pts[rows, None, 0] - pts[None, :, 0]
            dy = pts[rows, None, 1] - pts[None, :, 1]
            dz = pts[rows, None, 2] - pts[None, :, 2]
            gaps = np.abs(np.hypot(dx, dy) - np.abs(dz))
            ii, jj = np.nonzero(gaps < delta)
            keep = rows[ii] < jj
            out_i.append(rows[ii][keep])
            out_j.append(jj[keep])
    pairs = _canonical(np.concatenate(out_i) if out_i else [], np.concatenate(out_j) if out_j else [])
    return TangencyPairSet(pairs=pairs, delta=delta, family_hash=family.provenance_hash())


def count_ct_delta_hashed(family: CircleFamily, delta: float, cell: float | None = None) -> TangencyPairSet:
    """Grid-accelerated near-tangency counting; identical pair set to brute force.

    Points are bucketed into a uniform grid. A near-tangent pair constrains
    planar distance and height difference to agree within delta, so for any
    two occupied cells an interval test on (planar distance range, height
    range) either rules all their pairs out or passes them to exact
    verification with the gap formula. The cell size trades pruning against
    bookkeeping and cannot affect the result.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    pts = family.points.astype(float)
    n = pts.shape[0]
    if n < 2:
        return TangencyPairSet(
            pairs=np.empty((0, 2), dtype=np.int64), delta=delta,
            family_hash=family.provenance_hash(),
        )
    lo = pts.min(axis=0)
    extent = float(max(pts.max(axis=0) - lo)) or 1.0
    if cell is None:
        # delta-sized cells are ideal for pruning but keep the occupied-cell
        # table bounded on fine thresholds.
        cell = max(delta, extent / 48.0)
    idx = np.floor((pts - lo) / cell)
    keys = pack_grid_keys(idx, "cell")
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    uniq_keys, starts = np.unique(sorted_keys, return_index=True)
    ends = np.append(starts[1:], n)
    cell_idx = idx[order[starts]]
    ncells = uniq_keys.shape[0]

    sizes = ends - starts
    out_i: list[np.ndarray] = []
    out_j: list[np.ndarray] = []

    def verify(cands_a: np.ndarray, cands_b: np.ndarray):
        if cands_a.size == 0:
            return
        pa, pb = pts[cands_a], pts[cands_b]
        gaps = np.abs(np.hypot(pa[:, 0] - pb[:, 0], pa[:, 1] - pb[:, 1]) - np.abs(pa[:, 2] - pb[:, 2]))
        keep = gaps < delta
        out_i.append(np.minimum(cands_a[keep], cands_b[keep]))
        out_j.append(np.maximum(cands_a[keep], cands_b[keep]))

    def expand_cross(aa: np.ndarray, bb: np.ndarray):
        """All point pairs across the distinct cell pairs (aa[k], bb[k])."""
        na, nb = sizes[aa], sizes[bb]
        per_pair = na * nb
        offsets = np.concatenate([[0], np.cumsum(per_pair)])
        total = int(offsets[-1])
        chunk = int(4e6)
        for lo_t in range(0, total, chunk):
            hi_t = min(lo_t + chunk, total)
            flat = np.arange(lo_t, hi_t)
            pid = np.searchsorted(offsets, flat, side="right") - 1
            local = flat - offsets[pid]
            ia = order[starts[aa[pid]] + local // nb[pid]]
            ib = order[starts[bb[pid]] + local % nb[pid]]
            verify(ia, ib)

    block = max(1, int(2e6) // max(ncells, 1))
    for cstart in range(0, ncells, block):
        cstop = min(cstart + block, ncells)
        rows = np.arange(cstart, cstop)
        di = np.abs(cell_idx[rows, None, 0] - cell_idx[None, :, 0])
        dj = np.abs(cell_idx[rows, None, 1] - cell_idx[None, :, 1])
        dk = np.abs(cell_idx[rows, None, 2] - cell_idx[None, :, 2])
        pd_min = cell * np.hypot(np.maximum(di - 1.0, 0.0), np.maximum(dj - 1.0, 0.0))
        pd_max = cell * np.hypot(di + 1.0, dj + 1.0)
        hz_min = cell * np.maximum(dk - 1.0, 0.0)
        hz_max = cell * (dk + 1.0)
        feasible = (pd_min - hz_max < delta) & (pd_max - hz_min > -delta)
        # scan each unordered cell pair once
        aa, bb = np.nonzero(feasible)
        aa = rows[aa]
        keep = aa < bb
        expand_cross(aa[keep], bb[keep])

    # within-cell pairs (always feasible: both intervals start at 0)
    for a in np.nonzero(sizes >= 2)[0]:
        members = order[starts[a]:ends[a]]
        ii, jj = np.triu_indices(members.shape[0], k=1)
        verify(members[ii], members[jj])

    pairs = _canonical(
        np.concatenate(out_i) if out_i else [], np.concatenate(out_j) if out_j else []
    )
    return TangencyPairSet(pairs=pairs, delta=delta, family_hash=family.provenance_hash())


# ---------------------------------------------------------------------------
# exact counting for integer families
# ---------------------------------------------------------------------------


def count_ct0_exact(family: CircleFamily, with_bins: bool = True) -> TangencyPairSet:
    """All exactly tangent unordered pairs of an integer family.

    Tangency is decided by the integer identity dx^2 + dy^2 == dz^2, so a
    tangent pair differs by a vector of the integer light cone. Orient each
    pair so that dz > 0 (dz = 0 would force the points to coincide, which is
    refused). Three exact paths give the same pairs and buckets:

    - the Pythagorean stencil (_ct0_stencil) looks each point p up at p + d
      for every cone vector d with 1 <= dz <= Z, where Z is the height span:
      about Z^2 to build the stencil and n |S_Z| log n to look up; |S_Z|
      grows like Z log Z (128 cone vectors at Z = 20, 11,344 at Z = 1024);
    - the all-pairs scan (_ct0_vectorized), n^2 / 2 integer tests;
    - Python integers (_ct0_python), for coordinates above _INT64_SAFE_COORD.

    Dispatch: the stencil runs when 2 Z (4 + bit_length(Z)) <= n and its
    packed keys fit in int64; otherwise the all-pairs scan runs. Z (4 +
    log2 Z) bounds |S_Z| from above (checked up to Z = 4096), and a lookup
    costs about twice an entry of the n^2 scan (33 ns against 15 ns on
    2 vCPUs), so the rule picks the stencil only where it does no more work.
    The integer lattice of side n (Z = n, (n+1)^3 points) takes the
    stencil; the integer clamshell (n = 100, Z = 99) takes the scan.

    by_distance gets the dyadic buckets of the pair distance, |d|^2 = 2 dz^2,
    when requested.
    """
    if not family.is_integer:
        raise TypeError("count_ct0_exact requires an integer-exact family")
    pts = family.points.astype(np.int64)
    n = pts.shape[0]
    if n < 2:
        return TangencyPairSet(
            pairs=np.empty((0, 2), dtype=np.int64), delta=0.0,
            family_hash=family.provenance_hash(), by_distance={} if with_bins else None,
        )
    if np.abs(pts).max() > _INT64_SAFE_COORD:
        found = _ct0_python(pts)
    else:
        Z = int(pts[:, 2].max() - pts[:, 2].min())
        found = _ct0_stencil(pts) if 2 * Z * (4 + Z.bit_length()) <= n else None
        if found is None:
            found = _ct0_vectorized(pts)
    pairs_arr, exps = found
    by_distance = None
    if with_bins:
        by_distance = {float(2.0 ** int(e)): pairs_arr[exps == e] for e in np.unique(exps)}
    return TangencyPairSet(
        pairs=pairs_arr, delta=0.0, family_hash=family.provenance_hash(), by_distance=by_distance
    )


def _dyadic_exponent(dz: int) -> int:
    """floor(log2 |d|) for a cone vector d of height dz, where |d|^2 = 2 dz^2.

    floor(log2(sqrt(v))) == floor(floor(log2(v)) / 2), and bit_length gives
    floor(log2) exactly for integers.
    """
    return ((2 * dz * dz).bit_length() - 1) // 2


def _light_cone_stencil(Z: int, sx: int, sy: int) -> np.ndarray:
    """Integer vectors (dx, dy, dz) with dx^2 + dy^2 == dz^2 and 1 <= dz <= Z.

    Only vectors with |dx| <= sx and |dy| <= sy are kept; no pair of a
    family with planar spans sx, sy can differ by any other.
    """
    heights = np.arange(1, Z + 1, dtype=np.int64)
    widths = 2 * heights + 1  # dx runs over -dz..dz
    dz = np.repeat(heights, widths)
    dx = np.arange(dz.size, dtype=np.int64) - np.repeat(np.cumsum(widths) - widths, widths) - dz
    rest = dz * dz - dx * dx
    # rest < 2^53, so sqrt is exact on squares and the check drops the rest
    dy = np.rint(np.sqrt(rest)).astype(np.int64)
    keep = (dy * dy == rest) & (np.abs(dx) <= sx) & (dy <= sy)
    dx, dy, dz = dx[keep], dy[keep], dz[keep]
    both = dy > 0
    return np.concatenate([
        np.column_stack([dx, dy, dz]), np.column_stack([dx[both], -dy[both], dz[both]])
    ])


def _ct0_stencil(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Tangent pairs and their dyadic exponents by lookup over the cone stencil.

    Coordinates are taken relative to the minimum and packed into one int64
    key per point, with fields wide enough that p + d never carries into a
    neighbouring field for any stencil vector d. Returns None when such keys,
    or the packed pairs below, would not fit in int64.
    """
    n = pts.shape[0]
    rel = pts - pts.min(axis=0)
    sx, sy, sz = (int(v) for v in rel.max(axis=0))
    # fields: x + dx in [-sx, 2 sx], y + sy + dy in [0, 3 sy], z + dz in [0, 2 sz]
    wy, wz = 3 * sy + 1, 2 * sz + 1
    if (2 * sx + 1) * wy * wz >= 2**62 or n >= 2**28:
        return None
    keys = rel[:, 0] * (wy * wz) + (rel[:, 1] + sy) * wz + rel[:, 2]
    order = np.argsort(keys)
    skeys = keys[order]
    if np.any(skeys[1:] == skeys[:-1]):
        raise InvalidParamsError(_COINCIDENT)
    stencil = _light_cone_stencil(sz, sx, sy)
    offsets = stencil @ np.array([wy * wz, wz, 1], dtype=np.int64)
    vector_exps = np.array([_dyadic_exponent(int(dz)) for dz in stencil[:, 2]], dtype=np.int64)
    # each pair found becomes one int64, (i n + j) 64 + its dyadic exponent
    # (below 64, as dz < 2^61 when the keys fit): sorting these orders the
    # pairs as lexsort would, several times faster and in less memory than
    # sorting separate arrays
    found = [np.empty(0, dtype=np.int64)]
    block = max(1, (1 << 21) // n)
    for start in range(0, offsets.size, block):
        # one row per stencil vector; each row is sorted, which searchsorted
        # exploits
        targets = offsets[start:start + block, None] + skeys[None, :]
        at = np.searchsorted(skeys, targets)
        np.minimum(at, n - 1, out=at)
        kk, ii = np.nonzero(skeys[at] == targets)
        lo, hi = order[ii], order[at[kk, ii]]
        found.append((np.minimum(lo, hi) * n + np.maximum(lo, hi)) * 64 + vector_exps[start + kk])
    packed = np.concatenate(found)
    packed.sort()
    exps = packed % 64
    packed //= 64
    pairs = np.empty((packed.size, 2), dtype=np.int64)
    np.divmod(packed, n, out=(pairs[:, 0], pairs[:, 1]))
    return pairs, exps


def _ct0_vectorized(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = pts.shape[0]
    out_pairs: list[np.ndarray] = []
    out_dz: list[np.ndarray] = []
    block = max(1, int(4e6) // max(n, 1))
    for start in range(0, n - 1, block):
        stop = min(start + block, n - 1)
        rows = np.arange(start, stop)
        dx = pts[rows, None, 0] - pts[None, :, 0]
        dy = pts[rows, None, 1] - pts[None, :, 1]
        dz = pts[rows, None, 2] - pts[None, :, 2]
        ii, jj = np.nonzero(dx * dx + dy * dy == dz * dz)
        keep = rows[ii] < jj
        ii, jj = ii[keep], jj[keep]
        out_pairs.append(np.column_stack([rows[ii], jj]))
        out_dz.append(np.abs(dz[ii, jj]))
    # rows ascend block by block and nonzero is row-major, so the pairs come
    # out sorted
    pairs = np.vstack(out_pairs)
    dz = np.concatenate(out_dz)
    if np.any(dz == 0):
        raise InvalidParamsError(_COINCIDENT)
    # one exact exponent per distinct height, broadcast to its pairs
    heights, inverse = np.unique(dz, return_inverse=True)
    exps = np.array([_dyadic_exponent(int(h)) for h in heights], dtype=np.int64)
    return pairs, exps[inverse]


def _ct0_python(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # exact fallback for coordinates beyond the int64-safe range
    rows = [(int(a), int(b), int(c)) for a, b, c in pts]
    pairs = []
    exps = []
    n = len(rows)
    for i in range(n - 1):
        xi, yi, zi = rows[i]
        for j in range(i + 1, n):
            dx = rows[j][0] - xi
            dy = rows[j][1] - yi
            dz = rows[j][2] - zi
            if dx * dx + dy * dy == dz * dz:
                if dz == 0:
                    raise InvalidParamsError(_COINCIDENT)
                pairs.append((i, j))
                exps.append(_dyadic_exponent(dz))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2), np.array(exps, dtype=np.int64)


# ---------------------------------------------------------------------------
# dyadic binning and rectangle lifting
# ---------------------------------------------------------------------------


def bin_dyadic(pairs: TangencyPairSet, family: CircleFamily) -> TangencyPairSet:
    """Fill by_distance with dyadic buckets D = 2^floor(log2 |x_i - x_j|).

    The buckets partition the pair list; a pair lands in bucket D exactly
    when its distance lies in [D, 2D). Coincident points are rejected: they
    can only arise from duplicate circles, which family validation forbids.
    """
    pts = family.points.astype(float)
    if len(pairs) == 0:
        return TangencyPairSet(
            pairs=pairs.pairs, delta=pairs.delta, family_hash=pairs.family_hash, by_distance={}
        )
    diff = pts[pairs.pairs[:, 0]] - pts[pairs.pairs[:, 1]]
    dists = np.linalg.norm(diff, axis=1)
    if np.any(dists == 0.0):
        raise InvalidParamsError(_COINCIDENT)
    exps = np.floor(np.log2(dists)).astype(np.int64)
    by_distance = {float(2.0 ** int(e)): pairs.pairs[exps == e] for e in np.unique(exps)}
    return TangencyPairSet(
        pairs=pairs.pairs, delta=pairs.delta, family_hash=pairs.family_hash, by_distance=by_distance
    )


def lift_rect(rect: Rect2, family: CircleFamily, delta: float) -> np.ndarray:
    """Indices of circles whose 10*delta annulus contains the rectangle.

    The cardinality of the result is the richness of the rectangle. This is
    the vectorized twin of geometry.annulus_contains_rect and is tested
    against it member by member.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    if len(family) == 0:
        return np.empty(0, dtype=np.int64)
    thick = ANNULUS_THICKNESS_FACTOR * delta
    pts = family.points.astype(float)
    centers = pts[:, :2]
    radii = pts[:, 2]
    corners = rect_corners(rect)  # (4, 2)
    d_far = np.linalg.norm(centers[:, None, :] - corners[None, :, :], axis=2).max(axis=1)
    u_long, u_short = rect_axes(rect)
    rel = centers - np.array(rect.center)
    du = np.maximum(np.abs(rel @ u_long) - rect.length / 2.0, 0.0)
    dv = np.maximum(np.abs(rel @ u_short) - rect.width / 2.0, 0.0)
    d_near = np.hypot(du, dv)
    inside = (d_far < radii + thick) & (d_near > radii - thick)
    return np.nonzero(inside)[0].astype(np.int64)
