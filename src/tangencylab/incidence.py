"""Tangency-pair counting: brute force, a planar-direction-bin sweep, and integer-exact.

All counters return unordered index pairs (i < j). The brute-force scan is
the canonical oracle; the direction-bin sweep (count_ct_delta_hashed) must
reproduce it exactly and only buys speed. The integer path decides tangency
with no floating error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError
from .families import CircleFamily
from .geometry import ANNULUS_THICKNESS_FACTOR, Rect2, rect_axes, rect_corners

# The vectorized exact-tangency paths stay in int64; coordinate spans above
# this bound switch to Python integers, which cannot overflow.
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


def _unpack_pairs(packed: np.ndarray, n: int) -> np.ndarray:
    """Sorted pairs (i, j), i < j, from their packed keys i n + j.

    Sorting one packed int64 per pair orders the pairs as lexsort on the two
    columns would, in less time and memory.
    """
    packed = np.sort(packed)
    pairs = np.empty((packed.size, 2), dtype=np.int64)
    np.divmod(packed, n, out=(pairs[:, 0], pairs[:, 1]))
    return pairs


# ---------------------------------------------------------------------------
# delta-approximate counting
# ---------------------------------------------------------------------------

# Candidate pairs verified at a time by the direction-bin sweep; bounds its
# transient memory near 20 MB.
_SWEEP_BLOCK = 1 << 18

# Cost model of the sweep, in seconds (2 vCPUs, BLAS on one thread): per
# point and bin (rotate, sort, search), per bin, and per candidate pair
# verified; _SWEEP_DENSITY corrects the uniform-box estimate of candidates.
_COST_POINT, _COST_BIN, _COST_CANDIDATE, _SWEEP_DENSITY = 1.6e-7, 3e-5, 5.5e-8, 3.0


def _check_delta(delta: float) -> None:
    if not (math.isfinite(delta) and delta > 0):
        raise InvalidParamsError("delta: must be finite and positive")


def _gaps(dx: np.ndarray, dy: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Tangency gaps from coordinate differences: the one expression every
    near counter decides by. It is exact under a sign flip of all three
    differences, so both orientations of a pair give the same gap."""
    return np.abs(np.hypot(dx, dy) - np.abs(dz))


def count_ct_delta_bruteforce(family: CircleFamily, delta: float) -> TangencyPairSet:
    """All unordered pairs with tangency gap below delta, by full O(n^2) scan.

    This is the reference implementation every accelerated path is checked
    against.
    """
    _check_delta(delta)
    pts = family.points.astype(float)
    n = pts.shape[0]
    found = [np.empty(0, dtype=np.int64)]
    block = max(1, int(4e6) // max(n, 1))
    for start in range(0, n - 1, block):
        rows = np.arange(start, min(start + block, n - 1))
        ii, jj = np.nonzero(_gaps(*(pts[rows, None, k] - pts[None, :, k] for k in range(3))) < delta)
        ii = rows[ii]
        keep = ii < jj
        found.append(ii[keep] * n + jj[keep])
    return TangencyPairSet(
        pairs=_unpack_pairs(np.concatenate(found), n), delta=delta, family_hash=family.provenance_hash()
    )


def count_ct_delta_hashed(family: CircleFamily, delta: float) -> TangencyPairSet:
    """Near-tangent pairs by a sweep over planar-direction bins; identical pair set to brute force.

    A pair with gap |r - |dz|| below delta, r the planar distance of the
    centres, lies within delta of the light cone along its planar direction
    phi. Planar directions are split into B bins of width alpha = 2 pi / B;
    bin b, centred at theta_b, sees each point through
    s = x cos theta_b + y sin theta_b - z and w = y cos theta_b - x sin theta_b.
    Oriented so that dz >= 0 (by index when dz = 0), a pair is owned by the
    bin of its direction phi and is emitted from that bin only, so it is
    found exactly once. In its own bin, with r <= E from _planar_reach,

        ds in [-delta - E (1 - cos(alpha/2)), delta],   |dw| <= E sin(alpha/2):

    the pair lies in a delta x sqrt(delta E) tangency rectangle when alpha
    is about sqrt(8 delta / E). Each bin sorts the points by (w-cell, s),
    w-cells as wide as the w-reach, and joins each point with searchsorted
    to the s-window of its own cell and the next. Candidates pass a cone
    filter (the bounds above with r < dz + delta in place of E), then the
    gap expression of count_ct_delta_bruteforce, so borderline pairs decide
    identically. Every bound is widened by a rounding margin from the
    largest coordinates, and alpha/2 by 1e-9, so that no rounding, at a bin
    edge or elsewhere, drops a pair.

    Cost: B sorts and searches of the n points, plus one verification per
    candidate; _direction_bins picks B from a cost estimate on n, delta and
    the family's extents. The name is kept from the grid-hash counter the
    sweep replaced, which the acceptance suite and the benchmark call.
    """
    _check_delta(delta)
    pts = family.points.astype(float)
    n = pts.shape[0]
    packed = _direction_sweep(pts, delta, _direction_bins(pts, delta)) if n >= 2 else np.empty(0, np.int64)
    return TangencyPairSet(pairs=_unpack_pairs(packed, n), delta=delta, family_hash=family.provenance_hash())


def _planar_reach(pts: np.ndarray, delta: float) -> float:
    """A bound E on the planar distance r of any near-tangent pair.

    r is at most the planar diameter, itself at most the bounding-box
    diagonal, and below dz + delta <= Z + delta, Z the height span.
    """
    span = pts.max(axis=0) - pts.min(axis=0)
    return min(math.hypot(span[0], span[1]), float(span[2]) + delta)


def _direction_bins(pts: np.ndarray, delta: float) -> int:
    """The bin count B that minimises the sweep's estimated time.

    Candidates per bin are estimated as if the points filled the bounding
    box evenly: the n^2 / 2 pairs times the shares of the s- and w-extents
    that the s-window and two w-cells cover. Few bins mean wide windows and
    many candidates; many bins, a sort and a search of every point each.
    """
    n = pts.shape[0]
    reach = _planar_reach(pts, delta)
    if reach == 0:
        return 1
    span = pts.max(axis=0) - pts.min(axis=0)
    w_extent = math.hypot(span[0], span[1])
    s_extent = w_extent + float(span[2])
    best_bins, best_cost = 1, math.inf
    # bins from 1 up in steps of about sqrt(2), until the s-slack falls below
    # delta / 4 (more bins then only add sorts) or 2^20 bins are reached
    for e in range(41):
        bins = math.ceil(2 ** (e / 2))
        half = math.pi / bins
        s_slack = reach * (1 - math.cos(half))
        s_window = 4 * delta + 2 * s_slack
        w_window = 2 * reach * math.sin(min(half, math.pi / 2))
        share = min(1.0, s_window / s_extent) * min(1.0, w_window / w_extent)
        candidates = n * n / 2 * min(1.0, _SWEEP_DENSITY * share)
        cost = bins * (n * _COST_POINT + _COST_BIN + candidates * _COST_CANDIDATE)
        if cost < best_cost:
            best_bins, best_cost = bins, cost
        if s_slack < delta / 4:
            break
    return best_bins


def _direction_sweep(pts: np.ndarray, delta: float, bins: int) -> np.ndarray:
    """Packed keys i n + j (i < j, unsorted) of the near-tangent pairs of pts.

    Any number of planar-direction bins gives the same pairs;
    count_ct_delta_hashed describes the method.
    """
    n = pts.shape[0]
    x, y, z = (np.ascontiguousarray(pts[:, k]) for k in range(3))
    reach = _planar_reach(pts, delta)
    eps = np.finfo(float).eps
    # a generous multiple of the rounding of any sum of coordinates below
    margin = 64 * eps * (float(np.abs(pts).max(axis=0).sum()) + delta)
    alpha = 2 * math.pi / bins
    half = alpha / 2 + 1e-9
    sin_h, vers_h = math.sin(min(half, math.pi / 2)), 1 - math.cos(min(half, math.pi))
    s_reach = delta + reach * vers_h + margin  # |ds| of a pair its bin owns
    cell = reach * sin_h + margin  # |dw| of a pair its bin owns
    found = [np.empty(0, dtype=np.int64)]
    for b in range(bins):
        theta = (b + 0.5) * alpha - math.pi
        s = x * math.cos(theta) + y * math.sin(theta) - z
        w = y * math.cos(theta) - x * math.sin(theta)
        s -= s.min()
        # one sorted key per point: w-cells are blocks `stride` apart, wider
        # than any s-window, and sorted by s within
        stride = 2 * (float(s.max()) + 2 * s_reach)
        key = np.floor((w - w.min()) / cell) * stride + s
        order = np.argsort(key)
        key = key[order]
        slack = 8 * eps * (float(key[-1]) + stride)
        # each unordered pair within s_reach is a candidate once: in one cell
        # from the point that sorts first, across cells from the lower cell
        first = np.concatenate([np.arange(1, n + 1), np.searchsorted(key, key + (stride - s_reach - slack))])
        stop = np.searchsorted(
            key, np.concatenate([key + (s_reach + slack), key + (stride + s_reach + slack)]), side="right"
        )
        xs, ys, zs, ws, ss = x[order], y[order], z[order], w[order], s[order]
        for ii, jj in _window_blocks(first, stop, n):
            # filter in sorted positions: dz >= 0 orients the bounds, and
            # pairs with dz = 0 pass the s-test either way round
            dz = zs[jj] - zs[ii]
            room = np.abs(dz) + delta  # bounds r
            ds = (ss[jj] - ss[ii]) * np.sign(dz)
            keep = ((ds <= delta + margin) & (ds >= -delta - room * vers_h - margin)
                    & (np.abs(ws[jj] - ws[ii]) <= room * sin_h + margin))
            ii, jj, dz = ii[keep], jj[keep], dz[keep]
            dx, dy = xs[jj] - xs[ii], ys[jj] - ys[ii]
            near = _gaps(dx, dy, dz) < delta
            i, j, dx, dy, dz = order[ii[near]], order[jj[near]], dx[near], dy[near], dz[near]
            # the pair's own bin, from its direction with dz >= 0 (by index
            # when dz = 0); + 0.0 turns -0.0 into 0.0, since arctan2 gives
            # -pi for (-0.0, x < 0) and pi for (0.0, x < 0), and the pair
            # must get one bin whichever way round it was found
            sign = np.where((dz > 0) | ((dz == 0) & (j > i)), 1.0, -1.0)
            phi = np.arctan2(sign * dy + 0.0, sign * dx + 0.0)
            own = np.minimum(np.floor((phi + math.pi) / alpha), bins - 1) == b
            found.append(np.minimum(i, j)[own] * n + np.maximum(i, j)[own])
    return np.concatenate(found)


def _window_blocks(first: np.ndarray, stop: np.ndarray, n: int):
    """Candidate pairs (i, j) of the windows, in blocks of at most _SWEEP_BLOCK pairs.

    Window f holds j in [first[f], stop[f]) with i = f mod n; a window
    larger than a block makes a block of its own.
    """
    counts = stop - first
    ends = np.cumsum(counts)
    f0 = 0
    while f0 < counts.size:
        base = int(ends[f0 - 1]) if f0 else 0
        f1 = max(int(np.searchsorted(ends, base + _SWEEP_BLOCK, side="right")), f0 + 1)
        c = counts[f0:f1]
        total = int(ends[f1 - 1]) - base
        if total:
            yield (np.repeat(np.arange(f0, f1) % n, c),
                   np.arange(total) + np.repeat(first[f0:f1] - (ends[f0:f1] - c - base), c))
        f0 = f1


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
    - Python integers (_ct0_python), for coordinate spans above
      _INT64_SAFE_COORD.

    Points are first taken relative to their per-axis minimum, so a
    translated family takes the same path as the original; a span that
    does not fit in int64 is refused.

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
    # tangency does not change under translation, so only the spans matter
    low = [int(v) for v in pts.min(axis=0)]
    if max(int(v) - lo for v, lo in zip(pts.max(axis=0), low)) >= 2**63:
        raise InvalidParamsError("points: a coordinate span does not fit in int64")
    pts = pts - np.array(low, dtype=np.int64)  # exact: each result fits
    if pts.max() > _INT64_SAFE_COORD:
        found = _ct0_python(pts)
    else:
        Z = int(pts[:, 2].max())
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
    # frexp gives d = m 2^e with m in [0.5, 1), so floor(log2 d) = e - 1
    # exactly; np.log2 rounds up to an integer just below a power of two
    exps = np.frexp(dists)[1].astype(np.int64) - 1
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
