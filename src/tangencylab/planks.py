"""Enumeration of incomparable cone planks, richness counting, and bucketing.

A plank collection at scale (A, sqrt(A*S), S) is built on a deterministic
lattice: frame angles sampled at spacing 1/sqrt(S), and for each angle a
grid of centers along the frame axes at spacing K times the side lengths.
Lattice planks at the same angle are never K-comparable, but pairs at
adjacent angles can be when their centers nearly coincide, so a greedy
sweep over angles rejects every candidate comparable to an earlier kept
plank. The result is pairwise K-incomparable by construction and maximal
with respect to the candidate lattice.

Whether a lattice plank meets the box is decided by the 15-axis separating
axis test. Along a grid row (fixed indices b, c; index a varies) every
axis projection is linear in a, so the box-meeting cells of a row form one
interval [a_lo, a_hi]. Each slice stores these row extents, found from the
15 linear constraints with the per-cell test run only on the few cells
whose rounding could decide them; listing a slice's cells and asking
whether a cell belongs to it are then index arithmetic.

Collections can be huge (about R^2 planks at S = R), so a collection stores
per-angle row extents plus the sparse rejection set instead of materialized
boxes; slices are regenerated on demand by the same deterministic code
path. Richness of every plank against a family is computed per angle by
snapping each point to the center grid, which is exact because membership
windows never span more than a bounded number of grid cells. Membership is
geometry.point_window everywhere: the direct scan and the grid snap apply
the same window to the same offsets, so they agree on points that lie on a
plank's faces.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptyFamilyError, InvalidParamsError
from .families import Box, CircleFamily, cube_box, pack_grid_keys
from .geometry import (
    Circle3,
    Lightplank,
    PlankFrame,
    comparability_graph,
    containment_window,
    in_window,
    plank_axes,
    point_window,
    tangency_point,
    tangency_rect,
    wrap_angle,
)
from .incidence import count_ct_delta_hashed, lift_rect

# Center-grid indices are signed; they are packed after this offset, so
# each must lie in [-2^20, 2^20). Enumeration scales keep them far inside.
_IDX_OFFSET = 1 << 20


def _pack_idx(idx: np.ndarray) -> np.ndarray:
    return pack_grid_keys(idx + _IDX_OFFSET, "box")


def _box_arrays(box: Box) -> tuple[np.ndarray, np.ndarray]:
    lo = np.array([b[0] for b in box], dtype=float)
    hi = np.array([b[1] for b in box], dtype=float)
    return (lo + hi) / 2.0, (hi - lo) / 2.0


@dataclass
class _RowExtents:
    """The box-meeting grid cells of one slice, one a-interval per grid row.

    Row (b, c) = origin + (i, k) holds the cells a_lo[i, k] <= a <= a_hi[i, k];
    the row is empty when a_lo > a_hi. Rows outside the array hold no cell.
    """

    origin: np.ndarray  # (b, c) index of row (0, 0)
    a_lo: np.ndarray  # (rows along b, rows along c), int64
    a_hi: np.ndarray

    def contains(self, idx: np.ndarray) -> np.ndarray:
        """Mask of the grid indices (n, 3) that are box-meeting cells."""
        nb, nc = self.a_lo.shape
        i = idx[:, 1] - self.origin[0]
        k = idx[:, 2] - self.origin[1]
        inside = (i >= 0) & (i < nb) & (k >= 0) & (k < nc)
        if not inside.any():
            return inside
        i, k = np.where(inside, i, 0), np.where(inside, k, 0)
        a = idx[:, 0]
        return inside & (self.a_lo[i, k] <= a) & (a <= self.a_hi[i, k])


@dataclass
class _SliceSpec:
    """Deterministic description of one angle slice of a collection."""

    theta: float
    frame: PlankFrame
    n_sat: int
    rejected: np.ndarray  # sorted packed keys of greedy-rejected cells
    extents: _RowExtents


@dataclass
class PlankCollection:
    """A pairwise K-incomparable family of A x sqrt(A*B) x B planks.

    B equals the long-scale parameter S for enumerated collections. All
    planks intersect the ambient box.
    """

    K: float
    S: float
    A: float
    B: float
    box: Box
    slices: list[_SliceSpec] = field(default_factory=list)

    @property
    def dims(self) -> np.ndarray:
        return np.array([self.A, math.sqrt(self.A * self.B), self.B])

    @property
    def spacing(self) -> np.ndarray:
        return self.K * self.dims

    @property
    def half_widths(self) -> np.ndarray:
        return self.dims / 2.0

    def __len__(self) -> int:
        return sum(s.n_sat - s.rejected.size for s in self.slices)

    def slice_cells(self, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Kept cells of slice j: (packed keys, grid indices, world centers)."""
        spec = self.slices[j]
        keys, idx, centers = _grid_sat_cells(spec.extents, spec.frame, self.spacing)
        if spec.rejected.size:
            keep = ~np.isin(keys, spec.rejected, assume_unique=True)
            keys, idx, centers = keys[keep], idx[keep], centers[keep]
        return keys, idx, centers

    def iter_slices(self):
        for j in range(len(self.slices)):
            keys, idx, centers = self.slice_cells(j)
            yield j, self.slices[j], keys, centers

    def plank_at(self, j: int, center) -> Lightplank:
        return Lightplank(
            frame=self.slices[j].frame, v=np.asarray(center, dtype=float), A=self.A, B=self.B
        )

    def planks(self) -> list[Lightplank]:
        """Materialize every plank; intended for small collections."""
        out = []
        for j, spec, keys, centers in self.iter_slices():
            for c in centers:
                out.append(Lightplank(frame=spec.frame, v=c, A=self.A, B=self.B))
        return out

    def serialize(self) -> str:
        lines = [
            f"# K={self.K!r} S={self.S!r} A={self.A!r} B={self.B!r} n={len(self)}",
            "# box=" + ",".join(f"{lo!r}:{hi!r}" for lo, hi in self.box),
        ]
        for j, spec, keys, centers in self.iter_slices():
            for c in centers:
                lines.append(
                    f"{spec.theta!r} {float(c[0])!r} {float(c[1])!r} {float(c[2])!r} "
                    f"{self.A!r} {self.B!r}"
                )
        return "\n".join(lines) + "\n"

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.serialize())


# ---------------------------------------------------------------------------
# slice construction
# ---------------------------------------------------------------------------


def _grid_bounds(frame: PlankFrame, spacing, hw, box) -> tuple[np.ndarray, np.ndarray]:
    """Index bounds of grid cells whose plank could touch the box.

    A plank meeting the box has center frame-coordinates inside the box's
    projection interval fattened by the plank half-width on each axis.
    """
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    corners = np.array(
        [[a, b, c] for a in (lo[0], hi[0]) for b in (lo[1], hi[1]) for c in (lo[2], hi[2])]
    )
    proj = corners @ frame.matrix().T
    lo_idx = np.ceil((proj.min(axis=0) - hw) / spacing - 1e-9).astype(np.int64)
    hi_idx = np.floor((proj.max(axis=0) + hw) / spacing + 1e-9).astype(np.int64)
    return lo_idx, np.maximum(hi_idx - lo_idx + 1, 0)


def _sat_axes(U: np.ndarray) -> np.ndarray:
    """The 15 candidate separating axes for an oriented box against an AABB."""
    eyes = np.eye(3)
    crosses = np.cross(eyes[:, None, :], U[None, :, :]).reshape(9, 3)
    return np.vstack([eyes, U, crosses])


def _sat_threshold(axes: np.ndarray, U: np.ndarray, hw: np.ndarray, bh: np.ndarray) -> np.ndarray:
    """Per separating axis, the box radius plus the plank radius plus 1e-9.

    A plank meets the box exactly when its center's projection, less the box
    center's, stays within this on every axis. `_sat_intersects` and
    `_row_extents` both use it, so they decide the same cells.
    """
    return (np.abs(axes) @ bh + np.abs(axes @ U.T) @ hw) + 1e-9


def _sat_intersects(centers: np.ndarray, U: np.ndarray, hw: np.ndarray, box: Box) -> np.ndarray:
    """Exact box/plank intersection via the separating axis test, vectorized."""
    bc, bh = _box_arrays(box)
    axes = _sat_axes(U)
    proj = np.abs((centers - bc) @ axes.T)
    return np.all(proj <= _sat_threshold(axes, U, hw, bh), axis=1)


def _row_extents(frame: PlankFrame, spacing: np.ndarray, hw: np.ndarray, box: Box) -> _RowExtents:
    """Per grid row, the interval of cells that pass the separating axis test.

    On the row (b, c) the projection on SAT axis k of a cell center, less
    the box center, is f_k(a) = alpha_k a + beta_k(b, c), and the test asks
    |f_k(a)| <= t_k for all 15 axes; each constraint is an interval of a,
    and so is their intersection. The intervals are solved once with t_k
    widened by a margin m_k and once narrowed by it. m_k is over a hundred
    times the rounding of f_k here or in the per-cell evaluation, so cells
    of the narrow interval pass the per-cell test and cells outside the wide
    one fail it. The cells between the two are decided by `_sat_intersects`
    itself: usually none; a row's end cell when a face passes within the
    margin of its threshold; a whole row when a face is flat along the row
    and lies within the margin. A row's extent is the hull of its passing
    cells, which in exact arithmetic are contiguous.
    """
    lo_idx, shape = _grid_bounds(frame, spacing, hw, box)
    a0, a1 = int(lo_idx[0]), int(lo_idx[0] + shape[0] - 1)
    U = frame.matrix()
    bc, bh = _box_arrays(box)
    axes = _sat_axes(U)
    t = _sat_threshold(axes, U, hw, bh)
    b = lo_idx[1] + np.arange(shape[1])
    c = lo_idx[2] + np.arange(shape[2])
    alpha = spacing[0] * (axes @ U[0])
    offset = (b[:, None, None] * spacing[1]) * U[1] + (c[None, :, None] * spacing[2]) * U[2] - bc
    beta = offset @ axes.T  # (rows along b, rows along c, 15)
    reach = np.abs(np.stack([lo_idx, lo_idx + shape]) * spacing).max(axis=0).sum()
    margin = 1e-12 * (reach + np.abs(bc).sum()) * np.abs(axes).sum(axis=1)

    def solve(bound: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # cells with |alpha a + beta| <= bound on every axis, within [a0, a1]
        sgn = np.sign(alpha)
        with np.errstate(divide="ignore", invalid="ignore"):
            lo = (-sgn * bound - beta) / alpha
            hi = (sgn * bound - beta) / alpha
        flat_ok = np.abs(beta) <= bound
        lo = np.where(alpha == 0, np.where(flat_ok, -np.inf, np.inf), lo).max(axis=-1)
        hi = np.where(alpha == 0, np.where(flat_ok, np.inf, -np.inf), hi).min(axis=-1)
        lo = np.ceil(np.clip(lo, a0, a1 + 1)).astype(np.int64).ravel()
        hi = np.floor(np.clip(hi, a0 - 1, a1)).astype(np.int64).ravel()
        return lo, hi

    out_lo, out_hi = solve(t + margin)
    in_lo, in_hi = solve(t - margin)
    inner = in_lo <= in_hi
    # undecided cells: below and above the narrow interval, or the whole
    # wide interval when the narrow one is empty
    rows = np.arange(out_lo.size)
    seg_row = np.concatenate([rows, rows])
    seg_lo = np.concatenate([out_lo, np.where(inner, in_hi + 1, 0)])
    seg_hi = np.concatenate([np.where(inner, in_lo - 1, out_hi), np.where(inner, out_hi, -1)])
    row, a = _segment_cells(seg_row, seg_lo, seg_hi)
    a_lo = np.where(inner, in_lo, a1 + 1)
    a_hi = np.where(inner, in_hi, a0 - 1)
    if a.size:
        idx = np.column_stack([a, b[row // c.size], c[row % c.size]])
        ok = _sat_intersects((idx * spacing) @ U, U, hw, box)
        np.minimum.at(a_lo, row[ok], a[ok])
        np.maximum.at(a_hi, row[ok], a[ok])
    return _RowExtents(
        origin=lo_idx[1:].copy(), a_lo=a_lo.reshape(b.size, c.size), a_hi=a_hi.reshape(b.size, c.size)
    )


def _segment_cells(seg_row: np.ndarray, seg_lo: np.ndarray, seg_hi: np.ndarray):
    """(row, a) of every cell of the segments seg_lo <= a <= seg_hi, segment by segment."""
    lens = np.maximum(seg_hi - seg_lo + 1, 0)
    starts = np.cumsum(lens) - lens
    row = np.repeat(seg_row, lens)
    a = np.arange(row.size, dtype=np.int64) + np.repeat(seg_lo - starts, lens)
    return row, a


def _grid_sat_cells(
    ext: _RowExtents, frame: PlankFrame, spacing: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All box-intersecting cells of a slice, sorted by packed key.

    The cells are listed from the row extents; a stable sort on a puts them
    in lexicographic (a, b, c) order, which is packed-key order.
    """
    nb, nc = ext.a_lo.shape
    row, a = _segment_cells(np.arange(nb * nc), ext.a_lo.ravel(), ext.a_hi.ravel())
    order = np.argsort(a, kind="stable")
    row, a = row[order], a[order]
    idx = np.column_stack([a, ext.origin[0] + row // nc, ext.origin[1] + row % nc])
    centers = (idx * spacing) @ frame.matrix()
    return _pack_idx(idx), idx, centers


# ---------------------------------------------------------------------------
# greedy enumeration
# ---------------------------------------------------------------------------


def enumerate_incomparable(
    R: float, S: float | None = None, K: float = 2.0, box: Box | None = None, A: float = 1.0
) -> PlankCollection:
    """Greedy maximal lattice of pairwise K-incomparable planks at scale S.

    Angles are sampled at spacing S^(-1/2); centers tile the frame axes at
    spacing K times the side lengths. Candidates comparable to an earlier
    kept plank are rejected, so the collection is pairwise K-incomparable,
    and every lattice candidate is comparable to some member. At S = R the
    cardinality lands within a small constant factor of R^2.
    """
    if S is None:
        S = float(R)
    if S > R * (1 + 1e-12) or S < 1:
        raise InvalidParamsError("S: need 1 <= S <= R")
    if K < 1:
        raise InvalidParamsError("K: need K >= 1")
    if box is None:
        box = cube_box(R)

    coll = PlankCollection(K=K, S=float(S), A=A, B=float(S), box=box)
    spacing, hw = coll.spacing, coll.half_widths
    T = int(math.ceil(2.0 * math.pi * math.sqrt(S)))
    step = 2.0 * math.pi / T
    thetas = [wrap_angle(-math.pi + step * j) for j in range(T)]
    frames = [plank_axes(t) for t in thetas]
    window = _comparability_window(step, T, hw, K)

    cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    specs: list[_SliceSpec] = []
    for j in range(T):
        extents = _row_extents(frames[j], spacing, hw, box)
        keys, _, centers = _grid_sat_cells(extents, frames[j], spacing)
        kept = np.ones(keys.size, dtype=bool)
        for j2 in _earlier_neighbors(j, T, window):
            u_keys, u_centers, u_kept = cache[j2]
            if keys.size and u_keys.size:
                hits = _comparable_hits(
                    keys, centers, frames[j], u_keys, u_centers, u_kept, frames[j2], spacing, hw, K
                )
                kept &= ~hits
        specs.append(
            _SliceSpec(
                theta=thetas[j], frame=frames[j], n_sat=int(keys.size), rejected=keys[~kept],
                extents=extents,
            )
        )
        cache[j] = (keys, centers, kept)
        _evict(cache, j, T, window)
    coll.slices = specs
    return coll


def _evict(cache: dict, j: int, T: int, window: int):
    # later slices look back `window` slices; keep the first `window` slices
    # for the wraparound comparisons
    for jj in list(cache):
        if jj <= j - window and jj >= window:
            del cache[jj]


def _earlier_neighbors(j: int, T: int, window: int) -> list[int]:
    out = list(range(max(0, j - window), j))
    for j2 in range(0, window - (T - 1 - j)):  # wraparound partners
        if j2 < j and j2 not in out:
            out.append(j2)
    return out


def _comparability_window(step: float, T: int, hw: np.ndarray, K: float) -> int:
    """The last angle-index gap before the first at which no two lattice planks are comparable.

    Containment needs a containment window with no negative axis; the
    window depends only on the angle gap, and serves both directions, so
    only the gaps below the first with a negative axis are visited. T - 1
    when no gap in 1..T-1 has one.
    """
    feasible = np.all(containment_window(step * np.arange(1, T), hw, K) >= 0, axis=-1)
    return T - 1 if feasible.all() else int(np.argmin(feasible))


def _containment_hits(
    inner_centers: np.ndarray,
    inner_frame: PlankFrame,
    outer_frame: PlankFrame,
    spacing: np.ndarray,
    hw: np.ndarray,
    K: float,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Inner planks contained in the K-dilation of some outer lattice plank.

    Returns (mask over inner_centers, outer grid indices (h, 3)) or None if
    the frame pair rules containment out entirely. Containment is a
    per-axis containment window around the outer grid; the window is below
    half the spacing, making the nearest grid point the only candidate.
    """
    window = containment_window(inner_frame.theta - outer_frame.theta, hw, K)
    if np.any(window < 0):
        return None
    coords = inner_centers @ outer_frame.matrix().T
    k_cand = np.rint(coords / spacing)
    ok = in_window(coords - k_cand * spacing, window)
    return ok, k_cand[ok].astype(np.int64)


def _comparable_hits(
    v_keys: np.ndarray,
    v_centers: np.ndarray,
    v_frame: PlankFrame,
    u_keys: np.ndarray,
    u_centers: np.ndarray,
    u_kept: np.ndarray,
    u_frame: PlankFrame,
    spacing: np.ndarray,
    hw: np.ndarray,
    K: float,
) -> np.ndarray:
    """Candidates of the v-slice comparable to a kept plank of the u-slice."""
    hits = np.zeros(v_centers.shape[0], dtype=bool)

    # v contained in the K-dilation of a kept u-plank
    res = _containment_hits(v_centers, v_frame, u_frame, spacing, hw, K)
    if res is not None:
        ok, cells = res
        if ok.any():
            target = _pack_idx(cells)
            pos = np.searchsorted(u_keys, target)
            pos_ok = pos < u_keys.size
            safe = np.where(pos_ok, pos, 0)
            found = pos_ok & (u_keys[safe] == target) & u_kept[safe]
            hits[np.nonzero(ok)[0][found]] = True

    # a kept u-plank contained in the K-dilation of v
    kept_centers = u_centers[u_kept]
    if kept_centers.shape[0]:
        res = _containment_hits(kept_centers, u_frame, v_frame, spacing, hw, K)
        if res is not None:
            ok, cells = res
            if ok.any():
                hits |= np.isin(v_keys, _pack_idx(cells))
    return hits


def verify_pairwise_incomparable(coll: PlankCollection) -> int:
    """Count comparable unordered pairs in the collection (0 when valid).

    Exhaustive over all plank pairs, organized by slice pair so the
    containment window is computed once per frame pair; it serves both
    directions. Used by the exhaustive acceptance check at small R.
    """
    thetas, mats, cents = [], [], []
    for j, spec, keys, centers in coll.iter_slices():
        thetas.append(spec.theta)
        mats.append(spec.frame.matrix())
        cents.append(centers)
    hw, K = coll.half_widths, coll.K
    bad = 0
    for a in range(len(cents)):
        for b in range(a, len(cents)):
            ca, cb = cents[a], cents[b]
            if ca.shape[0] == 0 or cb.shape[0] == 0:
                continue
            window = containment_window(thetas[b] - thetas[a], hw, K)
            if np.any(window < 0):
                continue
            proj_b_in_a = cb @ mats[a].T
            proj_a_in_a = ca @ mats[a].T
            proj_b_in_b = cb @ mats[b].T
            proj_a_in_b = ca @ mats[b].T
            for start in range(0, cb.shape[0], 512):
                sl = slice(start, start + 512)
                in_a = in_window(proj_a_in_a[:, None, :] - proj_b_in_a[None, sl, :], window)
                in_b = in_window(proj_a_in_b[:, None, :] - proj_b_in_b[None, sl, :], window)
                comparable = in_a | in_b
                if a == b:
                    rows = np.arange(ca.shape[0])[:, None]
                    cols = start + np.arange(comparable.shape[1])[None, :]
                    comparable &= rows < cols  # unordered pairs once
                bad += int(comparable.sum())
    return bad


# ---------------------------------------------------------------------------
# richness
# ---------------------------------------------------------------------------


def richness(plank: Lightplank, family: CircleFamily, K: float = 1.0) -> int:
    """Number of family points in the K-dilation of the plank (direct scan)."""
    if len(family) == 0:
        return 0
    offsets = (family.points.astype(float) - plank.v) @ plank.frame.matrix().T
    return int(in_window(offsets, point_window(plank.half_widths(), K)).sum())


def _assign_points(
    coll: PlankCollection, j: int, pts: np.ndarray, K_rich: float
) -> tuple[np.ndarray, np.ndarray]:
    """(point index, packed plank key) incidences for slice j.

    Points snap to the center grid; the membership window w of
    point_window(hw, K_rich) holds at most floor(2 w / spacing) + 1 grid
    cells per axis, so scanning that many offsets from the lowest is exact.
    Distinct offsets give a point distinct cells, so no incidence repeats.
    Cells outside the enumeration (outside the slice's row extents, or
    greedy rejected) are dropped.
    """
    spec = coll.slices[j]
    U = spec.frame.matrix()
    spacing = coll.spacing
    window = point_window(coll.half_widths, K_rich)
    coords = pts @ U.T
    base = np.ceil((coords - window) / spacing).astype(np.int64)
    reach = int(math.floor(np.max(2.0 * window / spacing) + 1e-9)) + 1
    pt_idx_out, key_out = [], []
    rejected = spec.rejected
    for oa in range(reach):
        for ob in range(reach):
            for oc in range(reach):
                cand = base + np.array([oa, ob, oc])
                ok = in_window(coords - cand * spacing, window)
                if not ok.any():
                    continue
                cells = cand[ok]
                ok2 = spec.extents.contains(cells)
                if not ok2.any():
                    continue
                keys = _pack_idx(cells[ok2])
                pt_ids = np.nonzero(ok)[0][ok2]
                if rejected.size:
                    good = ~np.isin(keys, rejected)
                    keys, pt_ids = keys[good], pt_ids[good]
                pt_idx_out.append(pt_ids)
                key_out.append(keys)
    if not pt_idx_out:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(pt_idx_out), np.concatenate(key_out)


def slice_counts(coll: PlankCollection, pts: np.ndarray, K_rich: float):
    """Per slice, (sorted packed keys, point counts) of the planks holding a point.

    The one pass over a collection's slices that every richness count runs.
    """
    for j in range(len(coll.slices)):
        yield np.unique(_assign_points(coll, j, pts, K_rich)[1], return_counts=True)


@dataclass
class RichnessTable:
    """Dyadic richness histogram of a plank collection against a family.

    mu_buckets maps dyadic mu to the number of planks whose richness lies in
    [mu, 2 mu); only planks with richness >= 1 are bucketed, and n_rich
    counts them.
    """

    mu_buckets: dict[int, int]
    n_rich: int
    max_richness: int

    def serialize(self) -> str:
        lines = ["# mu count_planks"]
        for mu in sorted(self.mu_buckets):
            lines.append(f"{mu} {self.mu_buckets[mu]}")
        return "\n".join(lines) + "\n"


def _dyadic_floor(value: int) -> int:
    """2^floor(log2 value) for an integer value >= 1, exactly."""
    return 1 << (value.bit_length() - 1)


def add_dyadic_counts(buckets: dict[int, int], counts: np.ndarray) -> None:
    """Add richness counts (each >= 1) to their buckets mu = 2^floor(log2 count)."""
    values, n = np.unique(counts, return_counts=True)
    for value, k in zip(values.tolist(), n.tolist()):
        mu = _dyadic_floor(value)
        buckets[mu] = buckets.get(mu, 0) + k


def mu_buckets(coll: PlankCollection, family: CircleFamily, K: float = 1.0) -> RichnessTable:
    """Bucket every plank of the collection by dyadic richness against X."""
    buckets: dict[int, int] = {}
    n_rich = max_rich = 0
    for keys, counts in slice_counts(coll, family.points.astype(float), K):
        n_rich += keys.size
        max_rich = max(max_rich, int(counts.max(initial=0)))
        add_dyadic_counts(buckets, counts)
    return RichnessTable(mu_buckets=buckets, n_rich=n_rich, max_richness=max_rich)


# ---------------------------------------------------------------------------
# lifted planks of tangency witnesses
# ---------------------------------------------------------------------------


def pair_plank(x: Circle3, y: Circle3, delta: float, length: float) -> Lightplank:
    """The thin plank carrying a near-tangent pair.

    A tangent pair separates along a light ray, which is the long axis of
    the cone frame at the angle opposite the planar direction from the
    smaller toward the larger circle. The plank is delta thick, `length`
    long, centered at the pair midpoint, so for pair distances below
    `length` both endpoints lie inside it.
    """
    p, q = x.as_point(), y.as_point()
    if x.radius > y.radius or (x.radius == y.radius and tuple(x.center) <= tuple(y.center)):
        big, small = p, q
    else:
        big, small = q, p
    w = big[:2] - small[:2]
    norm = float(np.hypot(w[0], w[1]))
    if norm == 0.0:
        raise ValueError("concentric pair has no carrying plank")
    theta = wrap_angle(math.atan2(w[1], w[0]) + math.pi)
    return Lightplank(frame=plank_axes(theta), v=(p + q) / 2.0, A=delta, B=length)


def rect_plank(
    z_star: np.ndarray, u: np.ndarray, delta: float, radius_lo: float, radius_hi: float
) -> Lightplank:
    """The lifted plank of circles whose annulus can contain a rectangle.

    Circles tangent at z_star with radial direction u have centers on the
    ray z_star - r u, so their encodings fill a segment along the cone
    direction at the angle of -u. The plank spans the family's radius range
    along that direction and is delta long transversally.
    """
    theta = wrap_angle(math.atan2(-u[1], -u[0]))
    r_mid = (radius_lo + radius_hi) / 2.0
    span = max(radius_hi - radius_lo, delta)
    v = np.array([z_star[0] - r_mid * u[0], z_star[1] - r_mid * u[1], r_mid])
    # A > B here: long along the light ray, delta across
    return Lightplank(frame=plank_axes(theta), v=v, A=math.sqrt(2.0) * span, B=delta)


@dataclass
class BilinearRichResult:
    """Outcome of the two-family rich-rectangle count."""

    count: int
    rhs: float
    ratio: float
    n_cross_pairs: int
    rects: list


def bilinear_rich(
    B_fam: CircleFamily,
    W_fam: CircleFamily,
    delta: float,
    mu: int,
    nu: int,
    K: float = 2.0,
) -> BilinearRichResult:
    """Count rectangles rich for both families, against the bilinear bound.

    Rectangles come from cross near-tangent pairs, are kept when their lift
    reaches mu circles of the first family and nu of the second, and are
    deduplicated by K-incomparability of their lifted planks. The reported
    ratio divides the count by (|B||W|/(mu nu))^(3/4) + |B|/mu + |W|/nu.

    The cross pairs, in (i, j) order, are the near sweep's pairs of B
    followed by W with i in B and j in W: the gap is exact under a sign flip
    of the differences, so a scan of B against W finds the same. The lifted
    planks share one shape, so the dedupe walks their comparability graph:
    a candidate is kept exactly when none of its earlier neighbours is, as
    a scan against every kept plank would decide.
    """
    if len(B_fam) == 0 or len(W_fam) == 0:
        raise EmptyFamilyError("bilinear count needs two nonempty families")
    if not (math.isfinite(delta) and delta > 0):
        raise InvalidParamsError("delta: must be finite and positive")
    if mu < 1 or nu < 1:
        raise InvalidParamsError("mu, nu: richness thresholds must be >= 1")
    nb = len(B_fam)
    pts = np.vstack([B_fam.points.astype(float), W_fam.points.astype(float)])
    scale = max(B_fam.scale_R, W_fam.scale_R)
    d_bw = _set_distance(pts[:nb], pts[nb:])
    if not (scale / 20.0 <= d_bw <= 20.0 * scale):
        warnings.warn(
            f"family distance {d_bw:.3g} is not comparable to the scale {scale:.3g}",
            stacklevel=2,
        )
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    both = CircleFamily(pts, scale, 0.0, tuple(zip(lo.tolist(), hi.tolist())), {})
    pairs = count_ct_delta_hashed(both, delta).pairs
    cross = pairs[(pairs[:, 0] < nb) & (pairs[:, 1] >= nb)]
    rects, planks = [], []
    for i, j in cross.tolist():
        ci = B_fam.circle(i)
        cj = W_fam.circle(j - nb)
        if ci.center == cj.center:
            continue
        rect = tangency_rect(ci, cj, delta)
        if len(lift_rect(rect, B_fam, delta)) < mu or len(lift_rect(rect, W_fam, delta)) < nu:
            continue
        rects.append(rect)
        planks.append(rect_plank(*tangency_point(ci, cj), delta, float(lo[2]), float(hi[2])))

    m = len(planks)
    hw = planks[0].half_widths() if planks else np.zeros(3)
    earlier, later, _, _ = comparability_graph(
        np.array([P.frame.theta for P in planks]), np.array([P.v for P in planks]).reshape(m, 3),
        np.array([P.frame.matrix() for P in planks]).reshape(m, 3, 3), hw, K,
    )
    edge_start = np.searchsorted(later, np.arange(m + 1))
    kept = np.zeros(m, dtype=bool)
    for t in range(m):
        kept[t] = not kept[earlier[edge_start[t]:edge_start[t + 1]]].any()
    rects = [r for r, k in zip(rects, kept) if k]
    rhs = (len(B_fam) * len(W_fam) / (mu * nu)) ** 0.75 + len(B_fam) / mu + len(W_fam) / nu
    return BilinearRichResult(
        count=len(rects), rhs=rhs, ratio=len(rects) / rhs, n_cross_pairs=int(cross.shape[0]),
        rects=rects,
    )


def _set_distance(a: np.ndarray, b: np.ndarray) -> float:
    tree = cKDTree(b)
    d, _ = tree.query(a, k=1)
    return float(np.min(d))
