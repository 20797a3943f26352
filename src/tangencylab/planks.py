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
path.

The greedy compares slices through comparability patterns. plank_axes(t)
is one base frame turned by t about the vertical axis, so the frame change
from slice j to slice j - g is the same for every j up to rounding, and
whether cell v of slice j and cell u of slice j - g are comparable depends
on (v, u, g) alone. `_comparability_patterns` lists, once per feasible gap,
the index pairs within the containment window widened by a margin that
provably covers the per-slice rounding (`_pattern_margin`), in both
directions, scanning in blocks the union of the row extents of the slices
that the gap pairs. Each slice then runs the exact in_window test only on
the pattern pairs in its own rows whose other end is a kept plank of slice
j - g. No slice lists its cells; its candidate count is the sum of its row
lengths.

The pattern scan and the richness count ask a center grid one question:
which cells have their center within a per-axis window of a point.
`_window_cells` lists the cells one axis at a time, narrowest window share
first, taking on each axis the offsets -r..r around the nearest cell,
r = floor(w / s + 1/2), which is exact: no cell farther lies in the window.
`_kept` keeps the cells inside the row extents and not rejected, and gives
each its dense id in the slice. The pattern scan asks it of plank centers
with the widened containment window, below half a spacing, so r = 0; the
richness count asks it of family points with geometry.point_window, and
counts by a bincount over ids. Membership is point_window everywhere: the
direct scan and the grid snap apply the same window to the same offsets, so
they agree on points that lie on a plank's faces.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import ConcentricError, EmptyFamilyError, InvalidParamsError, check_dilation, check_positive
from .families import Box, CircleFamily, cube_box, pack_grid_keys, unpack_grid_keys
from .geometry import (
    Lightplank,
    PlankBatch,
    PlankFrame,
    comparability_graph,
    containment_window,
    expand_ranges,
    frame_coords,
    in_window,
    plank_axes,
    point_window,
    range_blocks,
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


def _unpack_idx(keys: np.ndarray) -> np.ndarray:
    return unpack_grid_keys(keys) - _IDX_OFFSET


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

    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(first dense id, cell count) of each row, rows in row-major order."""
        lengths = np.maximum(self.a_hi - self.a_lo + 1, 0).ravel()
        return np.cumsum(lengths) - lengths, lengths

    @property
    def n_cells(self) -> int:
        return int(self._rows()[1].sum())

    def cell_ids(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(mask, dense id) of grid indices (n, 3): which are box-meeting cells, and their ids.

        Cell (a, b, c) of row r = (b, c) has id start[r] + a - a_lo[r]; others get id 0.
        """
        nb, nc = self.a_lo.shape
        i, k = idx[:, 1] - self.origin[0], idx[:, 2] - self.origin[1]
        inside = (i >= 0) & (i < nb) & (k >= 0) & (k < nc)
        row = np.where(inside, i * nc + k, 0)
        a = idx[:, 0] - self.a_lo.ravel()[row]
        starts, lengths = self._rows()
        inside &= (a >= 0) & (a < lengths[row])
        return inside, np.where(inside, starts[row] + a, 0)

    def cells(self, ids: np.ndarray) -> np.ndarray:
        """Grid indices (n, 3) of dense cell ids: the inverse of cell_ids."""
        starts = self._rows()[0]
        row = np.searchsorted(starts, ids, side="right") - 1
        b, c = np.divmod(row, self.a_lo.shape[1])
        a = self.a_lo.ravel()[row] + ids - starts[row]
        return np.column_stack([a, b + self.origin[0], c + self.origin[1]])


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
        keep = _kept(spec, idx)[0]
        return keys[keep], idx[keep], centers[keep]

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
        return [self.plank_at(j, c) for j, _, _, centers in self.iter_slices() for c in centers]

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
    seg_lo = np.concatenate([out_lo, np.where(inner, in_hi + 1, 0)])
    seg_hi = np.concatenate([np.where(inner, in_lo, out_hi + 1), np.where(inner, out_hi + 1, 0)])
    row, a = expand_ranges(np.tile(np.arange(out_lo.size), 2), seg_lo, seg_hi)
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


def _grid_sat_cells(
    ext: _RowExtents, frame: PlankFrame, spacing: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All box-intersecting cells of a slice, sorted by packed key.

    The cells are listed from the row extents; a stable sort on a puts them
    in lexicographic (a, b, c) order, which is packed-key order.
    """
    nb, nc = ext.a_lo.shape
    row, a = expand_ranges(np.arange(nb * nc), ext.a_lo.ravel(), ext.a_hi.ravel() + 1)
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

    Slice j's candidates are tested against the kept planks of slice j - g
    at each feasible angle gap g, through that gap's comparability pattern:
    the index pairs `_comparability_patterns` found once for all slices.
    """
    if S is None:
        S = float(R)
    check_positive("R", R)
    if not 1 <= S <= R * (1 + 1e-12):
        raise InvalidParamsError("S: need 1 <= S <= R")
    check_positive("A", A)
    check_dilation(K)
    if box is None:
        box = cube_box(R)

    coll = PlankCollection(K=K, S=float(S), A=A, B=float(S), box=box)
    spacing, hw = coll.spacing, coll.half_widths
    T = int(math.ceil(2.0 * math.pi * math.sqrt(S)))
    step = 2.0 * math.pi / T
    thetas = [wrap_angle(-math.pi + step * j) for j in range(T)]
    frames = [plank_axes(t) for t in thetas]
    gaps = _comparable_gaps(step, T, hw, K)
    extents = [_row_extents(f, spacing, hw, box) for f in frames]
    patterns = _comparability_patterns(extents, step, gaps, spacing, hw, K)

    for j in range(T):
        rows = _row_keys(*_extent_rows(extents[j]))
        hits = [np.empty((0, 3), dtype=np.int64)]
        for g in gaps[gaps <= j].tolist():
            window = containment_window(thetas[j] - thetas[j - g], hw, K)
            for pattern in patterns[g]:
                hits.append(pattern.hits(rows, frames[j], coll.slices[j - g], spacing, window))
        coll.slices.append(
            _SliceSpec(
                theta=thetas[j], frame=frames[j], n_sat=extents[j].n_cells,
                rejected=np.unique(_pack_idx(np.concatenate(hits))), extents=extents[j],
            )
        )
    return coll


def _comparable_gaps(step: float, T: int, hw: np.ndarray, K: float) -> np.ndarray:
    """The angle-index gaps in 1..T-1 at which two lattice planks can be comparable.

    Containment needs a containment window with no negative axis; the
    window depends only on the angle gap, is even in it, and serves both
    directions. The feasible gaps need not run from 1: turning the frame by
    pi swaps its long and short axes, so when S is below about K the gaps
    near T / 2 can be feasible while gap 1 is not.
    """
    feasible = np.all(containment_window(step * np.arange(1, T), hw, K) >= 0, axis=-1)
    return np.flatnonzero(feasible) + 1


def _window_cells(
    coords: np.ndarray, spacing: np.ndarray, window: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(row, grid index) of every center-grid cell whose center is in_window of a point.

    coords are points (n, 3) in the grid's frame. The axes are tested one at
    a time, narrowest share w / s first (ties in axis order), each later one
    only on the (row, cell) pairs that passed the earlier ones. On an axis a
    cell within the window lies at most w / s + 1/2 cells from the nearest
    one, so the offsets -r..r around it, r = floor(w / s + 1/2), hold every
    such cell. in_window's test |c - k s| <= w is taken per axis and offset;
    a negative axis admits none. Each (row, cell) is listed once.
    """
    row, idx = None, {}
    for ax in np.argsort(window / spacing, kind="stable").tolist():
        s, w = spacing[ax], window[ax]
        r = max(int(math.floor(w / s + 0.5 + 1e-9)), 0)
        c = coords[:, ax] if row is None else coords[row, ax]
        near = np.rint(c / s)
        hits = [np.flatnonzero(np.abs(c - (near + off) * s) <= w) for off in range(-r, r + 1)]
        t = np.concatenate(hits)
        row, idx = t if row is None else row[t], {a: col[t] for a, col in idx.items()}
        idx[ax] = near[t] + np.repeat(np.arange(-r, r + 1), [h.size for h in hits])
    return row, np.column_stack([idx[0], idx[1], idx[2]]).astype(np.int64)


def _kept(spec: _SliceSpec, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mask, dense id) of the grid indices (n, 3) that are kept planks of the slice."""
    kept, ids = spec.extents.cell_ids(idx)
    if spec.rejected.size and kept.any():
        # a mask over the slice's ids, built per call: kept on the collection,
        # it would hold a byte per candidate of every slice at once
        keep = np.ones(spec.n_sat, dtype=bool)
        keep[spec.extents.cell_ids(_unpack_idx(spec.rejected))[1]] = False
        kept &= keep[ids]
    return kept, ids


# Domain cells are scanned for the comparability patterns this many at a time.
_PATTERN_BLOCK = 1 << 15


def _extent_rows(ext: _RowExtents) -> tuple[np.ndarray, ...]:
    """(b, c, a_lo, a_hi) of the nonempty rows of a slice, in row-major order."""
    i, k = np.nonzero(ext.a_lo <= ext.a_hi)
    return ext.origin[0] + i, ext.origin[1] + k, ext.a_lo[i, k], ext.a_hi[i, k]


def _domain_rows(extents: list[_RowExtents]) -> tuple[np.ndarray, ...]:
    """The union of the slices' row extents as (b, c, a_lo, a_hi) intervals.

    Intervals of one row that overlap or abut are merged, so every cell of
    the union lies in exactly one interval; intervals come in row-major
    (b, c, a) order.
    """
    b, c, lo, hi = (np.concatenate(part) for part in zip(*map(_extent_rows, extents)))
    order = np.lexsort((lo, c, b))
    b, c, lo, hi = b[order], c[order], lo[order], hi[order]
    new_row = np.ones(b.size, dtype=bool)
    new_row[1:] = (b[1:] != b[:-1]) | (c[1:] != c[:-1])
    # running max of a_hi within each row: lifting row r by r * 2^22 keeps
    # each row above every earlier one (indices lie in [-2^20, 2^20))
    lift = np.cumsum(new_row) << 22
    reach = np.maximum.accumulate(hi + lift) - lift
    start = new_row.copy()
    start[1:] |= lo[1:] > reach[:-1] + 1
    first = np.flatnonzero(start)
    return b[first], c[first], lo[first], np.maximum.reduceat(hi, first)


def _row_keys(b, c, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Row-major (b, c, a) keys of the first and last cell of each interval."""
    return _pack_idx(np.column_stack([b, c, lo])), _pack_idx(np.column_stack([b, c, hi]))


@dataclass
class _Pattern:
    """Candidate (v cell, u cell) pairs of one direction at one angle gap, sorted by v cell.

    v is a cell of the later slice j, u of the earlier slice j - g. Forward
    pairs ask whether the v plank lies in the K-dilation of the u plank,
    reverse pairs the converse. v_keys are row-major keys, _pack_idx of
    (b, c, a), so the pairs whose v cell lies in one a-interval of a row are
    one run of the array.
    """

    forward: bool
    v_keys: np.ndarray
    u_keys: np.ndarray

    def hits(self, rows, v_frame: PlankFrame, u_spec: _SliceSpec, spacing, window) -> np.ndarray:
        """The v cells (n, 3) in the row intervals `rows` comparable to a kept u plank."""
        first = np.searchsorted(self.v_keys, rows[0], side="left")
        last = np.searchsorted(self.v_keys, rows[1], side="right")
        _, pos = expand_ranges(np.arange(first.size), first, last)
        u = _unpack_idx(self.u_keys[pos])
        kept = _kept(u_spec, u)[0]
        v, u = _unpack_idx(self.v_keys[pos[kept]])[:, [2, 0, 1]], u[kept]
        # the exact test: the inner plank lies in the K-dilation of the outer
        # one exactly when its center, in the outer frame, is in_window
        if self.forward:
            inner, outer, frames = v, u, (v_frame, u_spec.frame)
        else:
            inner, outer, frames = u, v, (u_spec.frame, v_frame)
        coords = _slice_pair_coords(inner, *frames, spacing)
        return v[in_window(coords - outer * spacing, window)]


def _pattern_frame(angle: float) -> np.ndarray:
    """U(0) U(angle)^T: the frame change from a slice to the slice `angle` below it.

    plank_axes(t) is plank_axes(0) turned by t about the vertical axis, so
    U(t - angle) U(t)^T equals this for every t.
    """
    return plank_axes(0.0).matrix() @ plank_axes(angle).matrix().T


def _pattern_margin(extents: list[_RowExtents], spacing, hw, K: float) -> float:
    """The window widening m that covers per-slice rounding, 1e-9 (1 + reach).

    reach = max |idx * spacing|_1 over the slices' cells + (K + 1) |hw|_1.
    Let u = 2^-53. A slice pair at gap g takes its angle difference from
    thetas that each carry under 8 pi u of rounding (wrap_angle of -pi +
    step j), and the pattern takes g * step, rounded once: they differ by
    under 60 u, and by under 70 u once the difference itself is rounded.
    The rotation U0 Rz(t) U0^T moves a vector x by at most |dt| |x|. The
    float frames are within 4 u of the exact ones per entry, their product
    within 14 u, and each 3-term product rounds by at most 3 u |x|_1
    (gamma_3). So the slice's two frame products put x within 115 u |x|_1
    of the pattern's single product. containment_window is Lipschitz 1 in
    the gap per entry of M(g), so the two windows differ by under 90 u
    |hw|_1, plus 8 u (K + 1) |hw|_1 of their own rounding; the comparisons
    add 2 u of what they compare. The sum is under 250 u reach < 3e-14
    reach, which m exceeds by more than 10^4: every pair the slice's exact
    test accepts is in the pattern.
    """
    reach = 0.0
    for ext in extents:
        b, c, lo, hi = _extent_rows(ext)
        coords = np.maximum(np.abs(lo), np.abs(hi)) * spacing[0] + np.abs(b) * spacing[1]
        reach = max(reach, float((coords + np.abs(c) * spacing[2]).max(initial=0.0)))
    return 1e-9 * (1.0 + reach + (K + 1.0) * float(np.sum(hw)))


def _comparability_patterns(extents, step: float, gaps, spacing, hw, K: float) -> dict:
    """Per feasible gap g, the (forward, reverse) _Patterns shared by every slice pair.

    The frame change from slice j to slice j - g is `_pattern_frame(g step)`
    up to rounding, whatever j is, so which cells can be comparable depends
    on the index pair and g alone. Forward pairs are a v cell whose center,
    in the u frame, is within the containment window plus `_pattern_margin`
    of a u cell's; the v cells scanned are the union of the row extents of
    the slices g..T-1, the v slices at this gap. Reverse pairs are a u cell
    within it of a v cell, in the v frame, scanning the u slices 0..T-1-g.
    Each is one _window_cells pass per block of scanned cells.
    """
    margin = _pattern_margin(extents, spacing, hw, K)
    T = len(extents)
    patterns = {}
    for g in gaps:
        frame = _pattern_frame(g * step)
        window = containment_window(g * step, hw, K) + margin
        pair = []
        directions = ((True, frame, extents[g:]), (False, frame.T, extents[: T - g]))
        for forward, to_far, domain in directions:
            v_keys, u_keys = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
            b, c, lo, hi = _domain_rows(domain)
            for iv, a in range_blocks(np.arange(b.size), lo, hi + 1, _PATTERN_BLOCK):
                cells = np.column_stack([a, b[iv], c[iv]])
                row, far = _window_cells((cells * spacing) @ to_far.T, spacing, window)
                v, u = (cells[row], far) if forward else (far, cells[row])
                v_keys.append(_pack_idx(v[:, [1, 2, 0]]))
                u_keys.append(_pack_idx(u))
            v_keys, u_keys = np.concatenate(v_keys), np.concatenate(u_keys)
            order = np.argsort(v_keys, kind="stable")
            pair.append(_Pattern(forward=forward, v_keys=v_keys[order], u_keys=u_keys[order]))
        patterns[g] = tuple(pair)
    return patterns


def _slice_pair_coords(inner, inner_frame: PlankFrame, outer_frame: PlankFrame, spacing):
    """Centers of the inner slice's cells (n, 3), in the outer slice's frame.

    Both products are frame_coords sums, so a cell gets the same bits in
    any batch.
    """
    centers = frame_coords(inner_frame.matrix().T, inner * spacing)
    return frame_coords(outer_frame.matrix(), centers)


def verify_pairwise_incomparable(coll: PlankCollection) -> int:
    """Count comparable unordered pairs in the collection (0 when valid).

    They are the edges of comparability_graph over all its planks, which
    share one shape. Used by the exhaustive acceptance check at small R.
    """
    thetas, centers = [np.zeros(0)], [np.zeros((0, 3))]
    for j, spec, keys, cells in coll.iter_slices():
        thetas.append(np.full(cells.shape[0], spec.theta))
        centers.append(cells)
    batch = PlankBatch(np.concatenate(thetas), np.concatenate(centers), coll.A, coll.B)
    return int(comparability_graph(batch, coll.K)[0].size)


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
    """(point index, dense plank id) incidences for slice j.

    The cells whose point_window(hw, K_rich) holds a point are its
    _window_cells on the slice's center grid, each listed once; those that
    are not kept planks (outside the row extents, or greedy rejected) are
    dropped.
    """
    spec = coll.slices[j]
    row, cells = _window_cells(
        pts @ spec.frame.matrix().T, coll.spacing, point_window(coll.half_widths, K_rich)
    )
    kept, ids = _kept(spec, cells)
    return row[kept], ids[kept]


def _planks_by_key(spec: _SliceSpec, ids: np.ndarray) -> tuple[np.ndarray, ...]:
    """(packed keys, point counts, ids) of the planks the incidence ids reach, in key order."""
    counts = np.bincount(ids)
    held = np.flatnonzero(counts)
    keys = _pack_idx(spec.extents.cells(held))
    order = np.argsort(keys)
    return keys[order], counts[held[order]], held[order]


def slice_counts(coll: PlankCollection, pts: np.ndarray, K_rich: float):
    """Per slice, (sorted packed keys, point counts) of the planks holding a point."""
    for j, spec in enumerate(coll.slices):
        yield _planks_by_key(spec, _assign_points(coll, j, pts, K_rich)[1])[:2]


def slice_incidences(coll: PlankCollection, pts: np.ndarray, K_rich: float):
    """Per slice, (point counts, point rows grouped by plank) of the planks holding a point.

    Both are int32, planks in packed-key order as in slice_counts. Points are
    decided one at a time, so a subset of pts holds, per plank, the sum of
    its 0/1 mask over the plank's rows.
    """
    for j, spec in enumerate(coll.slices):
        row, ids = _assign_points(coll, j, pts, K_rich)
        _, counts, held = _planks_by_key(spec, ids)
        rank = np.empty(spec.n_sat, dtype=np.int64)
        rank[held] = np.arange(held.size)
        yield counts.astype(np.int32), row[np.argsort(rank[ids])].astype(np.int32)


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
    pts = family.points.astype(float)
    for j in range(len(coll.slices)):
        counts = np.bincount(_assign_points(coll, j, pts, K)[1])
        counts = counts[counts > 0]
        n_rich += counts.size
        max_rich = max(max_rich, int(counts.max(initial=0)))
        add_dyadic_counts(buckets, counts)
    return RichnessTable(mu_buckets=buckets, n_rich=n_rich, max_richness=max_rich)


# ---------------------------------------------------------------------------
# lifted planks of tangency witnesses
# ---------------------------------------------------------------------------


def pair_planks(points: np.ndarray, pairs: np.ndarray, delta: float, length: float) -> PlankBatch:
    """The thin planks carrying near-tangent pairs, one per row (i, j) of pairs.

    A tangent pair separates along a light ray, the long axis of the cone
    frame at the angle opposite the planar direction from the smaller toward
    the larger circle (radius ties as in tangency_point, compared in the
    points' own dtype). Each plank is delta thick and `length` long at the
    pair midpoint, so it holds both ends of a pair closer than `length`.
    Raises ConcentricError for a concentric pair.
    """
    x, y = np.moveaxis(np.asarray(points)[np.asarray(pairs, dtype=np.int64).reshape(-1, 2)], 1, 0)
    lex = (x[:, 0] < y[:, 0]) | ((x[:, 0] == y[:, 0]) & (x[:, 1] <= y[:, 1]))
    x_big = (x[:, 2] > y[:, 2]) | ((x[:, 2] == y[:, 2]) & lex)
    p, q = x.astype(float), y.astype(float)
    w = np.where(x_big[:, None], p - q, q - p)[:, :2]
    if np.any(np.all(w == 0.0, axis=1)):
        raise ConcentricError("concentric pair has no carrying plank")
    thetas = [wrap_angle(math.atan2(w1, w0) + math.pi) for w0, w1 in w.tolist()]
    return PlankBatch(thetas, (p + q) / 2.0, delta, length)


def rect_planks(
    z_star: np.ndarray, u: np.ndarray, delta: float, radius_lo: float, radius_hi: float
) -> PlankBatch:
    """The lifted planks of circles whose annulus can contain a rectangle.

    z_star and u (m, 2) are stacked tangency_point outputs. Circles tangent
    at z_star with radial direction u have centers on the ray z_star - r u,
    a segment along the cone direction at the angle of -u. Each plank spans
    the radius range along it and is delta across: A > B here.
    """
    z_star, u = np.reshape(z_star, (-1, 2)), np.reshape(u, (-1, 2))
    thetas = [wrap_angle(math.atan2(-u1, -u0)) for u0, u1 in u.tolist()]
    r_mid = (radius_lo + radius_hi) / 2.0
    span = max(radius_hi - radius_lo, delta)
    centers = np.column_stack([z_star - r_mid * u, np.full(len(thetas), r_mid)])
    return PlankBatch(thetas, centers, math.sqrt(2.0) * span, delta)


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
    check_positive("delta", delta)
    if mu < 1 or nu < 1:
        raise InvalidParamsError("mu, nu: richness thresholds must be >= 1")
    nb = len(B_fam)
    pts = np.vstack([B_fam.points.astype(float), W_fam.points.astype(float)])
    scale = max(B_fam.scale_R, W_fam.scale_R)
    d_bw = float(cKDTree(pts[nb:]).query(pts[:nb], k=1)[0].min())
    if not (scale / 20.0 <= d_bw <= 20.0 * scale):
        warnings.warn(
            f"family distance {d_bw:.3g} is not comparable to the scale {scale:.3g}",
            stacklevel=2,
        )
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    both = CircleFamily(pts, scale, 0.0, tuple(zip(lo.tolist(), hi.tolist())), {})
    pairs = count_ct_delta_hashed(both, delta).pairs
    cross = pairs[(pairs[:, 0] < nb) & (pairs[:, 1] >= nb)]
    rects, touch = [], []
    for i, j in cross.tolist():
        ci = B_fam.circle(i)
        cj = W_fam.circle(j - nb)
        if ci.center == cj.center:
            continue
        rect = tangency_rect(ci, cj, delta)
        if len(lift_rect(rect, B_fam, delta)) < mu or len(lift_rect(rect, W_fam, delta)) < nu:
            continue
        rects.append(rect)
        touch.append(tangency_point(ci, cj))

    m = len(rects)
    touch = np.reshape(touch, (m, 2, 2))  # (z_star, u) per candidate
    batch = rect_planks(touch[:, 0], touch[:, 1], delta, float(lo[2]), float(hi[2]))
    earlier, later, _, _ = comparability_graph(batch, K)
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
