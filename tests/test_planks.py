"""Tests of plank enumeration, richness counting, bucketing, and lifting."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import clustered_unit_family, random_unit_family
from tangencylab.errors import EmptyFamilyError, InvalidParamsError
from tangencylab.families import (
    CircleFamily,
    annular_box,
    cube_box,
    gen_clamshell,
    gen_maximal_separated,
    gen_random_wellspaced,
    unit_box,
)
from tangencylab.geometry import (
    Lightplank,
    containment_slack,
    containment_window,
    in_window,
    mutual_containment,
    plank_axes,
    plank_comparable,
    plank_contains,
    range_blocks,
    rotate_plank_z,
    tangency_point,
    tangency_rect,
    wrap_angle,
)
from tangencylab.incidence import count_ct_delta_bruteforce, lift_rect
from tangencylab import planks as planks_module
from tangencylab.planks import (
    PlankCollection,
    _assign_points,
    _comparability_patterns,
    _comparable_gaps,
    _domain_rows,
    _dyadic_floor,
    _grid_bounds,
    _grid_sat_cells,
    _pack_idx,
    _pattern_frame,
    _pattern_margin,
    _row_extents,
    _sat_intersects,
    _slice_pair_coords,
    _SliceSpec,
    _window_cells,
    add_dyadic_counts,
    bilinear_rich,
    enumerate_incomparable,
    mu_buckets,
    pair_plank,
    rect_plank,
    richness,
    slice_counts,
    verify_pairwise_incomparable,
)


def _kernel_comparable_any(P, planks, K):
    """Whether P is comparable to some plank of `planks` by the containment kernel."""
    inside, holds = mutual_containment(
        P.frame.theta, P.v, P.frame.matrix(),
        np.array([Q.frame.theta for Q in planks]), np.array([Q.v for Q in planks]),
        np.array([Q.frame.matrix() for Q in planks]), P.half_widths(), K,
    )
    return bool(np.any(inside | holds))


class TestEnumeration:
    def test_cardinality_window_small(self):
        coll = enumerate_incomparable(32, S=32, K=2.0)
        assert 32**2 / 100 <= len(coll) <= 100 * 32**2

    def test_pairwise_incomparable_exhaustive(self):
        coll = enumerate_incomparable(32, S=32, K=2.0)
        assert verify_pairwise_incomparable(coll) == 0

    @pytest.mark.parametrize("S, K", [(1.0, 1.625), (1.5, 2.0), (2.0, 2.375), (3.0, 3.5)])
    def test_pairwise_incomparable_at_small_S(self, S, K):
        # at S near K the frames half a turn apart swap a plank's long and
        # short axes, so gaps near T / 2 hold comparable pairs while gap 1
        # holds none
        coll = enumerate_incomparable(8, S=S, K=K)
        assert sum(s.rejected.size for s in coll.slices) > 0
        assert verify_pairwise_incomparable(coll) == 0

    def test_fast_predicate_matches_corner_predicate(self):
        coll = enumerate_incomparable(24, S=24, K=2.0)
        planks = coll.planks()
        rng = np.random.default_rng(0)
        for _ in range(600):
            i, j = rng.integers(0, len(planks), 2)
            assert plank_comparable(planks[i], planks[j], 2.0) == _kernel_comparable_any(
                planks[i], [planks[j]], 2.0
            )

    def test_invalid_params(self):
        with pytest.raises(InvalidParamsError, match="S"):
            enumerate_incomparable(16, S=32)
        with pytest.raises(InvalidParamsError, match="K"):
            enumerate_incomparable(16, S=16, K=0.5)
        with pytest.raises(InvalidParamsError, match="S"):
            enumerate_incomparable(16, S=0.5)

    @pytest.mark.parametrize(
        "name, kwargs",
        [
            ("R", {"R": math.nan}),
            ("R", {"R": math.inf, "S": 16.0}),
            ("S", {"R": 16.0, "S": math.nan}),
            ("K", {"R": 16.0, "K": math.nan}),
            ("K", {"R": 16.0, "K": math.inf}),
            ("A", {"R": 16.0, "A": math.nan}),
            ("A", {"R": 16.0, "A": 0.0}),
            ("A", {"R": 16.0, "A": -1.0}),
        ],
    )
    def test_non_finite_or_non_positive_params(self, name, kwargs):
        # refused where they enter, before any grid is sized from them
        with pytest.raises(InvalidParamsError, match=f"^{name}:"):
            enumerate_incomparable(**kwargs)

    def test_no_slice_lists_its_cells(self, monkeypatch):
        # the greedy reads each slice through its row extents and the
        # comparability patterns; only slice_cells lists cells
        def refuse(*args):
            raise AssertionError("_grid_sat_cells called during enumeration")

        monkeypatch.setattr(planks_module, "_grid_sat_cells", refuse)
        coll = enumerate_incomparable(64, S=64, K=2.0)
        monkeypatch.undo()
        assert sum(s.rejected.size for s in coll.slices) > 0
        assert len(coll) == sum(coll.slice_cells(j)[0].size for j in range(len(coll.slices)))

    def test_box_intersection_filter_sound(self):
        # the separating-axis filter may never reject a plank that has a
        # point inside the box: sampled points of rejected planks must all
        # fall outside, and accepted planks overwhelmingly show a witness
        rng = np.random.default_rng(9)
        coll = enumerate_incomparable(24, S=24, K=2.0)
        spacing, hw = coll.spacing, coll.half_widths
        lo, hi = np.zeros(3), np.full(3, 24.0)
        witnesses, accepted = 0, 0
        for j in (0, 5, 11):
            frame = coll.slices[j].frame
            idx = _bounding_grid(frame, spacing, hw, coll.box)
            centers = (idx * spacing) @ frame.matrix()
            mask = _sat_intersects(centers, frame.matrix(), hw, coll.box)
            samples = (rng.uniform(-1, 1, (150, 3)) * hw) @ frame.matrix()
            for c in centers[~mask][:200]:
                pts = c + samples
                inside = np.all((pts >= lo - 1e-9) & (pts <= hi + 1e-9), axis=1)
                assert not inside.any()
            for c in centers[mask][:200]:
                accepted += 1
                pts = c + samples
                if np.any(np.all((pts >= lo) & (pts <= hi), axis=1)):
                    witnesses += 1
        # corner-clipping planks can evade random samples; most accepted
        # planks still show an interior witness
        assert witnesses >= 0.5 * accepted

    def test_lattice_maximality_spot_check(self):
        # every lattice candidate (kept or rejected) must be comparable to a
        # member of the enumeration
        coll = enumerate_incomparable(32, S=32, K=2.0)
        members = coll.planks()
        rng = np.random.default_rng(4)
        spacing, hw = coll.spacing, coll.half_widths
        checked = 0
        for _ in range(200):
            j = int(rng.integers(0, len(coll.slices)))
            spec = coll.slices[j]
            keys, idx, centers = _grid_sat_cells(spec.extents, spec.frame, spacing)
            if keys.size == 0:
                continue
            t = int(rng.integers(0, keys.size))
            cand = Lightplank(frame=spec.frame, v=centers[t], A=coll.A, B=coll.B)
            assert _kernel_comparable_any(cand, members, coll.K)
            checked += 1
        assert checked >= 150

    def test_rejections_only_near_angle_seams(self):
        coll = enumerate_incomparable(64, S=64, K=2.0)
        n_rejected = sum(s.rejected.size for s in coll.slices)
        assert 0 < n_rejected < 0.05 * len(coll)

    def test_serialization_roundtrip_count(self):
        coll = enumerate_incomparable(16, S=16, K=2.0)
        text = coll.serialize()
        rows = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert len(rows) == len(coll)


def _bounding_grid(frame, spacing, hw, box):
    lo_idx, shape = _grid_bounds(frame, spacing, hw, box)
    ranges = [lo_idx[ax] + np.arange(shape[ax]) for ax in range(3)]
    g = np.meshgrid(*ranges, indexing="ij")
    return np.column_stack([a.ravel() for a in g]).astype(np.int64)


def _per_cell_sat_cells(frame, spacing, hw, box):
    """The scan the row extents replaced: the SAT on every cell of the bounding grid."""
    idx = _bounding_grid(frame, spacing, hw, box)
    centers = (idx * spacing) @ frame.matrix()
    mask = _sat_intersects(centers, frame.matrix(), hw, box)
    idx, centers = idx[mask], centers[mask]
    return _pack_idx(idx), idx, centers


def _assert_row_extents_match(frame, spacing, hw, box, check_contains=False):
    ext = _row_extents(frame, spacing, hw, box)
    got = _grid_sat_cells(ext, frame, spacing)
    want = _per_cell_sat_cells(frame, spacing, hw, box)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        np.testing.assert_array_equal(g, w)
    if check_contains:
        grid = _bounding_grid(frame, spacing, hw, box)
        member = np.isin(_pack_idx(grid), want[0])
        np.testing.assert_array_equal(ext.contains(grid), member)
        lo, hi = grid.min(axis=0), grid.max(axis=0)
        for shift in ([1, 0, 0], [0, 1, 0], [0, 0, 1]):  # cells past the grid bounds
            assert not ext.contains(np.vstack([lo - shift, hi + shift])).any()
    return got[0].size


def _slice_frames(S):
    T = int(math.ceil(2.0 * math.pi * math.sqrt(S)))
    return [plank_axes(wrap_angle(-math.pi + 2.0 * math.pi / T * j)) for j in range(T)]


def _scale(S, K, A=1.0):
    dims = np.array([A, math.sqrt(A * S), S])
    return K * dims, dims / 2.0


BOXES = {
    "cube": cube_box,
    "annular": annular_box,
    "offset": lambda R: ((0.37 * R, 1.37 * R), (-2.1 * R, -1.1 * R), (0.5, R + 0.5)),
    "wide": lambda R: ((0.0, 10.0 * R), (0.0, R), (0.0, R)),
}


class TestRowExtents:
    """The row-extent kernel against the per-cell separating axis scan."""

    @pytest.mark.parametrize("box_name", sorted(BOXES))
    def test_every_slice_small_R(self, box_name):
        n_cells = 0
        for R in (16, 32):
            box = BOXES[box_name](R)
            for K in (1.0, 2.0, 3.5):
                for S in (R, R / 4):
                    spacing, hw = _scale(S, K)
                    for frame in _slice_frames(S):
                        n_cells += _assert_row_extents_match(
                            frame, spacing, hw, box, check_contains=(K == 2.0)
                        )
        assert n_cells > 0

    @pytest.mark.parametrize("R", [1024, 2048])
    def test_sampled_slices_large_R(self, R):
        rng = np.random.default_rng(R)
        spacing, hw = _scale(R, 2.0)
        frames = _slice_frames(R)
        for j in rng.choice(len(frames), 4, replace=False):
            for box in (cube_box(R), BOXES["offset"](R)):
                assert _assert_row_extents_match(frames[j], spacing, hw, box) > 0

    @pytest.mark.parametrize("theta", [0.0, -math.pi / 2])
    def test_faces_on_lattice_cells(self, theta):
        # at these angles axis_b is (nearly) a coordinate axis, the b-grid
        # sits at multiples of 8 and the plank half-width across it is 2:
        # box faces through cell centers or flush with plank faces make
        # whole rows touch the box exactly, and faces 1e-9 beyond flush put
        # whole rows on the test's tolerance, where the kernel falls back to
        # the per-cell test along the row
        frame = plank_axes(theta)
        spacing, hw = _scale(16, 2.0)
        across = 0 if theta else 1
        faces = [(24.0, 56.0), (26.0, 54.0), (22.0, 58.0), (24.0, 24.0)]
        faces += [(26.0 + e, 54.0 - e) for e in (5e-10, 1e-9, 2e-9)]
        for lo, hi in faces:
            box = [(0.0, 40.0), (0.0, 40.0), (0.0, 40.0)]
            box[across] = (lo, hi)
            _assert_row_extents_match(frame, spacing, hw, tuple(box), check_contains=True)

    def test_row_end_on_the_tolerance(self):
        # the far face of the cube [0, L]^3 along axis_a at theta = 0 sits
        # where the SAT threshold of cell a = 20 falls, then 1e-9 and 2e-9
        # further in: the row ends are decided by the per-cell test
        frame = plank_axes(0.0)
        spacing, hw = _scale(16, 2.0)
        for e in (0.0, 1e-9, 2e-9):
            L = (20 * spacing[0] - hw[0] - e) / np.abs(frame.matrix()[0]).sum()
            _assert_row_extents_match(frame, spacing, hw, ((0.0, L),) * 3, check_contains=True)

    def test_extents_do_not_grow_with_the_bounding_grid(self):
        # a 10R-long box at R = 2^11, K = 1, S = R/4 has about 10^8 cells in
        # its bounding grid; the extents only hold one interval per row
        import tracemalloc

        R = 2048
        spacing, hw = _scale(R / 4, 1.0)
        frame = _slice_frames(R / 4)[7]
        tracemalloc.start()
        try:
            ext = _row_extents(frame, spacing, hw, BOXES["wide"](R))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ext.a_lo.size < 20_000
        assert peak < 32 * 2**20


_SIGNS = np.array([[a, b, c] for a in (-1.0, 1.0) for b in (-1.0, 1.0) for c in (-1.0, 1.0)])
_KEY_MASK = (1 << 21) - 1


def _corner_contained(inner, outer, v, U, hw, K):
    """Per pair t, whether plank inner[t] lies in the K-dilation of plank outer[t].

    The corner rule of plank_contained_in_dilation, vectorised over pairs:
    the 8 corners of the inner plank, in the outer plank's frame, lie within
    K hw plus the corner oracle's slack.
    """
    corners = v[inner][:, None, :] + (_SIGNS * hw) @ U[inner]
    coords = (corners - v[outer][:, None, :]) @ U[outer].transpose(0, 2, 1)
    window = K * hw
    return np.all(np.abs(coords) <= window + containment_slack(window), axis=(1, 2))


def _lattice_planks(coll):
    """Slice, center, frame matrix and kept flag of every lattice cell the greedy saw."""
    sl, centers, kept = [], [], []
    for j, spec in enumerate(coll.slices):
        _, _, kept_centers = coll.slice_cells(j)
        k = spec.rejected
        idx = np.column_stack([(k >> 42) & _KEY_MASK, (k >> 21) & _KEY_MASK, k & _KEY_MASK])
        rejected_centers = ((idx - (1 << 20)) * coll.spacing) @ spec.frame.matrix()
        for c, flag in ((kept_centers, True), (rejected_centers, False)):
            sl.append(np.full(len(c), j))
            centers.append(c)
            kept.append(np.full(len(c), flag))
    sl = np.concatenate(sl)
    mats = np.array([spec.frame.matrix() for spec in coll.slices])[sl]
    return sl, np.vstack(centers), mats, np.concatenate(kept)


class TestEnumerationFuzz:
    """The greedy's collections against the corner containment rule, at random R, S, K and box."""

    @given(
        R=st.integers(4, 24), s_frac=st.floats(0.0, 1.0), K=st.floats(1.0, 3.5),
        box_name=st.sampled_from(["cube", "annular", "offset"]), pick=st.randoms(use_true_random=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_incomparable_and_maximal(self, R, s_frac, K, box_name, pick):
        S = 1.0 + s_frac * (R - 1)
        coll = enumerate_incomparable(R, S=S, K=K, box=BOXES[box_name](R))
        assume(len(coll) <= 1500)
        sl, v, U, kept = _lattice_planks(coll)
        hw = coll.half_widths
        # a plank inside a convex dilation has its center there too
        reach = np.linalg.norm(K * hw + containment_slack(K * hw)) * (1 + 1e-6)
        kept_ids = np.flatnonzero(kept)
        near = np.linalg.norm(v[:, None, :] - v[kept_ids][None, :, :], axis=-1) <= reach
        a, b = np.nonzero(near)
        b = kept_ids[b]
        a, b = a[a != b], b[a != b]
        comparable = _corner_contained(a, b, v, U, hw, K) | _corner_contained(b, a, v, U, hw, K)
        # (a) no two kept planks are comparable
        assert not comparable[kept[a]].any()
        # (b) every rejected cell is comparable to some kept plank
        covered = np.zeros(len(v), dtype=bool)
        covered[a[comparable]] = True
        assert covered[~kept].all()
        # the vectorised rule is plank_comparable's
        for t in pick.sample(range(a.size), min(a.size, 12)):
            P = coll.plank_at(int(sl[a[t]]), v[a[t]])
            Q = coll.plank_at(int(sl[b[t]]), v[b[t]])
            assert plank_comparable(P, Q, K) == comparable[t]


def _scan_enumeration(R, S, K, box):
    """The per-slice scan the comparability patterns replaced, as (n_sat, rejected) per slice.

    Every box-meeting cell of every slice is tested against the kept planks
    of each earlier slice at a feasible gap, in both directions, through
    _window_cells: its center on the earlier slice's grid, and the earlier
    slice's kept centers on its own grid.
    """
    spacing = K * np.array([1.0, math.sqrt(S), S])
    hw = spacing / (2.0 * K)
    T = int(math.ceil(2.0 * math.pi * math.sqrt(S)))
    step = 2.0 * math.pi / T
    gaps = _comparable_gaps(step, T, hw, K)
    specs, kept = [], []
    for j in range(T):
        frame = plank_axes(wrap_angle(-math.pi + step * j))
        ext = _row_extents(frame, spacing, hw, box)
        keys, _, centers = _grid_sat_cells(ext, frame, spacing)
        hits = np.zeros(keys.size, dtype=bool)
        for j2 in (j - gaps[gaps <= j]).tolist():
            u = specs[j2]
            window = containment_window(frame.theta - u.frame.theta, hw, K)
            row, cells = _window_cells(centers @ u.frame.matrix().T, spacing, window)
            kept_u = u.extents.contains(cells) & ~np.isin(_pack_idx(cells), u.rejected)
            hits[row[kept_u]] = True
            _, cells = _window_cells(kept[j2] @ frame.matrix().T, spacing, window)
            hits |= np.isin(keys, _pack_idx(cells))
        specs.append(_SliceSpec(frame.theta, frame, int(keys.size), keys[hits], ext))
        kept.append(centers[~hits])
    return [(s.n_sat, s.rejected) for s in specs]


class TestPatternEnumeration:
    """The comparability-pattern greedy against the per-slice scan it replaced."""

    @staticmethod
    def _assert_matches_scan(R, S, K, box):
        coll = enumerate_incomparable(R, S=S, K=K, box=box)
        want = _scan_enumeration(R, S, K, box)
        assert len(coll.slices) == len(want)
        for spec, (n_sat, rejected) in zip(coll.slices, want):
            assert spec.n_sat == n_sat
            assert spec.rejected.dtype == rejected.dtype
            np.testing.assert_array_equal(spec.rejected, rejected)
        return sum(r.size for _, r in want)

    @pytest.mark.parametrize("box_name", ["cube", "annular"])
    @pytest.mark.parametrize("S_of_R", ["R", "R/4", "4", "2"])
    @pytest.mark.parametrize("K", [1.5, 2.0, 3.0, 3.5])
    def test_matches_per_slice_scan(self, K, S_of_R, box_name):
        # small S lists many more cells per unit of R, so it runs at R = 64
        R = 256 if "R" in S_of_R else 64
        S = {"R": R, "R/4": R / 4}.get(S_of_R) or float(S_of_R)
        self._assert_matches_scan(R, S, K, BOXES[box_name](R))

    @pytest.mark.parametrize("box_name", ["cube", "annular"])
    def test_only_gaps_near_half_turn(self, box_name):
        # at S = K = 1.5 gap 1 is infeasible and only gap T / 2 = 4 holds
        # comparable pairs, which the frame turned by pi makes
        S, K = 1.5, 1.5
        T = int(math.ceil(2.0 * math.pi * math.sqrt(S)))
        hw = np.array([1.0, math.sqrt(S), S]) / 2.0
        assert _comparable_gaps(2.0 * math.pi / T, T, hw, K).tolist() == [T // 2]
        assert self._assert_matches_scan(24, S, K, BOXES[box_name](24)) > 0

    def test_domain_blocks_cover_the_union_once(self, monkeypatch):
        # small blocks make intervals straddle block boundaries; the blocks
        # are those _comparability_patterns scans, and do not change them
        coll = enumerate_incomparable(64, S=4, K=2.0)
        extents = [s.extents for s in coll.slices]
        T, hw = len(extents), coll.half_widths
        step = 2.0 * math.pi / T
        gaps = _comparable_gaps(step, T, hw, coll.K)
        want = _comparability_patterns(extents, step, gaps, coll.spacing, hw, coll.K)
        monkeypatch.setattr(planks_module, "_PATTERN_BLOCK", 1000)
        got = _comparability_patterns(extents, step, gaps, coll.spacing, hw, coll.K)
        assert got.keys() == want.keys()
        for g in want:
            for p, q in zip(got[g], want[g]):
                np.testing.assert_array_equal(p.v_keys, q.v_keys)
                np.testing.assert_array_equal(p.u_keys, q.u_keys)
        b, c, lo, hi = _domain_rows(extents)
        blocks = [
            np.column_stack([a, b[iv], c[iv]])
            for iv, a in range_blocks(np.arange(b.size), lo, hi + 1, planks_module._PATTERN_BLOCK)
        ]
        assert len(blocks) > 10 and max(len(cells) for cells in blocks) <= 1000
        cells = np.vstack(blocks)
        keys = _pack_idx(cells[:, [1, 2, 0]])
        assert np.all(np.diff(keys) > 0)  # row-major order, each cell once
        union = np.unique(np.concatenate(
            [_grid_sat_cells(s.extents, s.frame, coll.spacing)[0] for s in coll.slices]
        ))
        np.testing.assert_array_equal(np.sort(_pack_idx(cells)), union)

    def test_margin_covers_per_slice_rounding(self):
        # at R = 2^12, on the extreme cells of the domain (both ends of every
        # merged row interval) and for every slice pair at a feasible gap,
        # the per-slice frame coordinates and windows stay within m / 1000
        # of the pattern's, in both directions
        R = 4096
        coll = enumerate_incomparable(R, S=R, K=2.0)
        spacing, hw, K = coll.spacing, coll.half_widths, coll.K
        T = len(coll.slices)
        step = 2.0 * math.pi / T
        extents = [s.extents for s in coll.slices]
        m = _pattern_margin(extents, spacing, hw, K)
        b, c, lo, hi = _domain_rows(extents)
        cells = np.vstack([np.column_stack([lo, b, c]), np.column_stack([hi, b, c])])
        x = cells * spacing
        frames = [s.frame for s in coll.slices]
        gaps = _comparable_gaps(step, T, hw, K)
        assert gaps.size and cells.shape[0] > 100
        worst = 0.0
        for g in gaps.tolist():
            F = _pattern_frame(g * step)
            window = containment_window(g * step, hw, K)
            for j in range(g, T):
                fwd = _slice_pair_coords(cells, frames[j], frames[j - g], spacing)
                rev = _slice_pair_coords(cells, frames[j - g], frames[j], spacing)
                own = containment_window(frames[j].theta - frames[j - g].theta, hw, K)
                worst = max(
                    worst, np.abs(fwd - x @ F.T).max(), np.abs(rev - x @ F).max(),
                    np.abs(own - window).max(),
                )
        assert worst < m / 1000


class TestWindowCells:
    """_window_cells against a scan of every cell around each point."""

    @staticmethod
    def _scan(coords, spacing, window):
        reach = np.abs(window)
        found = set()
        for row, c in enumerate(coords):
            lo = np.floor((c - reach) / spacing).astype(np.int64) - 1
            hi = np.ceil((c + reach) / spacing).astype(np.int64) + 1
            grid = np.meshgrid(*(np.arange(l, h + 1) for l, h in zip(lo, hi)), indexing="ij")
            cells = np.column_stack([g.ravel() for g in grid])
            for k in cells[in_window(c - cells * spacing, window)]:
                found.add((row, *k.tolist()))
        return found

    @pytest.mark.parametrize(
        "ratio", [0.1, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), 1.0, 1.7]
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_cell_scan(self, ratio, seed):
        rng = np.random.default_rng(seed)
        spacing = rng.uniform(0.3, 40.0, 3)
        window = ratio * spacing * rng.choice([1.0, rng.uniform(0.2, 1.0)], 3)
        axis = rng.integers(0, 3)
        window[axis] = ratio * spacing[axis]
        # points at a cell center or exactly a window away from it, per axis
        k = rng.integers(-20, 21, (60, 3))
        on_grid = k * spacing + rng.choice([-1.0, 0.0, 1.0], (60, 3)) * window
        coords = np.vstack([rng.uniform(-30.0, 30.0, (120, 3)) * spacing, on_grid, k * spacing])
        row, cells = _window_cells(coords, spacing, window)
        got = list(zip(row.tolist(), *cells.T.tolist()))
        assert len(set(got)) == len(got)
        assert set(got) == self._scan(coords, spacing, window)
        assert {(180 + t, *k[t].tolist()) for t in range(60)} <= set(got)

    def test_negative_axis_admits_nothing(self):
        rng = np.random.default_rng(3)
        spacing = np.array([2.0, 5.0, 11.0])
        window = np.array([1.5, -0.5, 7.0])
        coords = rng.uniform(-20.0, 20.0, (200, 3)) * spacing
        coords[:50] = rng.integers(-5, 6, (50, 3)) * spacing  # on cell centers
        row, cells = _window_cells(coords, spacing, window)
        assert row.size == 0 and cells.shape == (0, 3)
        assert self._scan(coords, spacing, window) == set()


def _slice_members(coll, fam, K_rich):
    """(slice index, packed key, richness) of every plank holding a point."""
    per_slice = list(slice_counts(coll, fam.points.astype(float), K_rich))
    sl = np.concatenate([np.full(keys.size, j) for j, (keys, _) in enumerate(per_slice)])
    keys = np.concatenate([keys for keys, _ in per_slice])
    counts = np.concatenate([counts for _, counts in per_slice])
    return sl, keys, counts


@pytest.fixture(scope="module")
def r16_collection():
    return enumerate_incomparable(16, S=16, K=2.0)


class TestRichness:
    def test_empty_family(self):
        P = Lightplank(frame=plank_axes(0.3), v=np.array([5.0, 5.0, 5.0]), A=1.0, B=16.0)
        empty = CircleFamily(np.empty((0, 3)), 1.0, 0.0, unit_box(), {})
        assert richness(P, empty) == 0

    def test_center_point(self):
        P = Lightplank(frame=plank_axes(0.3), v=np.array([5.0, 5.0, 5.0]), A=1.0, B=16.0)
        fam = CircleFamily(P.v.reshape(1, 3), 1.0, 0.0, ((0, 10), (0, 10), (0, 10)), {})
        assert richness(P, fam) == 1

    def test_monotone_in_K(self):
        rng = np.random.default_rng(2)
        fam = gen_maximal_separated(32, 4)
        for _ in range(100):
            P = Lightplank(
                frame=plank_axes(rng.uniform(-math.pi, math.pi)),
                v=rng.uniform(0, 32, 3), A=1.0, B=32.0,
            )
            r1 = richness(P, fam, K=1.0)
            r2 = richness(P, fam, K=2.0)
            r4 = richness(P, fam, K=4.0)
            assert r1 <= r2 <= r4

    def test_bucket_members_match_direct_scan(self):
        coll = enumerate_incomparable(32, S=32, K=2.0)
        fam = gen_maximal_separated(32, 4)
        sl, keys, counts = _slice_members(coll, fam, 1.0)
        rng = np.random.default_rng(5)
        for t in rng.integers(0, len(keys), min(60, len(keys))):
            j = int(sl[t])
            ks, idx, centers = coll.slice_cells(j)
            pos = int(np.searchsorted(ks, int(keys[t])))
            P = coll.plank_at(j, centers[pos])
            assert richness(P, fam, K=1.0) == int(counts[t])

    @pytest.mark.parametrize("K_rich", [1.0, 2.0, 3.0])
    def test_assign_points_matches_richness(self, K_rich):
        # K_rich = 1 scans one offset per axis, 2 and 3 scan two. Points sit
        # half a slack inside the dilation's faces or one slack outside the
        # slack-widened window of kept cells, where the grid snap ties, and
        # anywhere in and around the box. At K_rich = K the faces of
        # neighbouring cells meet, so the nudges keep clear of both windows'
        # edges.
        coll = enumerate_incomparable(16, S=16, K=2.0)
        rng = np.random.default_rng(int(K_rich))
        window = K_rich * coll.half_widths
        slack = containment_slack(window)
        pts = [rng.uniform(-6.0, 22.0, (200, 3))]
        for j in range(len(coll.slices)):
            _, _, centers = coll.slice_cells(j)
            pick = centers[rng.integers(0, len(centers), 6)]
            signs = rng.choice([-1.0, 0.0, 1.0], (6, 3))
            nudge = rng.choice([-0.5, 2.0], (6, 3)) * slack
            pts.append(pick + (signs * (window + nudge)) @ coll.slices[j].frame.matrix())
        fam = CircleFamily(np.vstack(pts), 16.0, 0.0, cube_box(16), {})
        n_incidences = 0
        for j in range(len(coll.slices)):
            pt_ids, keys = _assign_points(coll, j, fam.points, K_rich)
            ks, _, centers = coll.slice_cells(j)
            assert np.isin(keys, ks).all()
            uniq, counts = np.unique(keys, return_counts=True)
            got = dict(zip(uniq.tolist(), counts.tolist()))
            for k, c in zip(ks.tolist(), centers):
                assert got.get(k, 0) == richness(coll.plank_at(j, c), fam, K=K_rich)
            n_incidences += keys.size
        assert n_incidences > 500

    @pytest.mark.parametrize("K_rich", [1.0, 2.0, 3.0])
    def test_assign_points_no_repeated_incidence_on_exact_boundaries(self, K_rich):
        # points exactly on window faces of kept cells, where neighbouring
        # windows meet: each (point, plank) incidence is listed once
        coll = enumerate_incomparable(16, S=16, K=2.0)
        rng = np.random.default_rng(10 + int(K_rich))
        window = K_rich * coll.half_widths
        for j in range(0, len(coll.slices), 3):
            _, _, centers = coll.slice_cells(j)
            pick = centers[rng.integers(0, len(centers), 30)]
            signs = rng.choice([-1.0, 1.0], (30, 3))
            pts = pick + (signs * window) @ coll.slices[j].frame.matrix()
            pt_ids, keys = _assign_points(coll, j, pts, K_rich)
            pairs = np.column_stack([pt_ids, keys])
            assert np.unique(pairs, axis=0).shape[0] == pairs.shape[0] > 0

    # K_rich = 4 - 4e-9 at K = 2: the slack widens the window past 2 grid
    # spacings, so a point at a cell center lies in both neighbours' windows
    # and three cells per axis must be scanned
    @pytest.mark.parametrize("K_rich", [1.0, 2.0, 3.0, 4.0 - 4e-9])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_face_points_one_membership_rule(self, r16_collection, K_rich, data):
        # points exactly on K_rich-dilation faces, edges and corners of kept
        # cells (and at their centers): the grid snap, the direct scan and
        # the point predicate count every plank alike
        coll = r16_collection
        j = data.draw(st.integers(0, len(coll.slices) - 1), label="slice")
        ks, _, centers = coll.slice_cells(j)
        n = data.draw(st.integers(1, 12), label="points")
        pick = data.draw(st.lists(st.integers(0, len(ks) - 1), min_size=n, max_size=n))
        sign = st.sampled_from([-1.0, 0.0, 1.0])
        signs = np.array(data.draw(st.lists(st.tuples(sign, sign, sign), min_size=n, max_size=n)))
        U = coll.slices[j].frame.matrix()
        pts = centers[pick] + (signs * (K_rich * coll.half_widths)) @ U
        fam = CircleFamily(pts, 16.0, 0.0, cube_box(16), {})

        pt_ids, keys = _assign_points(coll, j, pts, K_rich)
        assigned = dict(zip(*(a.tolist() for a in np.unique(keys, return_counts=True))))
        reach = np.linalg.norm(K_rich * coll.half_widths) * (1 + 1e-6) + 1e-6
        for k, c in zip(ks.tolist(), centers):
            P = coll.plank_at(j, c)
            near = np.linalg.norm(pts - c, axis=1) <= reach
            direct = sum(plank_contains(P, x, K_rich) for x in pts[near])
            assert assigned.get(k, 0) == richness(P, fam, K=K_rich) == direct
        for t, x in zip(pick, pts):
            assert plank_contains(coll.plank_at(j, centers[t]), x, K_rich)

    def test_grid_assignment_total_incidences(self):
        # the per-angle snap assignment must reproduce the definitional scan
        # in aggregate: sum of richness over all planks = total memberships
        coll = enumerate_incomparable(16, S=16, K=2.0)
        fam = gen_maximal_separated(16, 4)
        total_fast = int(_slice_members(coll, fam, 1.0)[2].sum())
        total_direct = sum(richness(P, fam, K=1.0) for P in coll.planks())
        assert total_fast == total_direct


class TestMuBuckets:
    def test_empty_family_empty_buckets(self):
        coll = enumerate_incomparable(16, S=16, K=2.0)
        empty = CircleFamily(np.empty((0, 3)), 1.0, 0.0, unit_box(), {})
        table = mu_buckets(coll, empty)
        assert table.mu_buckets == {} and table.n_rich == 0

    def test_partition_property(self):
        coll = enumerate_incomparable(32, S=32, K=2.0)
        fam = gen_maximal_separated(32, 4)
        table = mu_buckets(coll, fam, K=1.0)
        assert sum(table.mu_buckets.values()) == table.n_rich
        _, _, counts = _slice_members(coll, fam, 1.0)
        assert counts.size == table.n_rich and counts.max() == table.max_richness
        for mu, n in table.mu_buckets.items():
            assert int(np.sum((counts >= mu) & (counts < 2 * mu))) == n
        for c in counts[:20]:
            assert _dyadic_floor(int(c)) in table.mu_buckets

    def test_dyadic_counts_exact(self):
        # 2^k - 1 and 2^k straddle a bucket edge; near 2^53 the float log2
        # rounds 2^k - 1 up into the next bucket, the integer bit length does not
        counts = np.array([1, 2, 3, 4, 7, 8, 3, 2**52 - 1, 2**53 - 1, 2**53, 2**62 - 1], dtype=np.int64)
        buckets = {1: 5}
        add_dyadic_counts(buckets, counts)
        assert buckets == {1: 6, 2: 3, 4: 2, 8: 1, 2**51: 1, 2**52: 1, 2**53: 1, 2**61: 1}
        assert list(buckets) == sorted(buckets)

    def test_wellspaced_concentrates_in_one_bucket(self):
        # frozen behavior at the randomized-construction scale: at least 18
        # of 20 seeds put at least 90 percent of the rich planks in a single
        # dyadic bucket
        coll = enumerate_incomparable(2**10, S=2**10, K=2.0)
        good = 0
        for seed in range(20):
            fam = gen_random_wellspaced(2**10, 2**5, 0.2, seed)
            table = mu_buckets(coll, fam, K=1.0)
            if table.n_rich == 0:
                continue
            top = max(table.mu_buckets.values())
            good += top / table.n_rich >= 0.9
        assert good >= 18

    def test_rotation_covariance_of_richness(self):
        fam = random_unit_family(11, 400).rescale(16.0)
        coll = enumerate_incomparable(16, S=16, K=2.0)
        planks = coll.planks()[::7]
        for phi in (math.pi / 7, math.pi / 3):
            rfam = fam.rotate_z(phi)
            orig = sorted(richness(P, fam, K=1.0) for P in planks)
            rot = sorted(richness(rotate_plank_z(P, phi), rfam, K=1.0) for P in planks)
            assert orig == rot


class TestPairPlank:
    def test_contains_both_endpoints(self):
        fam = clustered_unit_family(23, 300)
        pairs = count_ct_delta_bruteforce(fam, 0.01)
        pts = fam.points
        checked = 0
        for i, j in pairs.pairs[:200]:
            ci, cj = fam.circle(int(i)), fam.circle(int(j))
            if ci.center == cj.center:
                continue
            d = float(np.linalg.norm(pts[i] - pts[j]))
            P = pair_plank(ci, cj, 0.01, length=2.5 * d)
            rel = np.abs((pts[[i, j]] - P.v) @ P.frame.matrix().T)
            assert np.all(rel <= P.half_widths() + 1e-9)
            checked += 1
        assert checked > 20

    def test_concentric_rejected(self):
        from tangencylab.geometry import Circle3

        with pytest.raises(ValueError):
            pair_plank(Circle3((0.0, 0.0), 1.0), Circle3((0.0, 0.0), 1.2), 0.01, 1.0)


class TestBilinear:
    def test_empty_family_error(self):
        empty = CircleFamily(np.empty((0, 3)), 1.0, 0.0, unit_box(), {})
        other = gen_clamshell(5)
        with pytest.raises(EmptyFamilyError):
            bilinear_rich(empty, other, 0.01, 1, 1)

    def test_two_clamshells_single_rich_rectangle(self):
        # both families tangent at (-1, 0), radius ranges disjoint: every
        # cross pair shares that tangency point, so one rectangle survives
        # deduplication with full richness on both sides
        t1 = np.linspace(0.05, 0.45, 12)
        t2 = np.linspace(0.55, 0.95, 12)
        B = CircleFamily(
            np.column_stack([t1, np.zeros_like(t1), 1 + t1]), 1.0, 0.0, unit_box(),
            {"generator": "clamB"},
        )
        W = CircleFamily(
            np.column_stack([t2, np.zeros_like(t2), 1 + t2]), 1.0, 0.0, unit_box(),
            {"generator": "clamW"},
        )
        res = bilinear_rich(B, W, 0.01, mu=12, nu=12)
        assert res.count == 1
        assert res.n_cross_pairs == 144

    def test_mu_nu_one_bounded_by_cross_pairs(self):
        import warnings

        B = clustered_unit_family(41, 80)
        W = clustered_unit_family(42, 80)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # family distance may sit anywhere
            res = bilinear_rich(B, W, 0.02, mu=1, nu=1)
        assert res.count <= res.n_cross_pairs

    def test_distance_warning_when_families_interleave(self):
        B = clustered_unit_family(41, 40)
        shifted = B.points.copy()
        shifted[:, 0] += 1e-4
        W = CircleFamily(shifted, 1.0, 0.0, unit_box(), {"generator": "shifted"})
        with pytest.warns(UserWarning, match="distance"):
            bilinear_rich(B, W, 0.001, mu=1, nu=1)


def _row_scan_bilinear(B_fam, W_fam, delta, mu, nu, K=2.0):
    """(count, n_cross_pairs, rects) of bilinear_rich by a row scan of B against W.

    The reference for bilinear_rich: each row of B is tested against all of
    W in index order, and each rich candidate against every kept plank.
    """
    lo3 = min(B_fam.points[:, 2].min(), W_fam.points[:, 2].min())
    hi3 = max(B_fam.points[:, 2].max(), W_fam.points[:, 2].max())
    bp, wp = B_fam.points.astype(float), W_fam.points.astype(float)
    rects, kept, n_cross = [], [], 0
    for i in range(bp.shape[0]):
        gaps = np.abs(
            np.hypot(bp[i, 0] - wp[:, 0], bp[i, 1] - wp[:, 1]) - np.abs(bp[i, 2] - wp[:, 2])
        )
        for j in np.nonzero(gaps < delta)[0]:
            n_cross += 1
            ci, cj = B_fam.circle(i), W_fam.circle(int(j))
            if ci.center == cj.center:
                continue
            rect = tangency_rect(ci, cj, delta)
            if len(lift_rect(rect, B_fam, delta)) < mu or len(lift_rect(rect, W_fam, delta)) < nu:
                continue
            cand = rect_plank(*tangency_point(ci, cj), delta, float(lo3), float(hi3))
            if kept and _kernel_comparable_any(cand, kept, K):
                continue
            kept.append(cand)
            rects.append(rect)
    return len(rects), n_cross, rects


def _family(points, name):
    return CircleFamily(points, 1.0, 0.0, unit_box(), {"generator": name})


def _clamshells():
    t1, t2 = np.linspace(0.05, 0.45, 12), np.linspace(0.55, 0.95, 12)
    return tuple(
        _family(np.column_stack([t, np.zeros_like(t), 1 + t]), name)
        for t, name in ((t1, "clamB"), (t2, "clamW"))
    )


def _uniform_halves(seed, n):
    pts = random_unit_family(seed, n).points
    left = pts[:, 0] < 0.0
    return _family(pts[left], "left"), _family(pts[~left], "right")


def _integer_and_float():
    g = np.arange(4)
    B = np.array([(x, y, 1 + r) for x in g for y in g for r in g], dtype=np.int64)
    rng = np.random.default_rng(3)
    W = B[rng.choice(len(B), 30, replace=False)] + rng.uniform(-0.3, 0.3, (30, 3))
    return _family(B, "lattice"), _family(W, "jittered")


def _shared_point():
    B = clustered_unit_family(41, 80)
    W = clustered_unit_family(42, 80).points.copy()
    W[0] = B.points[5]
    return B, _family(W, "shared")


def _cross_gap(B, W, k):
    """The k-th smallest positive cross-pair gap of B and W."""
    bp, wp = B.points.astype(float), W.points.astype(float)
    d = bp[:, None, :] - wp[None, :, :]
    gaps = np.abs(np.hypot(d[..., 0], d[..., 1]) - np.abs(d[..., 2])).ravel()
    return float(np.sort(gaps[gaps > 0])[k])


_CLUSTERED_80 = (clustered_unit_family(41, 80), clustered_unit_family(42, 80))
_GAP = _cross_gap(*_CLUSTERED_80, 40)


@pytest.mark.filterwarnings("ignore:family distance")
class TestBilinearComposition:
    @pytest.mark.parametrize("families,delta,mu,nu", [
        (_clamshells(), 0.01, 12, 12),
        (_clamshells(), 0.01, 1, 1),
        (_CLUSTERED_80, 0.02, 1, 1),
        (_CLUSTERED_80, 0.02, 16, 12),
        ((clustered_unit_family(43, 400), clustered_unit_family(44, 400)), 0.01, 2, 2),
        (_uniform_halves(7, 600), 0.01, 1, 1),
        (_integer_and_float(), 0.3, 1, 1),
        (_shared_point(), 0.02, 1, 1),
        (_CLUSTERED_80, math.nextafter(_GAP, 0.0), 1, 1),
        (_CLUSTERED_80, _GAP, 1, 1),
        (_CLUSTERED_80, math.nextafter(_GAP, 1.0), 1, 1),
    ], ids=["clamshells", "clamshells-mu1", "clustered80", "clustered80-rich", "clustered400",
            "uniform-halves", "integer-float", "shared-point", "gap-1ulp", "gap", "gap+1ulp"])
    def test_matches_row_scan(self, families, delta, mu, nu):
        res = bilinear_rich(*families, delta, mu, nu)
        count, n_cross, rects = _row_scan_bilinear(*families, delta, mu, nu)
        assert (res.count, res.n_cross_pairs, res.rects) == (count, n_cross, rects)
        assert n_cross > 0

    def test_gap_cases_differ_by_the_pair(self):
        counts = [bilinear_rich(*_CLUSTERED_80, d, 1, 1).n_cross_pairs
                  for d in (_GAP, math.nextafter(_GAP, 1.0))]
        assert counts[1] == counts[0] + 1

    @pytest.mark.parametrize("delta", [0.0, math.inf, math.nan])
    def test_delta_must_be_finite_and_positive(self, delta):
        with pytest.raises(InvalidParamsError, match="delta"):
            bilinear_rich(*_CLUSTERED_80, delta, 1, 1)

    @pytest.mark.parametrize("mu,nu", [(0, 1), (1, 0)])
    def test_thresholds_below_one(self, mu, nu):
        with pytest.raises(InvalidParamsError, match="mu"):
            bilinear_rich(*_CLUSTERED_80, 0.02, mu, nu)
