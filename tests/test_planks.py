"""Tests of plank enumeration, richness counting, bucketing, and lifting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    mutual_containment,
    plank_axes,
    plank_comparable,
    plank_contains,
    rotate_plank_z,
    wrap_angle,
)
from tangencylab.incidence import count_ct_delta_bruteforce
from tangencylab.planks import (
    PlankCollection,
    _assign_points,
    _dyadic_floor,
    _grid_bounds,
    _grid_sat_cells,
    _pack_idx,
    _row_extents,
    _sat_intersects,
    add_dyadic_counts,
    bilinear_rich,
    enumerate_incomparable,
    mu_buckets,
    pair_plank,
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
