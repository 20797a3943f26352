"""Tests of family generators, diagnostics, and the interchange format."""

import math

import numpy as np
import pytest

from tangencylab.errors import EmptyFamilyError, InvalidParamsError
from tangencylab.families import (
    WELLSPACED_GRID_FACTOR,
    CircleFamily,
    check_frostman,
    check_separation,
    cube_box,
    cube_occupancy,
    gen_clamshell,
    gen_integer_lattice,
    gen_maximal_separated,
    gen_random_wellspaced,
    load_family,
    pack_grid_keys,
    unit_box,
    wellspaced_candidates,
)
from tangencylab.geometry import delta_gap


class TestMaximalSeparated:
    def test_grid_count(self):
        fam = gen_maximal_separated(100, 10)
        assert len(fam) == 11**3

    def test_degenerate_count(self):
        fam = gen_maximal_separated(7.0, 7.0)
        assert len(fam) <= 8

    def test_separation_is_exact(self):
        fam = gen_maximal_separated(100, 10)
        ok, gap = check_separation(fam, 10)
        assert ok and gap == pytest.approx(10.0)

    @pytest.mark.parametrize("R, rho, kind", [(0.3, 0.1, "cube"), (0.7, 0.1, "cube"), (0.3, 0.1, "annular")])
    def test_points_stay_in_box(self, R, rho, kind):
        # (hi - lo) / rho rounds just below an integer here, so lo + rho k
        # would pass the box end by an ulp without the clip
        fam = gen_maximal_separated(R, rho, box_kind=kind)
        lo = np.array([b[0] for b in fam.box])
        hi = np.array([b[1] for b in fam.box])
        assert np.all(fam.points >= lo) and np.all(fam.points <= hi)
        assert np.isin(hi, fam.points).all()
        assert check_separation(fam, rho)[0]

    def test_annular_box(self):
        fam = gen_maximal_separated(8, 2, box_kind="annular")
        fam.validate()
        assert fam.points[:, 2].min() >= 8
        assert fam.points[:, 2].max() <= 16
        assert len(fam) == 9 * 9 * 5
        assert fam.points.dtype.kind == "i"  # an integer grid stays integer


class TestClamshell:
    def test_all_pairs_exactly_tangent(self):
        fam = gen_clamshell(16)
        gaps = [
            delta_gap(fam.circle(i), fam.circle(j))
            for i in range(16) for j in range(i + 1, 16)
        ]
        assert max(gaps) < 1e-12

    def test_integer_variant(self):
        fam = gen_clamshell(5, integer=True)
        assert fam.is_integer
        assert [tuple(p) for p in fam.points[:2]] == [(1, 0, 2), (2, 0, 3)]

    def test_line_concentration_profile_stays_bounded(self):
        # the clamshell is genuinely one-dimensional: counts in r-balls grow
        # like r over the spacing, so the normalized profile stays O(1)
        N = 64
        fam = gen_clamshell(N)
        profile = check_frostman(fam, 1.0 / N)
        assert max(profile.values()) <= 4.0

    def test_volume_family_flagged_by_profile(self):
        # a 3-d grid concentrates far above the line profile at large radii
        fam = gen_maximal_separated(16, 1).rescale(1 / 16.0)
        profile = check_frostman(fam, 1 / 16.0)
        assert max(profile.values()) > 10.0

    def test_needs_two(self):
        with pytest.raises(InvalidParamsError):
            gen_clamshell(1)


class TestFrostman:
    def test_single_point(self):
        fam = CircleFamily(
            np.array([[0.0, 0.0, 1.5]]), 1.0, 0.0, unit_box(), {"generator": "one"}
        )
        profile = check_frostman(fam, 0.01)
        for r, val in profile.items():
            assert val == pytest.approx(0.01 / r)

    def test_line_grid_theta_one(self):
        delta = 1.0 / 128
        t = np.arange(1, 129) * delta
        fam = CircleFamily(
            np.column_stack([t, np.zeros_like(t), np.full_like(t, 1.5)]),
            1.0, delta, unit_box(), {"generator": "line"},
        )
        profile = check_frostman(fam, delta)
        # direct count: an r-ball on the line holds about r/delta + 1 points
        assert 0.5 <= max(profile.values()) <= 3.0


class TestWellspaced:
    def test_determinism(self):
        a = gen_random_wellspaced(2**12, 16, 0.3, seed=5)
        b = gen_random_wellspaced(2**12, 16, 0.3, seed=5)
        assert a.serialize() == b.serialize()

    def test_seed_changes_family(self):
        a = gen_random_wellspaced(2**12, 16, 0.3, seed=5)
        b = gen_random_wellspaced(2**12, 16, 0.3, seed=6)
        assert a.serialize() != b.serialize()

    def test_box_membership_and_no_duplicates(self):
        fam = gen_random_wellspaced(2**12, 16, 0.3, seed=1)
        fam.validate()

    def test_invalid_params(self):
        with pytest.raises(InvalidParamsError, match="rho"):
            gen_random_wellspaced(4096, 100, 0.1, seed=1)  # rho > sqrt(R)
        with pytest.raises(InvalidParamsError, match="rho"):
            gen_random_wellspaced(4096, 1.5, 0.3, seed=1)  # rho < R^eps
        with pytest.raises(InvalidParamsError, match="R"):
            gen_random_wellspaced(5, 1, 0.0, seed=1)

    def test_intercube_gap_bound(self):
        # with full tiles, points in distinct sub-cubes sit >= 99 rho apart
        R, rho = 2**12, 2**4
        fam = gen_random_wellspaced(R, rho, 0.3, seed=2)
        assert fam.provenance["single_tile"] == 0
        pts = fam.points
        tile = np.floor(pts / (100 * rho)).astype(int)
        tile_key = tile[:, 0] * 10_000 + tile[:, 1] * 100 + tile[:, 2]
        min_inter = np.inf
        for i in range(len(fam)):
            other = tile_key != tile_key[i]
            if other.any():
                d = np.linalg.norm(pts[other] - pts[i], axis=1)
                min_inter = min(min_inter, d.min())
        assert min_inter >= 99 * rho

    def test_size_window_robust_params(self):
        # the binomial size window holds for every seed when the failure
        # probability bound 2 exp(-|Y| p / 2) is astronomically small
        R, rho, eps = 2**12, 2**4, 0.3
        p = R**eps / rho**3
        successes = 0
        for seed in range(1, 21):
            fam = gen_random_wellspaced(R, rho, eps, seed)
            nY = int(fam.provenance["n_candidates"])
            successes += nY * p / 10 <= len(fam) <= 10 * nY * p
        assert successes >= 19

    def test_single_tile_fallback_regression(self):
        # at rho > R/100 no full tile fits and candidates come from one
        # centered sub-cube; the size-window success count over seeds 1..20
        # is frozen (the window is weak here: the mean is only about 2.4)
        R, rho, eps = 2**12, 2**6, 0.1
        p = R**eps / rho**3
        fam1 = gen_random_wellspaced(R, rho, eps, seed=1)
        assert fam1.provenance["single_tile"] == 1
        assert fam1.provenance["n_candidates"] == 65**3
        successes = 0
        for seed in range(1, 21):
            fam = gen_random_wellspaced(R, rho, eps, seed)
            nY = int(fam.provenance["n_candidates"])
            successes += nY * p / 10 <= len(fam) <= 10 * nY * p
        assert successes == 18  # frozen observed outcome


def _tile_loop_candidates(R, rho):
    """Oracle for wellspaced_candidates: one meshgrid per tile, tiles in order."""
    side = WELLSPACED_GRID_FACTOR * rho
    n_cubes = int(math.floor(R / side))
    centers_1d = [R / 2.0] if n_cubes < 1 else side * (np.arange(n_cubes) + 0.5)
    axes = [np.arange(math.ceil(c - rho / 2.0), math.floor(c + rho / 2.0) + 1) for c in centers_1d]
    tiles = []
    for r1 in axes:
        for r2 in axes:
            for r3 in axes:
                g1, g2, g3 = np.meshgrid(r1, r2, r3, indexing="ij")
                tiles.append(np.column_stack([g1.ravel(), g2.ravel(), g3.ravel()]))
    return np.vstack(tiles), n_cubes < 1, {a.size for a in axes}


class TestWellspacedCandidates:
    @pytest.mark.parametrize("R, rho, single, sizes", [
        (2**11, 2, False, {3}),  # 1,000 tiles
        (2**10, 2**5, True, {33}),  # one centred tile
        (1000, 1.234, False, {1, 2}),  # tile centres off the integers
    ])
    def test_equals_tile_loop(self, R, rho, single, sizes):
        # Y's order is the RNG's draw order, so it must match exactly
        Y, flag = wellspaced_candidates(R, rho)
        oracle, oracle_flag, oracle_sizes = _tile_loop_candidates(R, rho)
        assert (flag, oracle_flag) == (single, single) and oracle_sizes == sizes
        assert Y.dtype == oracle.dtype == np.int64
        assert np.array_equal(Y, oracle)


class TestIntegerLattice:
    def test_cardinality(self):
        assert len(gen_integer_lattice(2)) == 27

    def test_dtype_and_ranges(self):
        fam = gen_integer_lattice(5)
        assert fam.is_integer
        assert fam.points[:, 2].min() == 5 and fam.points[:, 2].max() == 10


class TestCheckSeparation:
    def test_coincident(self):
        fam = CircleFamily(
            np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]), 1.0, 0.0, unit_box(), {}
        )
        ok, gap = check_separation(fam, 0.1)
        assert not ok and gap == 0.0

    def test_needs_two(self):
        fam = CircleFamily(np.array([[0.0, 0.0, 1.0]]), 1.0, 0.0, unit_box(), {})
        with pytest.raises(EmptyFamilyError):
            check_separation(fam, 0.1)


class TestCubeOccupancy:
    def test_grid_occupancy_bounded(self):
        fam = gen_maximal_separated(100, 10)
        occ = cube_occupancy(fam, 10.0)
        assert occ.max_count <= 8

    def test_conservation(self):
        for seed in range(3):
            fam = gen_random_wellspaced(2**12, 16, 0.3, seed=seed)
            for cell in (7.0, 16.0, 100.0):
                occ = cube_occupancy(fam, cell)
                assert occ.total_points() == len(fam)

    def test_empty(self):
        fam = CircleFamily(np.empty((0, 3)), 1.0, 0.0, cube_box(10.0), {})
        assert cube_occupancy(fam, 1.0).max_count == 0

    def test_key_overflow_raises(self):
        # 0.21 apart, but a cell this small puts their y indices 2^21 apart,
        # which carries into the x field and would merge the two cells
        pts = np.array([[0.5e-7, 0.2097152, 1.0], [1.5e-7, 0.5e-7, 1.0]])
        fam = CircleFamily(pts, 1.0, 0.0, unit_box(), {})
        with pytest.raises(InvalidParamsError, match="cell"):
            cube_occupancy(fam, 1e-7)
        assert cube_occupancy(fam, 1e-3).max_count == 1


    def test_points_outside_the_box_raise(self):
        # one centre, radii below, far below and inside the unit box: the two
        # outside used to be clamped into the bottom cell (max_count 3)
        pts = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, -3.0], [0.0, 0.0, 1.01]])
        fam = CircleFamily(pts, 1.0, 0.0, unit_box(), {})
        with pytest.raises(InvalidParamsError, match="outside the declared box"):
            cube_occupancy(fam, 0.1)

    def test_points_on_faces_fold_in(self):
        pts = np.array([[-1.0, -1.0, 1.0], [1.0, 1.0, 2.0], [1.0, -1.0, 2.0]])
        occ = cube_occupancy(CircleFamily(pts, 1.0, 0.0, unit_box(), {}), 0.5)
        assert occ.total_points() == 3 and occ.max_count == 1


class TestGridKeys:
    def test_distinct_and_lexicographic(self):
        rng = np.random.default_rng(3)
        idx = rng.integers(0, 1 << 21, (500, 3))
        idx[:4] = [[0, 0, 0], [(1 << 21) - 1] * 3, [0, (1 << 21) - 1, 0], [1, 0, 0]]
        keys = pack_grid_keys(idx, "cell")
        assert np.unique(keys).size == np.unique(idx, axis=0).shape[0]
        np.testing.assert_array_equal(np.argsort(keys, kind="stable"),
                                      np.lexsort((idx[:, 2], idx[:, 1], idx[:, 0])))
        np.testing.assert_array_equal(pack_grid_keys(idx.astype(float), "cell"), keys)

    def test_field_overflow_raises(self):
        for bad in ([-1, 0, 0], [0, 1 << 21, 0], [0, 0, 1 << 21], [0.0, 0.0, 2.0**63]):
            with pytest.raises(InvalidParamsError, match="box"):
                pack_grid_keys(np.array([[0, 0, 0], bad]), "box")


class TestSerialization:
    def test_roundtrip_floats(self, tmp_path):
        fam = gen_maximal_separated(10, 2.5)
        path = tmp_path / "fam.txt"
        fam.save(path)
        back = load_family(path)
        assert back.serialize() == fam.serialize()
        assert back.provenance_hash() == fam.provenance_hash()
        np.testing.assert_array_equal(back.points, fam.points)

    def test_roundtrip_integers(self, tmp_path):
        fam = gen_integer_lattice(3)
        path = tmp_path / "lat.txt"
        fam.save(path)
        back = load_family(path)
        assert back.is_integer
        np.testing.assert_array_equal(back.points, fam.points)
        assert back.provenance_hash() == fam.provenance_hash()

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# generator=x\n1.0 2.0 3.0\n4.0 5.0\n")
        with pytest.raises(InvalidParamsError, match="line 3"):
            load_family(path)

    def test_row_outside_declared_box_rejected(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("# generator=x\n# box=-1.0:1.0,-1.0:1.0,1.0:2.0 integer=0 n=2\n"
                        "0.0 0.0 1.0\n0.0 0.0 2.5\n")
        with pytest.raises(InvalidParamsError, match="line 4"):
            load_family(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# generator=x\n")
        with pytest.raises(EmptyFamilyError):
            load_family(path)

    def test_validation_rejects_duplicates(self):
        fam = CircleFamily(
            np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]), 1.0, 0.0, unit_box(), {}
        )
        with pytest.raises(InvalidParamsError, match="duplicate"):
            fam.validate()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_rejected_at_construction(self, bad):
        pts = np.array([[0.0, 0.0, 1.0], [bad, 0.0, 2.0], [1.0, 0.0, 2.0]])
        with pytest.raises(InvalidParamsError, match="NaN and inf"):
            CircleFamily(pts, 1.0, 0.0, unit_box(), {})

    def test_integer_points_beyond_int64_rejected_at_construction(self):
        # cast to int64 these would wrap, and (0, 0, 1), (2^63 - 2, 0, 2^63 + 3)
        # would read as an exactly tangent pair
        pts = np.array([[0, 0, 1], [2**63 - 2, 0, 2**63 + 3]], dtype=np.uint64)
        with pytest.raises(InvalidParamsError, match="int64"):
            CircleFamily(pts, 1.0, 0.0, unit_box(), {})
        fits = np.array([[0, 0, 1], [2**63 - 2, 0, 2**63 - 1]], dtype=np.uint64)
        assert CircleFamily(fits, 1.0, 0.0, unit_box(), {}).is_integer

    def test_validation_rejects_out_of_box(self):
        fam = CircleFamily(np.array([[5.0, 0.0, 1.5]]), 1.0, 0.0, unit_box(), {})
        with pytest.raises(InvalidParamsError, match="box"):
            fam.validate()


class TestRescaleRotate:
    def test_rescale_scales_gaps(self):
        fam = gen_clamshell(8)
        doubled = fam.rescale(2.0)
        g0 = delta_gap(fam.circle(0), fam.circle(3))
        g1 = delta_gap(doubled.circle(0), doubled.circle(3))
        assert g1 == pytest.approx(2.0 * g0, abs=1e-15)

    def test_rotation_preserves_gaps(self):
        fam = gen_clamshell(8)
        rot = fam.rotate_z(math.pi / 5)
        for i, j in [(0, 1), (2, 5), (3, 7)]:
            assert delta_gap(rot.circle(i), rot.circle(j)) == pytest.approx(
                delta_gap(fam.circle(i), fam.circle(j)), abs=1e-12
            )
