"""Tests of pair counting: oracle equivalence, exact path, binning, lifting."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import clustered_unit_family, random_unit_family
from tangencylab.errors import InvalidParamsError
from tangencylab.experiments import light_ray_degeneracy
from tangencylab.families import CircleFamily, gen_clamshell, gen_integer_lattice, gen_maximal_separated, unit_box
from tangencylab.geometry import Rect2, annulus_contains_rect, is_exact_tangent_int, tangency_rect
from tangencylab import incidence
from tangencylab.incidence import (
    TangencyPairSet,
    _ct0_stencil,
    _direction_sweep,
    _unpack_pairs,
    bin_dyadic,
    count_ct0_exact,
    count_ct_delta_bruteforce,
    count_ct_delta_hashed,
    lift_rect,
)


class TestBruteForce:
    def test_clamshell_all_pairs(self):
        fam = gen_clamshell(10)
        for delta in (1e-6, 0.01, 0.5):
            assert len(count_ct_delta_bruteforce(fam, delta)) == 45

    def test_single_point(self):
        fam = CircleFamily(np.array([[0.0, 0.0, 1.5]]), 1.0, 0.0, unit_box(), {})
        assert len(count_ct_delta_bruteforce(fam, 0.1)) == 0

    def test_matches_scalar_reference(self):
        # cross-check the vectorized scan against per-pair scalar gaps
        fam = random_unit_family(3, 60)
        delta = 0.05
        expected = set()
        from tangencylab.geometry import delta_gap

        for i, j in itertools.combinations(range(60), 2):
            if delta_gap(fam.circle(i), fam.circle(j)) < delta:
                expected.add((i, j))
        assert count_ct_delta_bruteforce(fam, delta).as_set() == expected

    def test_regression_baseline_separated_grid(self):
        # frozen count for the rescaled separated grid; any change to the
        # counting kernels must reproduce it exactly
        fam = gen_maximal_separated(64, 8, box_kind="annular").rescale(1 / 64)
        pairs = count_ct_delta_bruteforce(fam, 0.05)
        assert len(fam) == 2601
        assert len(pairs) == 131972


class TestHashedEquivalence:
    @pytest.mark.parametrize("delta", [1e-1, 1e-2, 1e-3])
    def test_mixed_families(self, delta):
        for seed in range(10):
            fam = (
                random_unit_family(seed, 100 + 37 * seed)
                if seed % 2
                else clustered_unit_family(seed, 100 + 37 * seed)
            )
            bf = count_ct_delta_bruteforce(fam, delta)
            hs = count_ct_delta_hashed(fam, delta)
            assert bf.as_set() == hs.as_set()

    def test_clamshell(self):
        fam = gen_clamshell(100)
        assert len(count_ct_delta_hashed(fam, 0.01)) == 4950

    def test_empty_and_single(self):
        empty = CircleFamily(np.empty((0, 3)), 1.0, 0.0, unit_box(), {})
        assert len(count_ct_delta_hashed(empty, 0.1)) == 0

    @pytest.mark.parametrize("grid", [False, True])
    def test_bin_count_cannot_change_result(self, grid):
        # the grid has many pairs along an axis, whose direction lies on a
        # bin edge for every even bin count
        if grid:
            fam = gen_maximal_separated(24, 3, "annular").rescale(1 / 24)
        else:
            fam = clustered_unit_family(5, 300)
        ref = count_ct_delta_bruteforce(fam, 0.02).pairs
        assert len(ref) > 1000
        for bins in (1, 2, 3, 4, 7, 8, 25, 64, 400):
            got = _unpack_pairs(_direction_sweep(fam.points.astype(float), 0.02, bins), len(fam))
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("delta", [float("inf"), float("nan"), 0.0, -1e-3])
    def test_delta_must_be_finite_and_positive(self, delta):
        fam = random_unit_family(3, 30)
        for counter in (count_ct_delta_bruteforce, count_ct_delta_hashed):
            with pytest.raises(InvalidParamsError, match="delta"):
                counter(fam, delta)

    def test_deterministic_order(self):
        fam = random_unit_family(9, 200)
        a = count_ct_delta_hashed(fam, 0.05)
        b = count_ct_delta_hashed(fam, 0.05)
        np.testing.assert_array_equal(a.pairs, b.pairs)
        assert np.all(a.pairs[:, 0] < a.pairs[:, 1])


@st.composite
def _near_case(draw):
    """Points, a threshold and a bin count shaped to reach the sweep's edge cases.

    spread: uniform points, n from 0 up; edges: pairs whose planar direction
    is a bin edge or centre of the drawn bin count, or an axis; flat: pairs
    of equal height (dz = 0); concentric: one centre for every point (E = 0);
    grid: a small lattice, rich in exact tangencies along the axes. The
    points may be moved by about 1e6. The threshold is the gap of the last
    pair, one ulp above or below it, or a free value, up to far beyond the
    family's extent.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["spread", "edges", "flat", "concentric", "grid"]))
    bins = draw(st.integers(1, 24))
    n = draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(3, 30)))
    pts = np.column_stack([rng.uniform(-1, 1, n), rng.uniform(-1, 1, n), rng.uniform(1, 2, n)])
    if kind == "grid":
        m = draw(st.integers(1, 3))
        g = np.arange(m + 1.0)
        pts = np.array([(a, b, m + c) for a in g for b in g for c in g]) * draw(st.sampled_from([1.0, 0.1]))
        pts = pts[rng.permutation(len(pts))]
    if kind == "concentric":
        pts[:, :2] = rng.uniform(-1, 1, 2)
    added = []
    for _ in range(draw(st.integers(1, 6)) if kind in ("edges", "flat") else 0):
        p = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(1, 2)])
        r = rng.uniform(0.01, 1.0)
        if kind == "flat":
            phi = rng.uniform(-math.pi, math.pi)
            step = [r * math.cos(phi), r * math.sin(phi), 0.0]
        else:
            dz = r * draw(st.sampled_from([1.0, 1 + 1e-9, 1 - 1e-3, 1 + 1e-3])) * draw(st.sampled_from([1, -1]))
            where = draw(st.sampled_from(["edge", "centre", "axis"]))
            if where == "axis":
                step = [*draw(st.sampled_from([(r, 0.0), (0.0, r), (-r, 0.0), (0.0, -r)])), dz]
            else:
                phi = -math.pi + (draw(st.integers(0, bins)) + 0.5 * (where == "centre")) * 2 * math.pi / bins
                step = [r * math.cos(phi), r * math.sin(phi), dz]
        added += [p, p + step]
    if added:
        pts = np.vstack([pts, added])
    pts = pts + np.array(draw(st.tuples(*[st.sampled_from([0.0, 1e6, -1e6, 1e6 + 0.5])] * 3)))
    mode = draw(st.sampled_from(["at", "above", "below", "above", "below", "free"]))
    if mode == "free" or len(pts) < 2:
        delta = draw(st.sampled_from([1e-6, 1e-3, 0.05, 0.5, 10.0, 1e7]))
    else:
        (xi, yi, zi), (xj, yj, zj) = pts[-2], pts[-1]
        gap = np.abs(np.hypot(xi - xj, yi - yj) - np.abs(zi - zj))
        delta = {"at": gap, "above": np.nextafter(gap, np.inf), "below": np.nextafter(gap, -np.inf)}[mode]
        delta = float(max(delta, np.nextafter(0.0, 1.0)))
    return pts, delta, bins


class TestNearDifferential:
    @given(_near_case())
    @settings(max_examples=300, deadline=None)
    def test_matches_bruteforce(self, case):
        pts, delta, bins = case
        fam = CircleFamily(pts, 1.0, 0.0, unit_box(), {})
        ref = count_ct_delta_bruteforce(fam, delta).pairs
        np.testing.assert_array_equal(count_ct_delta_hashed(fam, delta).pairs, ref)
        if len(pts) >= 2:
            for b in (1, bins, 4 * bins):
                np.testing.assert_array_equal(_unpack_pairs(_direction_sweep(pts, delta, b), len(pts)), ref)


class TestExactCount:
    def test_integer_clamshell(self):
        fam = gen_clamshell(12, integer=True)
        assert len(count_ct0_exact(fam)) == 66

    def test_lattice_matches_python_oracle(self):
        fam = gen_integer_lattice(3)
        expected = sum(
            1
            for i, j in itertools.combinations(range(len(fam)), 2)
            if is_exact_tangent_int(fam.circle(i), fam.circle(j))
        )
        assert len(count_ct0_exact(fam)) == expected

    def test_equal_radii_no_pairs(self):
        pts = np.array([[0, 0, 5], [1, 0, 5], [3, 2, 5], [7, 1, 5]], dtype=np.int64)
        fam = CircleFamily(pts, 5.0, 1.0, ((0, 7), (0, 2), (5, 5)), {})
        assert len(count_ct0_exact(fam)) == 0

    def test_requires_integer_family(self):
        fam = random_unit_family(0, 10)
        with pytest.raises(TypeError):
            count_ct0_exact(fam)

    def test_bins_partition_and_match_distances(self):
        fam = gen_integer_lattice(4)
        ct = count_ct0_exact(fam, with_bins=True)
        total = sum(arr.shape[0] for arr in ct.by_distance.values())
        assert total == len(ct)
        pts = fam.points.astype(float)
        for D, arr in ct.by_distance.items():
            d = np.linalg.norm(pts[arr[:, 0]] - pts[arr[:, 1]], axis=1)
            assert np.all((d >= D) & (d < 2 * D))

    def test_python_fallback_for_huge_coordinates(self):
        s = 10**9  # beyond the int64-safe vectorized range
        pts = np.array(
            [[0, 0, s], [3 * s, 4 * s, 6 * s], [1, 1, s]], dtype=np.int64
        )
        fam = CircleFamily(pts, float(s), 1.0, ((0, 3 * s), (0, 4 * s), (1, 6 * s)), {})
        ct = count_ct0_exact(fam, with_bins=False)
        assert ct.as_set() == {(0, 1)}

    def test_coincident_points_rejected_on_every_path(self):
        lattice = gen_integer_lattice(4).points
        cases = [
            np.array([[0, 0, 1], [0, 0, 1], [1, 0, 2]]),  # all-pairs scan
            np.vstack([lattice, lattice[60]]),  # stencil: Z = 4, 126 points
            np.array([[0, 0, 1], [0, 0, 1], [1, 0, 2]]) * 2**30,  # Python integers
        ]
        for pts in cases:
            with pytest.raises(InvalidParamsError, match="coincident"):
                count_ct0_exact(_integer_family(pts))
        with pytest.raises(InvalidParamsError, match="coincident"):
            _ct0_stencil(cases[0])

    def test_translated_lattice_matches_original(self, monkeypatch):
        # only the spans matter: the moved lattice must not fall to Python integers
        fam = gen_integer_lattice(12)
        moved = _integer_family(fam.points.astype(np.int64) + 2**30)
        a = count_ct0_exact(fam)
        monkeypatch.setattr(incidence, "_ct0_python", None)
        b = count_ct0_exact(moved)
        assert len(a) == 40400
        np.testing.assert_array_equal(a.pairs, b.pairs)
        assert list(a.by_distance) == list(b.by_distance)
        for D, arr in a.by_distance.items():
            np.testing.assert_array_equal(arr, b.by_distance[D])

    def test_span_beyond_int64_refused(self):
        fam = _integer_family([[-2**62, 0, 1], [2**62, 0, 2]])
        with pytest.raises(InvalidParamsError, match="int64"):
            count_ct0_exact(fam)

    def test_lattice_closed_form_beyond_oracle_reach(self):
        # a cone vector (dx, dy, dz), dz > 0, joins (n+1-|dx|)(n+1-|dy|)(n+1-dz)
        # pairs of the lattice {0..n}^2 x {n..2n}, all at distance sqrt(2) dz
        n = 40
        total, buckets = 0, {}
        for dz in range(1, n + 1):
            for dx in range(-dz, dz + 1):
                rest = dz * dz - dx * dx
                dy = math.isqrt(rest)
                if dy * dy != rest:
                    continue
                D = 2.0 ** (math.isqrt(2 * dz * dz).bit_length() - 1)
                ways = (1 + (dy > 0)) * (n + 1 - abs(dx)) * (n + 1 - dy) * (n + 1 - dz)
                total += ways
                buckets[D] = buckets.get(D, 0) + ways
        ct = count_ct0_exact(gen_integer_lattice(n), with_bins=True)
        assert len(ct) == total
        assert {D: arr.shape[0] for D, arr in ct.by_distance.items()} == buckets


def _integer_family(pts) -> CircleFamily:
    pts = np.asarray(pts, dtype=np.int64)
    box = tuple((float(lo), float(hi)) for lo, hi in zip(pts.min(axis=0), pts.max(axis=0)))
    return CircleFamily(pts, 1.0, 1.0, box, {"generator": "test"})


def _exact_pairs_oracle(pts) -> dict[tuple[int, int], float]:
    """Test-only all-pairs scan in Python integers: tangent pair -> dyadic D."""
    rows = [tuple(int(c) for c in row) for row in pts]
    found = {}
    for i, j in itertools.combinations(range(len(rows)), 2):
        dx, dy, dz = (b - a for a, b in zip(rows[i], rows[j]))
        if dx * dx + dy * dy == dz * dz:
            found[(i, j)] = 2.0 ** (math.isqrt(2 * dz * dz).bit_length() - 1)
    return found


def _rays_by_unique(family, pairs) -> int:
    """light_ray_degeneracy as first written, grouping ray ids with np.unique."""
    if len(pairs) == 0:
        return 0
    pts = family.points.astype(np.int64)
    i, j = pairs.pairs[:, 0], pairs.pairs[:, 1]
    d = pts[j] - pts[i]
    g = np.maximum(np.gcd(np.gcd(np.abs(d[:, 0]), np.abs(d[:, 1])), np.abs(d[:, 2])), 1)
    d = d // g[:, None]
    sign = np.where(d[:, 0] != 0, np.sign(d[:, 0]),
                    np.where(d[:, 1] != 0, np.sign(d[:, 1]), np.sign(d[:, 2])))
    d = d * sign[:, None]
    ray_id = np.column_stack([d, np.cross(pts[i], d)])
    _, counts = np.unique(ray_id, axis=0, return_counts=True)
    return int(np.sum(counts >= 3))


@st.composite
def _integer_points(draw):
    """Distinct integer points, shaped to reach each exact-counting path.

    dense: height span Z <= 6 and enough points for the stencil's dispatch
    rule; wide: few points over a large span, so the all-pairs scan runs;
    ray: points on one light ray among a few others; huge: wide or ray
    points scaled by 2^25, so their span passes 2^24 and Python integers
    run. Every kind may be moved by up to 2^61; coordinates may be
    negative.
    """
    kind = draw(st.sampled_from(["dense", "wide", "ray", "huge"]))
    if kind == "dense":
        Z, w = draw(st.integers(0, 6)), draw(st.integers(2, 6))
        side = 2 * w + 1
        need = 2 * Z * (4 + Z.bit_length())
        cells = draw(st.lists(st.integers(0, side * side * (Z + 1) - 1),
                              min_size=max(need, 2), max_size=max(need, 2) + 60, unique=True))
        c = np.array(cells)
        pts = np.column_stack([c % side - w, c // side % side - w, c // (side * side)])
    else:
        coord = st.integers(-30, 30)
        pts = np.array(draw(st.lists(st.tuples(coord, coord, coord), min_size=2, max_size=40,
                                     unique=True)), dtype=np.int64).reshape(-1, 3)
        if kind == "ray" or (kind == "huge" and draw(st.booleans())):
            a, b, c = draw(st.sampled_from([(1, 0, 1), (0, 1, 1), (3, 4, 5), (5, 12, 13), (8, 15, 17)]))
            sx, sy, sz = draw(st.tuples(*[st.sampled_from([-1, 1])] * 3))
            ts = draw(st.lists(st.integers(-6, 6), min_size=3, max_size=8, unique=True))
            ray = np.array([[t * sx * a, t * sy * b, t * sz * c] for t in ts])
            pts = np.unique(np.vstack([ray, pts[:5]]), axis=0)
            pts = pts[draw(st.permutations(range(len(pts))))]
    pts = pts.astype(np.int64) * (2**25 if kind == "huge" else 1)
    base = np.array(draw(st.tuples(*[st.integers(-100, 100)] * 3)))
    if draw(st.booleans()):
        base = base + draw(st.integers(2**24 + 1, 2**61))
    return pts + base


class TestExactDifferential:
    @given(_integer_points())
    @settings(max_examples=150, deadline=None)
    def test_matches_all_pairs_oracle(self, pts):
        fam = _integer_family(pts)
        expected = _exact_pairs_oracle(pts)
        ct = count_ct0_exact(fam, with_bins=True)
        assert ct.pairs.tolist() == [list(p) for p in sorted(expected)]
        assert list(ct.by_distance) == sorted(set(expected.values()))
        for D, arr in ct.by_distance.items():
            assert {(int(i), int(j)) for i, j in arr} == {p for p, e in expected.items() if e == D}
        # the stencil kernel on every shape but huge (its stencil grows as the
        # square of the height span), whichever path ran
        found = _ct0_stencil(pts) if np.ptp(pts, axis=0).max() <= 2**24 else None
        if found is not None:
            assert found[0].tolist() == ct.pairs.tolist()
        if np.abs(pts).max() <= 2**24:  # ray moments of huge points wrap int64
            assert light_ray_degeneracy(fam, ct) == _rays_by_unique(fam, ct)


class TestMonotonicityAndScaling:
    def test_monotone_in_delta(self):
        fam = clustered_unit_family(2, 250)
        small = count_ct_delta_bruteforce(fam, 0.01).as_set()
        large = count_ct_delta_bruteforce(fam, 0.02).as_set()
        assert small <= large

    def test_scaling_covariance(self):
        fam = random_unit_family(4, 150)
        delta = 0.03
        base = count_ct_delta_bruteforce(fam, delta).as_set()
        for lam in (0.5, 2.0, 4.0):  # powers of two scale exactly in floats
            scaled = fam.rescale(lam)
            assert count_ct_delta_bruteforce(scaled, lam * delta).as_set() == base


class TestBinDyadic:
    def test_single_bucket(self):
        pts = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 2.0], [0.0, 1.0, 2.0]])
        fam = CircleFamily(pts, 1.0, 0.0, unit_box(), {})
        pairs = count_ct_delta_bruteforce(fam, 0.5)
        binned = bin_dyadic(pairs, fam)
        # frexp: d = m 2^e with m in [0.5, 1), so floor(log2 d) = e - 1 exactly
        dists = {
            float(2.0 ** (math.frexp(np.linalg.norm(pts[i] - pts[j]))[1] - 1))
            for i, j in pairs.pairs
        }
        assert set(binned.by_distance) == dists

    def test_partition(self):
        fam = clustered_unit_family(8, 300)
        pairs = count_ct_delta_bruteforce(fam, 0.05)
        binned = bin_dyadic(pairs, fam)
        assert sum(len(v) for v in binned.by_distance.values()) == len(pairs)

    def test_hand_enumerated_clamshell_buckets(self):
        # four mutually tangent circles with parameters 1/8, 1/4, 1/2, 1:
        # pair distances are sqrt(2) |t_i - t_j|, giving dyadic buckets
        # 0.125, 0.25, 0.5, 1 with sizes 1, 1, 2, 2
        t = np.array([1 / 8, 1 / 4, 1 / 2, 1.0])
        pts = np.column_stack([t, np.zeros(4), 1.0 + t])
        fam = CircleFamily(pts, 1.0, 0.0, unit_box(), {})
        pairs = count_ct_delta_bruteforce(fam, 1e-9)
        assert len(pairs) == 6
        binned = bin_dyadic(pairs, fam)
        sizes = {D: arr.shape[0] for D, arr in binned.by_distance.items()}
        assert sizes == {0.125: 1, 0.25: 1, 0.5: 2, 1.0: 2}

    def test_exact_just_below_powers_of_two(self):
        # distances 1 to 4 ulp below 2^k belong to bucket 2^(k-1), 2^k itself
        # to bucket 2^k; np.log2 rounds the former up to k
        dists, expected = [], []
        for k in range(-10, 10):
            d = 2.0**k
            dists.append(d)
            expected.append(d)
            for _ in range(4):
                d = np.nextafter(d, 0.0)
                dists.append(d)
                expected.append(2.0 ** (k - 1))
        # pair (0, m) lies along the x axis at distance dists[m - 1], exactly
        pts = np.column_stack([[0.0, *dists], np.zeros(len(dists) + 1), np.ones(len(dists) + 1)])
        fam = CircleFamily(pts, 1.0, 0.0, unit_box(), {})
        m = np.arange(1, len(dists) + 1)
        pairs = TangencyPairSet(pairs=np.column_stack([np.zeros_like(m), m]), delta=1.0)
        assert np.linalg.norm(pts[m] - pts[0], axis=1).tolist() == dists
        binned = bin_dyadic(pairs, fam)
        got = {int(j): D for D, arr in binned.by_distance.items() for j in arr[:, 1]}
        assert [got[int(j)] for j in m] == expected

    def test_coincident_rejected(self):
        pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        fam = CircleFamily(pts, 1.0, 0.0, unit_box(), {})
        pairs = count_ct_delta_bruteforce(fam, 0.5)
        with pytest.raises(InvalidParamsError, match="coincident"):
            bin_dyadic(pairs, fam)


class TestLiftRect:
    def test_witness_pair_lifted(self):
        rng = np.random.default_rng(31)
        fam = clustered_unit_family(31, 200)
        pairs = count_ct_delta_bruteforce(fam, 0.01)
        assert len(pairs) > 0
        for i, j in pairs.pairs[:50]:
            ci, cj = fam.circle(int(i)), fam.circle(int(j))
            if ci.center == cj.center:
                continue
            rect = tangency_rect(ci, cj, 0.01)
            lifted = set(lift_rect(rect, fam, 0.01).tolist())
            assert {int(i), int(j)} <= lifted

    def test_clamshell_common_rectangle(self):
        N = 50
        fam = gen_clamshell(N)
        rect = Rect2(center=(-1.0, 0.0), angle=math.pi / 2, width=0.02, length=0.2)
        assert len(lift_rect(rect, fam, 0.01)) == N

    def test_far_rectangle_empty(self):
        fam = random_unit_family(5, 100)
        rect = Rect2(center=(50.0, 50.0), angle=0.0, width=0.01, length=0.1)
        assert len(lift_rect(rect, fam, 0.01)) == 0

    def test_agrees_with_scalar_annulus_test(self):
        rng = np.random.default_rng(17)
        fam = random_unit_family(17, 150)
        for _ in range(50):
            w = rng.uniform(1e-3, 0.05)
            rect = Rect2(
                center=(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                angle=rng.uniform(0, math.pi),
                width=w,
                length=w + rng.uniform(0, 0.4),
            )
            delta = rng.uniform(1e-3, 0.05)
            got = set(lift_rect(rect, fam, delta).tolist())
            expected = {
                i for i in range(len(fam))
                if annulus_contains_rect(fam.circle(i), rect, delta)
            }
            assert got == expected


class TestSerialization:
    def test_pair_file_echoes_family_hash(self):
        fam = gen_clamshell(10)
        pairs = count_ct_delta_bruteforce(fam, 0.01)
        text = pairs.serialize(fam)
        assert f"family_hash={fam.provenance_hash()}" in text
        assert len(text.strip().splitlines()) == 1 + 45

    def test_ordered_count(self):
        fam = gen_clamshell(10)
        pairs = count_ct_delta_bruteforce(fam, 0.01)
        assert pairs.ordered_count == 90

    def test_pair_file_matches_per_pair_writer(self):
        # the writer the vectorized one replaced, kept as the byte-level oracle
        def per_pair(pairs, fam):
            pts = fam.points.astype(float)
            lines = [
                f"# family_hash={pairs.family_hash or fam.provenance_hash()} "
                f"delta={pairs.delta!r} n_pairs={len(pairs)}"
            ]
            for i, j in pairs.pairs:
                d = float(np.linalg.norm(pts[i] - pts[j]))
                p, q = pts[i], pts[j]
                gap = float(abs(math.hypot(p[0] - q[0], p[1] - q[1]) - abs(p[2] - q[2])))
                lines.append(f"{int(i)} {int(j)} {d!r} {gap!r}")
            return "\n".join(lines) + "\n"

        cases = [
            (clustered_unit_family(21, 1500), 1e-2),
            (random_unit_family(22, 1500), 2e-2),
            (gen_maximal_separated(24, 4, "annular").rescale(1 / 24), 1e-2),
        ]
        n_pairs = 0
        for fam, delta in cases:
            for counter in (count_ct_delta_bruteforce, count_ct_delta_hashed):
                pairs = counter(fam, delta)
                assert pairs.serialize(fam) == per_pair(pairs, fam)
                n_pairs += len(pairs)
        fam = random_unit_family(1, 3)
        empty = count_ct_delta_bruteforce(fam, 1e-9)
        assert len(empty) == 0 and empty.serialize(fam) == per_pair(empty, fam)
        assert n_pairs > 20000
