"""Tests of the experiment drivers, fitting harness, and report plumbing."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sstats

from conftest import clustered_unit_family, packed_key_counts, random_unit_family
from tangencylab import experiments as ex
from tangencylab import geometry
from tangencylab import planks as planks_mod
from tangencylab.errors import DegenerateSweepError, InvalidParamsError, ValidationError
from tangencylab.families import (
    CircleFamily,
    cube_box,
    gen_clamshell,
    gen_integer_lattice,
    gen_random_wellspaced,
    unit_box,
    wellspaced_candidates,
)
from tangencylab.geometry import (
    Lightplank,
    PlankBatch,
    comparability_gap_limit,
    comparability_graph,
    containment_window,
    frame_coords,
    in_window,
    is_exact_tangent_int,
    mutual_containment,
    plank_axes,
    wrap_angle,
)
from tangencylab.incidence import bin_dyadic, count_ct_delta_hashed
from tangencylab.planks import enumerate_incomparable, pair_planks, richness, slice_incidences


class TestScalingSweep:
    def test_exact_power_law(self):
        xs = [1.0, 2.0, 4.0, 8.0]
        fit = ex.scaling_sweep(xs, [x ** (4 / 3) for x in xs])
        assert fit.slope == pytest.approx(4 / 3, abs=1e-9)

    def test_constant_data(self):
        fit = ex.scaling_sweep([1, 2, 4, 8], [3.5] * 4)
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_noisy_power_law(self):
        rng = np.random.default_rng(0)
        xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        ys = xs ** (4 / 3) * (1 + 0.01 * rng.standard_normal(5))
        fit = ex.scaling_sweep(xs, ys)
        assert abs(fit.slope - 4 / 3) < 0.05

    def test_degenerate(self):
        with pytest.raises(DegenerateSweepError):
            ex.scaling_sweep([2, 2, 2], [1, 2, 3])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("xs", [
        [1e300, np.nextafter(1e300, np.inf)],  # distinct x, one log
        [1e200, np.nextafter(1e200, np.inf), 1e200],
        [0.0, 1.0], [-1.0, 2.0], [1.0, np.inf], [np.nan, 1.0, 2.0], [1.0], [],
    ])
    def test_no_log_spread_or_bad_abscissa_refused(self, xs):
        with pytest.raises(DegenerateSweepError):
            ex.scaling_sweep(xs, np.arange(1.0, len(xs) + 1.0))


def _assert_fit_is_linregress(xs, ys):
    """scaling_sweep equals scipy.stats.linregress on the log-log data, bit for bit."""
    fit = ex.scaling_sweep(xs, ys)
    ref = sstats.linregress(
        np.log(np.asarray(xs, dtype=float)), np.log(np.maximum(np.asarray(ys, dtype=float), 1e-300))
    )
    got = (repr(fit.slope), repr(fit.intercept), repr(fit.r_squared))
    assert got == (repr(float(ref.slope)), repr(float(ref.intercept)), repr(float(ref.rvalue**2)))
    return fit


class TestSweepMatchesLinregress:
    def test_random_sweeps(self):
        rng = np.random.default_rng(2024)
        cases = 0
        while cases < 2400:
            n = int(rng.integers(2, 13))
            xs = np.exp(rng.uniform(-5.0, 10.0, n))
            if np.unique(xs).size < 2:
                continue
            ys = np.exp(rng.normal(0.0, 3.0, n))
            kind = cases % 4
            if kind == 1:
                ys[rng.random(n) < 0.4] = 0.0
            elif kind == 2:
                ys[:] = ys[0]
            elif kind == 3:
                xs = np.round(xs) + 1.0
                if np.unique(xs).size < 2:
                    continue
            _assert_fit_is_linregress(xs, ys)
            cases += 1

    @pytest.mark.parametrize("xs, ys", [
        ([1, 2], [3, 7]),
        ([2, 1], [5, 5]),
        ([1e-3, 1e3], [0, 4]),
        ([64, 128], [0.25, 0.125]),
    ])
    def test_two_points(self, xs, ys):
        _assert_fit_is_linregress(xs, ys)

    @pytest.mark.parametrize("ys", [[3.5] * 4, [0.0] * 4])
    def test_constant_y_has_nan_r_squared(self, ys):
        fit = _assert_fit_is_linregress([1, 2, 4, 8], ys)
        assert fit.slope == 0.0 and math.isnan(fit.r_squared)

    @pytest.mark.parametrize("ys", [[0, 1, 0, 5], [2, 0, 3, 0, 7], [0, 0, 1e-9]])
    def test_zero_y_at_some_points(self, ys):
        _assert_fit_is_linregress([1, 2, 4, 8, 16][:len(ys)], ys)

    def test_rich_planks_ratios(self):
        # the [rectangle_bound] ratios at R = 256, 512, 1024 (rho = sqrt R, K = 2)
        ratios = [0.40126435267776994, 0.4405573164761421, 0.4189326270468272]
        fit = _assert_fit_is_linregress([256, 512, 1024], ratios)
        assert (fit.slope, fit.intercept, fit.r_squared) == (
            0.03108262562858446, -1.0615350845705525, 0.2123228640629452
        )


class TestChernoff:
    def test_exact_tails_match_scipy(self):
        for n, p in [(100, 0.05), (100, 0.1), (1000, 0.01)]:
            eu, el = ex.exact_binomial_tails(n, Fraction(str(p)))
            assert float(eu) == pytest.approx(sstats.binom.sf(math.floor(10 * n * p), n, p), rel=1e-9)
            k_below = math.ceil(n * p / 10) - 1
            assert float(el) == pytest.approx(sstats.binom.cdf(k_below, n, p), rel=1e-9)

    def test_bounds_hold_and_mc_consistent(self):
        rep = ex.chernoff_tails(100, 0.05, 200_000, seed=7)
        assert rep.summary["gates_pass"]
        assert rep.summary["upper_freq"] == 0.0
        assert rep.summary["lower_freq"] <= rep.summary["lower_bound"]

    def test_small_p_limit_identity(self):
        # P(S = 0) = (1-p)^n stays below exp(-n p / 2) whenever p <= 0.5
        for n, p in itertools.product([10, 100, 1000], [0.001, 0.01, 0.1, 0.3, 0.5]):
            lhs = Fraction(1) - Fraction(str(p))
            assert ex._leq_exp_bound(lhs**n, -n * float(Fraction(str(p))) / 2.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            ex.chernoff_tails(0, 0.5, 10)
        with pytest.raises(ValidationError):
            ex.chernoff_tails(10, 1.5, 10)

    @pytest.mark.parametrize("n, p, trials, name", [
        (0, 0.5, 10, "n"),
        (10, 0.0, 10, "p"),
        (10, 1.0, 10, "p"),
        (10, 1.5, 10, "p"),
        (10, math.nan, 10, "p"),
        (10, 0.5, 0, "trials"),
    ])
    def test_refusal_names_parameter(self, n, p, trials, name):
        with pytest.raises(ValidationError, match=f"^{name}: "):
            ex.chernoff_tails(n, p, trials)

    def test_zero_tail_beyond_support(self):
        eu, _ = ex.exact_binomial_tails(100, Fraction(1, 10))
        # 10 n p equals n: no mass strictly above
        assert eu == 0


class TestRectangleBound:
    def test_small_sweep_passes_gate(self):
        rep = ex.run_rectangle_bound([64, 128, 256], slope_gate=0.35)
        assert rep.summary["gates_pass"]
        assert abs(rep.summary["slope"]) < 0.35
        for row in rep.rows:
            assert row["pass"] == "1"

    def test_single_plank_ratio_identity(self):
        # a family fully inside one plank realizes mu^(4/3) * 1 / mu^(4/3) = 1
        from tangencylab.geometry import Lightplank, plank_axes
        from tangencylab.planks import RichnessTable

        mu = 16
        table = RichnessTable(mu_buckets={mu: 1}, n_rich=1, max_richness=mu)
        lhs, mu_hat = ex._max_bucket_metric(table)
        assert lhs / mu ** (4 / 3) == pytest.approx(1.0)
        assert mu_hat == mu

    def test_clamshell_control_flagged(self):
        rep = ex.run_rectangle_bound([64, 128], include_control=True, control_N=30)
        control = rep.rows[-1]
        assert control["pass"] == "flagged"
        assert control["ratio"] > 0


class TestCtBound:
    def test_reference_configuration_frozen(self):
        rep = ex.run_ct_bound([1 / 64], rho=4.0)
        row = rep.rows[0]
        assert row["pass"] == "1"
        assert row["lhs"] == 5030296  # frozen ordered count
        assert row["mu_hat"] == 32  # cap witness: constant-1 bound just misses
        assert rep.summary["gates_pass"]

    def test_trivial_inequality_smallest_mu(self):
        # zero pairs always certify the smallest dyadic witness
        rep = ex.run_ct_bound([1 / 8], rho=2.0)
        assert rep.rows[0]["mu_hat"] >= 1


class TestExactCt:
    def test_counts_match_python_oracle(self):
        rep = ex.run_exact_ct([2, 3])
        for n, count in zip([2, 3], rep.summary["counts_unordered"]):
            fam = gen_integer_lattice(n)
            expected = sum(
                1
                for i, j in itertools.combinations(range(len(fam)), 2)
                if is_exact_tangent_int(fam.circle(i), fam.circle(j))
            )
            assert count == expected

    def test_lattice_flags_degeneracies(self):
        rep = ex.run_exact_ct([4])
        row = rep.rows[0]
        assert row["pass"] == "flagged"  # unit spacing and embedded light rays
        assert row["mu_hat"] > 0  # rays carrying three or more points exist

    def test_clamshell_integer_fully_degenerate(self):
        fam = gen_clamshell(10, integer=True)
        from tangencylab.incidence import count_ct0_exact

        pairs = count_ct0_exact(fam)
        assert len(pairs) == 45
        assert ex.light_ray_degeneracy(fam, pairs) == 1  # one ray, all points


class TestLemma28:
    def test_single_pair(self):
        pts = np.array([[0.0, 0.0, 1.0], [0.3, 0.0, 1.3]])
        fam = CircleFamily(pts, 1.0, 0.0, unit_box(), {"generator": "pair"})
        rep = ex.run_lemma28_check(fam, 0.01, A=2.0)
        assert len(rep.rows) == 1
        row = rep.rows[0]
        assert row["lhs"] == 1.0
        assert row["rhs"] >= 4.0
        assert row["ratio"] <= 0.25
        assert rep.summary["gates_pass"]

    def test_clamshell_order_one_ratio(self):
        N = 60
        rep = ex.run_lemma28_check(gen_clamshell(N), 0.01, A=2.0)
        assert rep.summary["gates_pass"]
        assert 0.005 <= rep.summary["max_ratio"] <= 10.0
        # the widest bucket is covered by very few planks holding many points
        top = max(rep.summary["per_scale"])
        assert rep.summary["per_scale"][top]["planks"] <= 5

    def test_random_families_coverage_and_incomparability(self):
        for seed in (0, 1, 2):
            fam = clustered_unit_family(seed + 70, 300)
            rep = ex.run_lemma28_check(fam, 0.02, A=2.0)
            assert rep.summary["gates_pass"]
            for detail in rep.summary["per_scale"].values():
                assert detail["incomparability_violations"] == 0


def _oracle_plank_sum_greedy(planks, ends, A):
    """The plank-sum greedy as an all-kept scan: the reference for _plank_sum_greedy.

    Each candidate is compared with every kept plank, in kept order; the
    incomparability diagnostic compares every pair of kept planks.
    """
    hw = planks[0].half_widths() if planks else np.zeros(3)
    point_window = containment_window(0.0, hw, A, inner_hw=np.zeros(3))

    def covers(k, t):
        P = planks[k]
        return bool(in_window(frame_coords(P.frame.matrix(), ends[t] - P.v), point_window).all())

    def arrays(idx):
        return (np.array([planks[k].frame.theta for k in idx]),
                np.array([planks[k].v for k in idx]).reshape(-1, 3),
                np.array([planks[k].frame.matrix() for k in idx]).reshape(-1, 3, 3))

    kept, witness = [], []
    for t, P in enumerate(planks):
        inside, holds = mutual_containment(
            P.frame.theta, P.v, P.frame.matrix(), *arrays(kept), hw, A
        )
        hit = [k for k, h in zip(kept, inside) if h]
        cover = [k for k, h in zip(kept, holds) if h and covers(k, t)]
        if hit or cover:
            witness.append((hit or cover)[0])
        else:
            witness.append(t)
            kept.append(t)
    coverage_ok = all(
        covers(witness[t], t) or any(covers(k, t) for k in kept) for t in range(len(planks))
    )
    violations = 0
    for x, a in enumerate(kept):
        P = planks[a]
        inside, holds = mutual_containment(
            P.frame.theta, P.v, P.frame.matrix(), *arrays(kept[x + 1:]), hw, A
        )
        violations += int(np.sum(inside | holds))
    return kept, witness, coverage_ok, violations


def _brute_graph(batch, K):
    """Comparable pairs (earlier, later, inside, holds) by an all-pairs kernel scan."""
    out = []
    for b in range(1, len(batch)):
        inside, holds = mutual_containment(
            batch.thetas[b], batch.centers[b], batch.mats[b],
            batch.thetas[:b], batch.centers[:b], batch.mats[:b], batch.half_widths(), K,
        )
        out += [(a, b, bool(i), bool(h)) for a, (i, h) in enumerate(zip(inside, holds)) if i or h]
    return out


def _graph_of(batch, K):
    return [tuple(col.tolist()) for col in comparability_graph(batch, K)]


def _as_angle(t):
    return t if -math.pi <= t < math.pi else wrap_angle(t)


@st.composite
def _greedy_cases(draw):
    """Same-shape candidate planks and pair endpoints, adversarial for the angle-gap index."""
    delta = 0.02
    # at D = delta and A >= 2 every gap is in reach; just above it the limit
    # nears pi, where the bound it comes from is tight
    D = draw(st.sampled_from([delta, delta * (1.0 + 1e-9), delta * 1.001, 0.05, 0.5]))
    A = draw(st.sampled_from([1.0, 2.0, 3.5]))
    # the pair plank's shape (thin along the ray), or the lifted rectangle's
    sides = draw(st.sampled_from([(delta, 2.0 * D), (2.0 * D, delta)]))
    hw = Lightplank(plank_axes(0.0), np.zeros(3), *sides).half_widths()
    g = comparability_gap_limit(hw, A)
    m = draw(st.integers(0, 12))
    kind = draw(st.sampled_from(["near", "wrap", "limit", "clamshell", "faces"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    theta0 = draw(st.sampled_from([0.0, -math.pi, 1.0]))
    if kind == "near":
        thetas = theta0 + rng.uniform(-1.0, 1.0, m) * g * draw(st.sampled_from([0.1, 0.5, 1.2]))
    elif kind == "wrap":
        seam = [-math.pi, math.nextafter(-math.pi, 0.0), math.nextafter(math.pi, 0.0),
                math.pi - g / 2.0, -math.pi + g / 2.0, math.pi - g, -math.pi + g]
        thetas = rng.choice(seam, m)
    elif kind == "limit":
        # pairs at exactly the limit and 1 ulp either side of it
        edge = [g, math.nextafter(g, 0.0), math.nextafter(g, 4.0)]
        thetas = rng.choice([0.0] + edge + [-e for e in edge], m)
    else:
        thetas = np.full(m, theta0)
        if kind == "faces":
            thetas[1:] += rng.uniform(-1.0, 1.0, max(m - 1, 0)) * g
    thetas = np.array([_as_angle(t) for t in thetas])
    U0 = plank_axes(_as_angle(theta0)).matrix()
    v0 = np.array([0.1, -0.2, 1.5])
    scale = draw(st.sampled_from([0.0, 0.02, 0.5, 1.5])) * A * hw
    centers = v0 + (rng.uniform(-1.0, 1.0, (m, 3)) * scale) @ U0
    if kind == "clamshell":
        # all on one angle, spread along the long axis
        long = 2 if hw[2] >= hw[0] else 0
        centers = v0 + np.outer(rng.integers(-4, 5, m) * hw[long] / 2.0, U0[long])
    elif kind == "faces" and m:
        # centres on the window faces of the first plank, on some axes
        U = plank_axes(thetas[0]).matrix()
        window = containment_window(thetas - thetas[0], hw, A)
        on_face = rng.random((m, 3)) < 0.7
        offsets = np.where(on_face, window, rng.uniform(0.0, 1.0, (m, 3)) * np.abs(window))
        centers = v0 + (offsets * rng.choice([-1.0, 1.0], (m, 3))) @ U
        centers[0] = v0
    batch = PlankBatch(thetas, centers, *sides)
    point_window = containment_window(0.0, hw, A, inner_hw=np.zeros(3))
    reach = draw(st.sampled_from([0.5, 1.0, 1.3]))  # 1.0 puts endpoints on the faces
    ends = np.array([
        v + (rng.choice([-1.0, 1.0], (2, 3)) * point_window
             * (reach if reach == 1.0 else rng.uniform(0.0, reach, (2, 3)))) @ U
        for v, U in zip(batch.centers, batch.mats)
    ]).reshape(m, 2, 3)
    return batch, ends, A


def _planks_of(batch):
    return [batch.plank(t) for t in range(len(batch))]


class TestPlankSumGreedy:
    @given(_greedy_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_all_kept_scan(self, case):
        batch, ends, A = case
        assert list(zip(*_graph_of(batch, A))) == _brute_graph(batch, A)
        kept, witness, coverage_ok, violations = ex._plank_sum_greedy(batch, ends, A)
        want = _oracle_plank_sum_greedy(_planks_of(batch), ends, A)
        assert (kept.tolist(), witness.tolist(), coverage_ok, violations) == want

    def test_blocks_do_not_change_the_graph(self, monkeypatch):
        rng = np.random.default_rng(5)
        batch = PlankBatch(
            rng.uniform(-math.pi, math.pi, 200), rng.uniform(-0.1, 0.1, (200, 3)), 0.02, 0.2
        )
        want = _graph_of(batch, 2.0)
        assert len(want[0]) > 10
        for block in (1, 2, 7, 1000):
            monkeypatch.setattr(geometry, "_PAIR_BLOCK", block)
            assert _graph_of(batch, 2.0) == want

    @pytest.mark.parametrize("fam", [
        random_unit_family(11, 300), clustered_unit_family(12, 160), gen_clamshell(40),
    ], ids=["uniform", "clustered", "clamshell"])
    def test_family_buckets_match_all_kept_scan(self, fam):
        binned = bin_dyadic(count_ct_delta_hashed(fam, 0.02), fam)
        sizes = []
        for D, bucket in binned.by_distance.items():
            batch = pair_planks(fam.points, bucket, 0.02, length=2.0 * D)
            ends = fam.points.astype(float)[bucket]
            assert list(zip(*_graph_of(batch, 2.0))) == _brute_graph(batch, 2.0)
            kept, witness, coverage_ok, violations = ex._plank_sum_greedy(batch, ends, 2.0)
            assert (kept.tolist(), witness.tolist(), coverage_ok, violations) == \
                _oracle_plank_sum_greedy(_planks_of(batch), ends, 2.0)
            sizes.append(len(batch))
        assert max(sizes) > 30

    def test_empty_bucket(self):
        fam = random_unit_family(1, 10)
        batch, kept, coverage_ok, violations = ex._lemma28_extract(
            fam, np.empty((0, 2), dtype=np.int64), 0.02, 0.5, 2.0
        )
        assert len(batch) == 0 and kept.size == 0 and coverage_ok and violations == 0
        assert ex._plank_sum_greedy(batch, np.empty((0, 2, 3)), 2.0)[1].size == 0


class TestSharpness:
    def test_summary_fields_and_gate_split(self):
        rep = ex.run_sharpness(R=2**8, rho=2**4, eps=0.25, seeds=[0, 1])
        s = rep.summary
        assert s["n_seeds"] == 2
        assert set(s["per_seed"][0]) >= {
            "occupancy_ok", "plank_ok_stated", "plank_ok_exact", "bucket_concentration",
            "n_judged_outside",
        }
        assert s["n_pass_occupancy"] == 2  # occupancy holds easily at this scale
        assert s["single_tile"] == 1  # tile side 100 rho = 1600 exceeds R
        # single tile: m = 4.0e-6 leaves [m/10, 10 m] without an integer, and
        # no plank has m_P large enough to fit the tail budget
        assert math.ceil(s["m_asymptotic"] / 10) > math.floor(10 * s["m_asymptotic"])
        assert s["flagged_gates"] == ["plank_stated", "plank_exact"]
        assert s["n_pass_plank_stated"] is None
        assert s["n_pass_plank_exact_expectation"] is None
        assert s["n_planks_judged"] == 0 and s["m_judged_min"] is None
        for r in s["per_seed"]:
            assert r["plank_ok_stated"] is None and r["plank_ok_exact"] is None
        # only occupancy is judged, and it holds
        assert s["n_pass_judged"] == 2 and s["gates_pass"]
        assert [row["pass"] for row in rep.rows] == ["flagged", "flagged"]

    def test_judged_set_fixed_before_the_draw(self):
        # tiled scale (100 rho <= R): the exact-mean window is judged
        keys = ("n_planks_judged", "m_judged_min", "judged_tail_bound", "flagged_gates")
        a = ex.run_sharpness(R=2**10, rho=2, eps=0.1, seeds=[0, 1]).summary
        b = ex.run_sharpness(R=2**10, rho=2, eps=0.1, seeds=[7]).summary
        assert a["single_tile"] == 0
        assert a["flagged_gates"] == ["plank_stated"]
        assert a["n_planks_judged"] > 0
        assert {k: a[k] for k in keys} == {k: b[k] for k in keys}
        assert 0 < a["judged_tail_bound"] <= ex.JUDGED_TAIL_BUDGET == 0.05
        assert a["n_pass_plank_exact_expectation"] == 2
        for r in a["per_seed"] + b["per_seed"]:
            assert r["plank_ok_exact"] == (r["n_judged_outside"] == 0)

    def test_judged_selection_is_the_largest_within_budget(self):
        # flat in (slice, key) order: slice 0 (keys 3, 5, 9) has m_P = 40, 10
        # and 2; slice 1 (keys 1, 2, 4) has m_P = 20, 20 and 6
        p = 0.5
        slice_of, keys = np.array([0, 0, 0, 1, 1, 1]), np.array([3, 5, 9, 1, 2, 4])
        m = p * np.array([80, 20, 4, 40, 40, 12]).astype(float)
        judged, total = ex._judged_planks(m)
        bound = lambda m: math.exp(-5 * m) + math.exp(-m / 2)
        ms = sorted((float(v) for v in m[judged]), reverse=True)
        assert ms == [40.0, 20.0, 20.0, 10.0]
        assert total == pytest.approx(sum(bound(m) for m in ms))
        assert total <= ex.JUDGED_TAIL_BUDGET < total + bound(6.0)
        # taken by decreasing m_P; the tied 20s by slice, then key
        assert list(zip(slice_of[judged].tolist(), keys[judged].tolist())) == [
            (0, 3), (1, 1), (1, 2), (0, 5)
        ]

    def test_empty_seed_list_refused(self):
        with pytest.raises(InvalidParamsError, match="seeds"):
            ex.run_sharpness(R=2**8, rho=2**4, eps=0.25, seeds=[])

    def test_invalid_rho(self):
        with pytest.raises(InvalidParamsError):
            ex.run_sharpness(R=2**8, rho=2**5, eps=0.2, seeds=[0])  # rho > sqrt(R)


@pytest.fixture(scope="module")
def tiled_candidates():
    """The R = 2^10 collection, the rho = 2 candidates Y and their incidences."""
    coll = enumerate_incomparable(2**10, S=2**10, K=2.0)
    cand, _ = wellspaced_candidates(2**10, 2)
    return coll, cand, list(slice_incidences(coll, cand.astype(float), 1.0))


class TestSharpnessRestriction:
    """Per-seed counts restrict the candidates' plank incidences to the draw."""

    @pytest.mark.parametrize("rho, eps, seeds", [(2, 0.1, [0, 1, 7]), (2**5, 0.2, [0, 1, 2, 3])])
    def test_counts_equal_slice_counts_of_the_draw(self, tiled_candidates, rho, eps, seeds):
        coll = tiled_candidates[0]
        cand, _ = wellspaced_candidates(2**10, rho)
        incidences = list(slice_incidences(coll, cand.astype(float), 1.0))
        cand_slices = packed_key_counts(coll, cand)
        for (counts, rows), (_, _, oracle) in zip(incidences, cand_slices):
            assert counts.dtype == rows.dtype == np.int32
            assert np.array_equal(counts, oracle) and rows.size == counts.sum()
        drawn = 0
        for seed in seeds:
            fam = gen_random_wellspaced(2**10, rho, eps, seed)
            want = []
            fam_slices = packed_key_counts(coll, fam.points)
            for (ckeys, _, _), (fkeys, _, fcounts) in zip(cand_slices, fam_slices):
                # every plank a drawn point reaches holds candidates
                assert np.isin(fkeys, ckeys).all()
                full = np.zeros(ckeys.size, dtype=np.int64)
                full[np.searchsorted(ckeys, fkeys)] = fcounts
                want.append(full)
            got = ex._drawn_counts(cand, incidences, fam.points)
            assert np.array_equal(got, np.concatenate(want))
            drawn += int(got.sum())
        assert drawn > 0

    def test_judged_counts_equal_richness(self, tiled_candidates):
        coll, cand, incidences = tiled_candidates
        R, rho, eps = 2**10, 2, 0.1
        p = R**eps * rho**-3.0
        cand_counts = np.concatenate([counts for counts, _ in incidences])
        judged, _ = ex._judged_planks(p * cand_counts.astype(float))
        assert judged.size > 0
        per_slice = packed_key_counts(coll, cand)
        slice_of = np.concatenate([np.full(k.size, j) for j, (k, _, _) in enumerate(per_slice)])
        cells = np.concatenate([c for _, c, _ in per_slice])
        cand_fam = CircleFamily(cand.astype(float), R, rho, cube_box(R), {})
        fam = gen_random_wellspaced(R, rho, eps, 1)
        counts = ex._drawn_counts(cand, incidences, fam.points)
        for t in judged.tolist():
            j = int(slice_of[t])
            center = (cells[t:t + 1] * coll.spacing) @ coll.slices[j].frame.matrix()
            plank = coll.plank_at(j, center[0])
            assert richness(plank, cand_fam, K=1.0) == cand_counts[t]
            assert richness(plank, fam, K=1.0) == counts[t]

    @pytest.mark.parametrize("point", [
        (0.0, 0.0, 0.0),  # integral, inside the box, between tiles
        (100.0, 100.0, 100.5),  # packs to the key of candidate (100, 100, 100)
        (-3.0, 100.0, 100.0),  # below the box
        (5000.0, 100.0, 100.0),  # above it
        (np.nan, 100.0, 100.0),
    ])
    def test_point_off_the_candidates_raises(self, tiled_candidates, point):
        _, cand, incidences = tiled_candidates
        pts = np.array([[100.0, 100.0, 100.0], [99.0, 101.0, 300.0]])
        assert ex._drawn_counts(cand, incidences, pts).sum() > 0
        with pytest.raises(ValidationError, match="candidate"):
            ex._drawn_counts(cand, incidences, np.vstack([pts, point]))

    def test_one_assignment_pass_per_slice(self, monkeypatch):
        calls = []
        assign = planks_mod._assign_points

        def counted(coll, j, pts, K_rich):
            calls.append(j)
            return assign(coll, j, pts, K_rich)

        monkeypatch.setattr(planks_mod, "_assign_points", counted)
        n_slices = len(enumerate_incomparable(2**8, S=2**8, K=2.0).slices)
        for seeds in ([0], [0, 1, 2, 3]):
            calls.clear()
            ex.run_sharpness(R=2**8, rho=2**4, eps=0.25, seeds=seeds)
            assert sorted(calls) == list(range(n_slices))


class TestReports:
    def test_csv_columns_fixed_and_reproducible(self, tmp_path):
        rep1 = ex.run_rectangle_bound([64, 128], slope_gate=0.35)
        rep2 = ex.run_rectangle_bound([64, 128], slope_gate=0.35)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        rep1.write_csv(p1)
        rep2.write_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[1].split(",")
        assert header == ex.CSV_COLUMNS

    def test_json_summary_written(self, tmp_path):
        rep = ex.chernoff_tails(50, 0.1, 1000, seed=1)
        out = tmp_path / "r.json"
        rep.write_json(out)
        import json

        data = json.loads(out.read_text())
        assert data["experiment"] == "chernoff"
        assert "gates_pass" in data["summary"]

    def test_ct_row_recomputable_from_serialized_family(self, tmp_path):
        # a report row's count must be reproducible by the brute-force path
        # on the family rebuilt from its serialized form
        from tangencylab.families import gen_maximal_separated, load_family
        from tangencylab.incidence import count_ct_delta_bruteforce

        delta, rho = 1 / 16, 4.0
        rep = ex.run_ct_bound([delta], rho=rho)
        row = rep.rows[0]
        fam = gen_maximal_separated(1 / delta, rho, box_kind="annular").rescale(delta)
        path = tmp_path / "fam.txt"
        fam.save(path)
        back = load_family(path)
        assert len(back) <= 2000
        assert count_ct_delta_bruteforce(back, delta).ordered_count == row["lhs"]
