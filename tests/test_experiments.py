"""Tests of the experiment drivers, fitting harness, and report plumbing."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sstats

from conftest import clustered_unit_family, random_unit_family
from tangencylab import experiments as ex
from tangencylab import geometry
from tangencylab.errors import DegenerateSweepError, InvalidParamsError, ValidationError
from tangencylab.families import CircleFamily, gen_clamshell, gen_integer_lattice, unit_box
from tangencylab.geometry import (
    Lightplank,
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


def _brute_graph(planks, hw, K):
    """Comparable pairs (earlier, later, inside, holds) by an all-pairs kernel scan."""
    out = []
    for b, P in enumerate(planks[1:], start=1):
        inside, holds = mutual_containment(
            P.frame.theta, P.v, P.frame.matrix(),
            np.array([Q.frame.theta for Q in planks[:b]]), np.array([Q.v for Q in planks[:b]]),
            np.array([Q.frame.matrix() for Q in planks[:b]]), hw, K,
        )
        out += [(a, b, bool(i), bool(h)) for a, (i, h) in enumerate(zip(inside, holds)) if i or h]
    return out


def _graph_of(planks, hw, K):
    m = len(planks)
    graph = comparability_graph(
        np.array([P.frame.theta for P in planks]), np.array([P.v for P in planks]).reshape(m, 3),
        np.array([P.frame.matrix() for P in planks]).reshape(m, 3, 3), hw, K,
    )
    return [tuple(col.tolist()) for col in graph]


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
    planks = [Lightplank(plank_axes(float(t)), c, *sides) for t, c in zip(thetas, centers)]
    point_window = containment_window(0.0, hw, A, inner_hw=np.zeros(3))
    reach = draw(st.sampled_from([0.5, 1.0, 1.3]))  # 1.0 puts endpoints on the faces
    ends = np.array([
        P.v + (rng.choice([-1.0, 1.0], (2, 3)) * point_window
               * (reach if reach == 1.0 else rng.uniform(0.0, reach, (2, 3)))) @ P.frame.matrix()
        for P in planks
    ]).reshape(m, 2, 3)
    return planks, ends, hw, A


class TestPlankSumGreedy:
    @given(_greedy_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_all_kept_scan(self, case):
        planks, ends, hw, A = case
        assert list(zip(*_graph_of(planks, hw, A))) == _brute_graph(planks, hw, A)
        kept, witness, coverage_ok, violations = ex._plank_sum_greedy(planks, ends, A)
        want = _oracle_plank_sum_greedy(planks, ends, A)
        assert (kept.tolist(), witness.tolist(), coverage_ok, violations) == want

    def test_blocks_do_not_change_the_graph(self, monkeypatch):
        rng = np.random.default_rng(5)
        hw = Lightplank(plank_axes(0.0), np.zeros(3), 0.02, 0.2).half_widths()
        planks = [
            Lightplank(plank_axes(t), c, 0.02, 0.2)
            for t, c in zip(rng.uniform(-math.pi, math.pi, 200), rng.uniform(-0.1, 0.1, (200, 3)))
        ]
        want = _graph_of(planks, hw, 2.0)
        assert len(want[0]) > 10
        for block in (1, 2, 7, 1000):
            monkeypatch.setattr(geometry, "_PAIR_BLOCK", block)
            assert _graph_of(planks, hw, 2.0) == want

    @pytest.mark.parametrize("fam", [
        random_unit_family(11, 300), clustered_unit_family(12, 160), gen_clamshell(40),
    ], ids=["uniform", "clustered", "clamshell"])
    def test_family_buckets_match_all_kept_scan(self, fam):
        binned = bin_dyadic(count_ct_delta_hashed(fam, 0.02), fam)
        sizes = []
        for D, bucket in binned.by_distance.items():
            planks = [ex.pair_plank(fam.circle(i), fam.circle(j), 0.02, length=2.0 * D)
                      for i, j in bucket]
            ends = fam.points.astype(float)[bucket]
            kept, witness, coverage_ok, violations = ex._plank_sum_greedy(planks, ends, 2.0)
            assert (kept.tolist(), witness.tolist(), coverage_ok, violations) == \
                _oracle_plank_sum_greedy(planks, ends, 2.0)
            sizes.append(len(planks))
        assert max(sizes) > 30

    def test_empty_bucket(self):
        fam = random_unit_family(1, 10)
        kept, coverage_ok, violations = ex._lemma28_extract(
            fam, np.empty((0, 2), dtype=np.int64), 0.02, 0.5, 2.0
        )
        assert kept == [] and coverage_ok and violations == 0
        assert ex._plank_sum_greedy([], np.empty((0, 2, 3)), 2.0)[1].size == 0


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
        # slice 0: m_P = 40, 10 and 2; slice 1: m_P = 20, 20 and 6
        p = 0.5
        cand = [
            (np.array([3, 5, 9]), np.array([80, 20, 4])),
            (np.array([1, 2, 4]), np.array([40, 40, 12])),
        ]
        judged, total = ex._judged_planks(cand, p)
        bound = lambda m: math.exp(-5 * m) + math.exp(-m / 2)
        ms = sorted((float(m) for _, arr in judged for m in arr), reverse=True)
        assert ms == [40.0, 20.0, 20.0, 10.0]
        assert total == pytest.approx(sum(bound(m) for m in ms))
        assert total <= ex.JUDGED_TAIL_BUDGET < total + bound(6.0)
        assert judged[0][0].tolist() == [3, 5] and judged[1][0].tolist() == [1, 2]

    def test_invalid_rho(self):
        with pytest.raises(InvalidParamsError):
            ex.run_sharpness(R=2**8, rho=2**5, eps=0.2, seeds=[0])  # rho > sqrt(R)


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
