"""Experiment drivers: both sides of each scaling inequality at desk scale.

Each driver builds its configurations deterministically from parameters and
seeds, computes the left and right side of the target inequality, and emits
an ExperimentReport with fixed CSV columns plus a JSON summary carrying
fitted slopes, gate outcomes, and provenance hashes. Constants in the
inequalities are unknown in principle, so gates are slope thresholds and
frozen regression baselines rather than absolute-constant assertions.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from .errors import DegenerateSweepError, InvalidParamsError, ValidationError
from .errors import check_dilation, check_positive, check_seed, parse_value
from .families import (
    WELLSPACED_GRID_FACTOR,
    CircleFamily,
    check_separation,
    cube_box,
    cube_occupancy,
    format_scalar,
    gen_clamshell,
    gen_integer_lattice,
    gen_maximal_separated,
    gen_random_wellspaced,
    pack_grid_keys,
    wellspaced_candidates,
    wellspaced_probability,
)
from .geometry import PlankBatch, comparability_graph, frame_coords, in_window, point_window
from .incidence import bin_dyadic, count_ct0_exact, count_ct_delta_hashed
from .planks import (
    add_dyadic_counts,
    enumerate_incomparable,
    mu_buckets,
    pair_planks,
    richness,
    slice_incidences,
)

# runtime_ms stays in the schema but is left empty: wall-clock time would
# make two runs of one config differ, and reports are byte-stable
CSV_COLUMNS = [
    "experiment", "R", "rho", "delta", "eps", "K", "seed",
    "lhs", "rhs", "ratio", "mu_hat", "pass", "runtime_ms",
]


@dataclass
class ExperimentReport:
    """Fixed-column rows plus a free-form JSON summary."""

    experiment: str
    rows: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def add_row(self, **kwargs):
        row = {col: kwargs.get(col, "") for col in CSV_COLUMNS}
        row["experiment"] = self.experiment if not kwargs.get("experiment") else kwargs["experiment"]
        self.rows.append(row)

    def to_csv(self) -> str:
        lines = ["# provenance=" + self.summary.get("provenance", "")]
        lines.append(",".join(CSV_COLUMNS))
        for row in self.rows:
            lines.append(",".join(format_scalar(row.get(c, "")) for c in CSV_COLUMNS))
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        with open(path, "w", newline="\n") as fh:
            fh.write(self.to_csv())

    def write_json(self, path):
        with open(path, "w") as fh:
            json.dump({"experiment": self.experiment, "summary": self.summary}, fh, indent=2,
                      default=_json_default)
            fh.write("\n")

    def gates_pass(self) -> bool:
        return bool(self.summary.get("gates_pass", True))


def _json_default(obj):
    if isinstance(obj, (np.integer, np.floating, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _parallel_map(fn, jobs: list, workers: int) -> list:
    """Run jobs preserving order; results are deterministic per job."""
    if workers <= 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


# ---------------------------------------------------------------------------
# log-log fitting harness
# ---------------------------------------------------------------------------


@dataclass
class SweepFit:
    slope: float
    intercept: float
    r_squared: float


def scaling_sweep(xs, ys) -> SweepFit:
    """Least-squares slope of log(y) against log(x).

    Raises DegenerateSweepError when an abscissa is not finite and positive,
    or when their logs carry no spread: distinct x can share a log. A zero
    or constant observable fits slope 0 by convention of the log transform
    applied to max(y, tiny). The arithmetic is that of scipy's linregress, so
    the fit matches it bit for bit.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if not np.all((xs > 0) & (xs < np.inf)) or np.unique(np.log(xs)).size < 2:
        raise DegenerateSweepError("sweep needs finite positive abscissae with two distinct logs")
    lx = np.log(xs)
    ly = np.log(np.maximum(ys, 1e-300))
    ssxm, ssxym, _, ssym = np.cov(lx, ly, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = math.nan if ssxym == 0 else 0.0
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    slope = ssxym / ssxm
    return SweepFit(
        slope=float(slope),
        intercept=float(np.mean(ly) - slope * np.mean(lx)),
        r_squared=float(r**2),
    )


# ---------------------------------------------------------------------------
# rectangle / plank scaling experiment
# ---------------------------------------------------------------------------


def _max_bucket_metric(table) -> tuple[float, int]:
    """max over dyadic mu of mu^(4/3) |P_mu| and the witnessing mu."""
    best, best_mu = 0.0, 1
    for mu, count in table.mu_buckets.items():
        val = mu ** (4.0 / 3.0) * count
        if val > best:
            best, best_mu = val, mu
    return best, best_mu


def run_rectangle_bound(
    R_values,
    rho_law: str = "sqrt",
    K: float = 2.0,
    slope_gate: float = 0.35,
    include_control: bool = False,
    control_N: int = 100,
    workers: int = 1,
) -> ExperimentReport:
    """Scaling of the richest-bucket functional against family size.

    For each R a deterministic maximal grid at separation rho(R) is built in
    [0, R]^3, the incomparable plank lattice at S = R is enumerated, planks
    are bucketed by richness, and the row records
    max_mu mu^(4/3) |P_mu| / |X|^(4/3). Across the sweep the fitted log-log
    slope against R must stay below slope_gate. An optional clamshell
    control violates the spacing precondition and is reported flagged.
    """
    for R in R_values:
        check_positive("R", R)
    if math.isnan(slope_gate):
        raise InvalidParamsError("slope_gate: must not be nan")
    if rho_law != "sqrt":
        parse_value("rho_law", rho_law)  # a number, refused before any job starts
    report = ExperimentReport(experiment="rectangle_bound")
    results = _parallel_map(_rectangle_job, [(R, rho_law, K) for R in R_values], workers)
    ratios = []
    for (R, row) in zip(R_values, results):
        report.rows.append(row)
        ratios.append(row["ratio"])
    fit = scaling_sweep(list(R_values), ratios)
    gates = fit.slope <= slope_gate
    if include_control:
        report.rows.append(_rectangle_control_row(max(R_values), control_N, K))
    report.summary = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "slope_gate": slope_gate,
        "gates_pass": bool(gates),
        "ratios": ratios,
        "R_values": list(R_values),
        "provenance": "rectangle_bound:" + ",".join(str(R) for R in R_values),
    }
    return report


def _rectangle_job(args) -> dict:
    R, rho_law, K = args
    rho = math.sqrt(R) if rho_law == "sqrt" else float(rho_law)
    fam = gen_maximal_separated(R, rho)
    sep_ok, _ = check_separation(fam, rho)
    card_ok = (R / rho) ** 3 / 8 <= len(fam) <= 8 * (R / rho) ** 3
    return _rectangle_row(R, rho, K, fam, "1" if (sep_ok and card_ok) else "flagged")


def _rectangle_control_row(R: float, N: int, K: float) -> dict:
    """Clamshell control: wildly non-spaced family through the same pipeline."""
    unit = gen_clamshell(N)
    pts = unit.points * (R / 2.0)
    fam = CircleFamily(
        points=pts, scale_R=R, separation_rho=math.sqrt(R), box=cube_box(R),
        provenance={"generator": "clamshell_control", "N": N},
    )
    return _rectangle_row(R, math.sqrt(R), K, fam, "flagged")


def _rectangle_row(R: float, rho: float, K: float, fam: CircleFamily, verdict: str) -> dict:
    """The rectangle_bound row of one family: enumerate, bucket, take the richest bucket."""
    coll = enumerate_incomparable(R, S=R, K=K)
    table = mu_buckets(coll, fam, K=1.0)
    lhs, mu_hat = _max_bucket_metric(table)
    rhs = len(fam) ** (4.0 / 3.0)
    return {
        "experiment": "rectangle_bound", "R": R, "rho": rho, "delta": "", "eps": "",
        "K": K, "seed": "", "lhs": lhs, "rhs": rhs, "ratio": lhs / rhs, "mu_hat": mu_hat,
        "pass": verdict,
    }


# ---------------------------------------------------------------------------
# near-tangency count experiment
# ---------------------------------------------------------------------------


def run_ct_bound(delta_values, rho: float = 4.0, workers: int = 1) -> ExperimentReport:
    """Near-tangency counts against the existential-mu bound at unit scale.

    For each delta a maximal grid at separation delta*rho is built in the
    unit-scale center-radius box, the ordered pair count is compared with
    mu^(2/3) |X|^(4/3) over dyadic mu up to delta^(-3/2) rho^(-2), and the
    row records the minimal dyadic witness mu_hat (the bound is existential;
    the minimal witness is one canonical choice).
    """
    for delta in delta_values:
        check_positive("delta", delta)
    report = ExperimentReport(experiment="ct_bound")
    rows = _parallel_map(_ct_job, [(d, rho) for d in delta_values], workers)
    report.rows.extend(rows)
    all_pass = all(r["pass"] == "1" for r in rows)
    report.summary = {
        "gates_pass": all_pass,
        "mu_hats": [r["mu_hat"] for r in rows],
        "counts_ordered": [r["lhs"] for r in rows],
        "provenance": "ct_bound:" + ",".join(repr(d) for d in delta_values),
    }
    return report


def _ct_job(args) -> dict:
    delta, rho = args
    R = 1.0 / delta
    fam_R = gen_maximal_separated(R, rho, box_kind="annular")
    fam = fam_R.rescale(delta)
    sep = delta * rho
    sep_ok, _ = check_separation(fam, sep)
    card = len(fam)
    card_ok = sep**-3 / 8 <= card <= 8 * sep**-3
    pairs = count_ct_delta_hashed(fam, delta)
    ordered = pairs.ordered_count
    mu_cap_exp = math.floor(math.log2(delta ** (-1.5) * rho**-2.0))
    mu_hat, rhs = None, 0.0
    for e in range(0, mu_cap_exp + 1):
        mu = 2**e
        bound = mu ** (2.0 / 3.0) * card ** (4.0 / 3.0)
        if ordered <= bound:
            mu_hat, rhs = mu, bound
            break
    if mu_hat is None:
        # no dyadic witness under the cap: report the cap and its bound
        mu_hat = 2**mu_cap_exp
        rhs = mu_hat ** (2.0 / 3.0) * card ** (4.0 / 3.0)
    return {
        "experiment": "ct_bound", "R": R, "rho": rho, "delta": delta, "eps": "",
        "K": "", "seed": "", "lhs": ordered, "rhs": rhs,
        "ratio": ordered / rhs if rhs > 0 else 0.0,
        "mu_hat": mu_hat,
        "pass": "1" if (sep_ok and card_ok) else "flagged",
    }


# ---------------------------------------------------------------------------
# exact tangency experiment
# ---------------------------------------------------------------------------


def light_ray_degeneracy(family: CircleFamily, pairs) -> int:
    """Number of light rays carrying >= 3 points of an integer family.

    pairs must be every tangent pair of the family, as count_ct0_exact
    gives them: all points on a common light ray are mutually tangent, so a
    ray with k points contributes its k(k-1)/2 pairs. Each pair is oriented
    so that dz > 0 and reduced to its primitive direction; the pairs of one
    (lower point, direction) group join that point to every point above it
    on its ray. So a ray of k >= 3 points has exactly one group of exactly
    two pairs, at its (k-2)-th point from the bottom, and a 2-point ray has
    none: the count of such groups is the count of rays. Everything stays
    in int64: differences of tangent pairs fit, since count_ct0_exact
    refuses spans that do not.
    """
    family.check_integer()
    pts = family.points.astype(np.int64)
    i, j = pairs.pairs[:, 0], pairs.pairs[:, 1]
    d = pts[j] - pts[i]
    up = d[:, 2] > 0
    lower = np.where(up, i, j)
    d[~up] *= -1
    d //= np.gcd.reduce(d, axis=1)[:, None]
    # group equal (lower point, direction) by one sort, then measure the runs
    key = np.column_stack([lower, d])
    key = key[np.lexsort(key.T)]
    starts = np.flatnonzero(np.r_[True, np.any(key[1:] != key[:-1], axis=1), True])
    return int(np.sum(np.diff(starts) == 2))


def run_exact_ct(n_values) -> ExperimentReport:
    """Exact tangency counts of integer lattice families across an n-sweep.

    Counts are exact; each row reports |CT_0| (unordered), the normalization
    |X|^(4/3 + 1/18), and validation flags: the lattice is unit-spaced, so
    the sqrt(R)-separation hypothesis fails and embedded light rays carry
    three or more points; both degeneracies are flagged, not fatal. The
    fitted growth exponent of the count against |X| is recorded in the
    summary as a baseline, not gated.
    """
    report = ExperimentReport(experiment="exact_ct")
    rows = []
    sizes, counts = [], []
    for n in n_values:
        fam = gen_integer_lattice(n)
        pairs = count_ct0_exact(fam, with_bins=True)
        sep_ok, _ = check_separation(fam, math.sqrt(fam.scale_R))
        degenerate_rays = light_ray_degeneracy(fam, pairs)
        exponent_norm = len(fam) ** (4.0 / 3.0 + 1.0 / 18.0)
        flags = []
        if not sep_ok:
            flags.append("separation")
        if degenerate_rays:
            flags.append("light_ray_triples")
        rows.append({
            "experiment": "exact_ct", "R": fam.scale_R, "rho": 1.0, "delta": 0.0, "eps": "",
            "K": "", "seed": "", "lhs": len(pairs), "rhs": exponent_norm,
            "ratio": len(pairs) / exponent_norm, "mu_hat": degenerate_rays,
            "pass": "flagged" if flags else "1",
        })
        sizes.append(len(fam))
        counts.append(len(pairs))
        report.summary.setdefault("bucket_decomposition", {})[str(n)] = {
            repr(D): int(p.shape[0]) for D, p in (pairs.by_distance or {}).items()
        }
    report.rows.extend(rows)
    fit = scaling_sweep(sizes, np.maximum(counts, 1)) if len(set(sizes)) > 1 else None
    report.summary.update({
        "gates_pass": True,
        "growth_exponent_vs_size": fit.slope if fit else None,
        "sizes": sizes,
        "counts_unordered": counts,
        "provenance": "exact_ct:" + ",".join(str(n) for n in n_values),
    })
    return report


# ---------------------------------------------------------------------------
# plank-sum consistency experiment
# ---------------------------------------------------------------------------


def run_lemma28_check(family: CircleFamily, delta: float, A: float = 2.0) -> ExperimentReport:
    """Plank-sum bound per dyadic distance scale, with witness coverage.

    Tangent pairs are binned by dyadic distance D; each pair lifts to a thin
    plank (delta thick, 2D long, so the pair sits inside it) and a greedy
    pass keeps a plank unless it is contained in the A-dilation of an
    earlier kept one, which guarantees every pair is covered by the
    A-dilation of some kept plank. The row per D compares the bucket size
    against sum over kept planks of |X intersect A P|^2.
    """
    check_dilation(A, "A")
    report = ExperimentReport(experiment="lemma28")
    pairs = count_ct_delta_hashed(family, delta)
    binned = bin_dyadic(pairs, family)
    overall_max = 0.0
    details = {}
    for D in sorted(binned.by_distance or {}):
        bucket = binned.by_distance[D]
        if D < delta or bucket.shape[0] == 0:
            continue
        batch, kept, coverage_ok, incomp_violations = _lemma28_extract(
            family, bucket, delta, D, A
        )
        # one richness call per kept plank, in row order: the benchmark finds
        # the kept planks by wrapping richness
        rhs = float(sum(richness(batch.plank(t), family, K=A) ** 2 for t in kept.tolist()))
        lhs = float(bucket.shape[0])
        ratio = lhs / rhs if rhs else float("inf")
        overall_max = max(overall_max, ratio)
        report.add_row(
            experiment="lemma28", R=D, rho="", delta=delta, eps="", K=A, seed="",
            lhs=lhs, rhs=rhs, ratio=ratio, mu_hat=len(kept),
            **{"pass": "1" if coverage_ok else "0"},
        )
        details[repr(D)] = {
            "pairs": int(lhs), "planks": len(kept), "ratio": ratio,
            "coverage_ok": bool(coverage_ok), "incomparability_violations": incomp_violations,
        }
    report.summary = {
        "gates_pass": all(r["pass"] == "1" for r in report.rows),
        "max_ratio": overall_max,
        "per_scale": details,
        "family_hash": family.provenance_hash(),
        "provenance": f"lemma28:{family.provenance_hash()}",
    }
    return report


def _lemma28_extract(family: CircleFamily, bucket: np.ndarray, delta: float, D: float, A: float):
    """Greedy plank family for one distance bucket plus coverage verification.

    Each pair lifts to a delta x sqrt(2 delta D) x 2D plank at its midpoint;
    the greedy runs on that batch in bucket order. Returns (the batch, kept
    row indices, coverage_ok, incomparability violations).
    """
    batch = pair_planks(family.points, bucket, delta, length=2.0 * D)
    ends = family.points.astype(float)[bucket.reshape(-1, 2)]
    kept_idx, _, coverage_ok, violations = _plank_sum_greedy(batch, ends, A)
    return batch, kept_idx, coverage_ok, violations


def _plank_sum_greedy(batch: PlankBatch, ends: np.ndarray, A: float):
    """Greedy incomparable family of same-shape candidate planks, with witnesses.

    Candidate t, with pair endpoints ends[t], is dropped exactly when it lies
    in the A-dilation of an earlier kept plank, or when an earlier kept plank
    in its A-dilation covers both endpoints directly; the first such kept
    plank, in that order of preference, is its witness. Only pairs the
    comparability graph joins can be comparable, so each candidate looks at
    its graph neighbours alone, in index order, and the kept list and
    witnesses are those of a scan over all kept planks. The verification
    re-tests every witness with the membership rule point_window, which
    richness applies too, and falls back to an existence scan.
    Returns (kept indices, witness per candidate, coverage_ok, comparable
    kept pairs).
    """
    m, centers, mats = len(batch), batch.centers, batch.mats
    window = point_window(batch.half_widths(), A)

    def covers(k, t) -> bool:
        return bool(in_window(frame_coords(mats[k], ends[t] - centers[k]), window).all())

    earlier, later, inside, holds = comparability_graph(batch, A)
    edge_start = np.searchsorted(later, np.arange(m + 1))
    kept = np.zeros(m, dtype=bool)
    witness = np.arange(m)
    for t in range(m):
        edges = slice(edge_start[t], edge_start[t + 1])
        nb = earlier[edges]
        live = kept[nb]
        hit = nb[live & inside[edges]]
        if hit.size:
            # the candidate sits in the dilation of a kept plank, which
            # therefore covers the pair
            witness[t] = hit[0]
            continue
        # reverse containment alone does not cover the pair; reject only
        # when the comparable kept plank covers both endpoints directly
        cover = next((k for k in nb[live & holds[edges]] if covers(k, t)), None)
        if cover is None:
            kept[t] = True
        else:
            witness[t] = cover

    kept_idx = np.flatnonzero(kept)
    offsets = frame_coords(mats[witness][:, None], ends - centers[witness][:, None])
    witnessed = in_window(offsets, window).all(axis=1)
    coverage_ok = all(
        any(covers(k, t) for k in kept_idx) for t in np.flatnonzero(~witnessed)
    )
    violations = int(np.count_nonzero(kept[earlier] & kept[later]))
    return kept_idx, witness, coverage_ok, violations


# ---------------------------------------------------------------------------
# randomized construction experiment
# ---------------------------------------------------------------------------


# Summed tail bound allowed over the planks on which the exact-mean window
# is judged. A judged plank P adds e^(-5 m_P) + e^(-m_P/2), the two Bernoulli
# tail bounds that chernoff_tails verifies, so by the union bound a correct
# draw leaves the window on some judged plank with probability at most this.
JUDGED_TAIL_BUDGET = 0.05


def run_sharpness(
    R: float,
    rho: float,
    eps: float,
    seeds,
    K: float = 2.0,
) -> ExperimentReport:
    """Per-seed gates for the randomized well-spaced construction.

    Three per-seed gates:

    - occupancy: no anchored rho-cube holds more than 10 R^eps points;
    - the plank window as stated at asymptotic scale: every plank of the
      maximal incomparable collection holds between m/10 and 10 m points,
      m = grid_factor^-3 R^(3/2) p;
    - the plank window at the exact mean, the desk-scale variant: every
      judged plank P holds between m_P/10 and 10 m_P points, where
      m_P = p |Y intersect P|. The judged planks are fixed per R before any
      draw (_judged_planks), so a correct construction fails this gate with
      probability at most JUDGED_TAIL_BUDGET per seed.

    A gate whose window can hold no count is reported in `flagged_gates`
    instead of failing: the stated gate when [m/10, 10 m] holds no integer
    (ceil(m/10) > floor(10 m)), the exact variant when no plank is judged.
    The stated gate is flagged at every desk scale: since rho >= R^eps,
    m <= 1e-6 R^(3/2), which reaches 1 only at R >= 2^14. When the tile side
    grid_factor * rho exceeds R the construction falls back to a single tile
    (`single_tile`), whose planks have m_P far below 1, so the exact variant
    is flagged too: at (R, rho, eps) = (2^10, 2^5, 0.2), m_P never exceeds
    0.22. A seed passes when every judged gate holds, and
    gates_pass needs 90% of the seeds. The summary also reports the dyadic
    bucket concentration of the rich planks.

    Y is assigned to planks once, and each draw, a subset of Y, is counted
    from those incidences (_drawn_counts).
    """
    seeds = list(seeds)
    if not seeds:
        raise InvalidParamsError("seeds: need at least one seed")
    p = wellspaced_probability(R, rho, eps)
    report = ExperimentReport(experiment="sharpness")
    coll = enumerate_incomparable(R, S=R, K=K)
    n_planks = len(coll)
    m_asym = WELLSPACED_GRID_FACTOR**-3.0 * R**1.5 * p
    cand, single_tile = wellspaced_candidates(R, rho)
    incidences = list(slice_incidences(coll, cand.astype(float), 1.0))
    cand_m = p * np.concatenate([counts for counts, _ in incidences]).astype(float)
    judged, judged_bound = _judged_planks(cand_m)
    judged_m = cand_m[judged]
    stated_judged = math.ceil(m_asym / 10.0) <= math.floor(10.0 * m_asym)
    exact_judged = judged_m.size > 0
    results = []
    for seed in seeds:
        fam = gen_random_wellspaced(R, rho, eps, seed)
        occ = cube_occupancy(fam, rho)
        occupancy_ok = occ.max_count <= 10.0 * R**eps
        counts = _drawn_counts(cand, incidences, fam.points)
        stats_seed = _sharpness_plank_stats(n_planks, counts, judged, judged_m)
        plank_ok_stated = (
            stats_seed["min_count"] >= m_asym / 10.0 and stats_seed["max_count"] <= 10.0 * m_asym
        ) if stated_judged else None
        plank_ok_exact = stats_seed["n_judged_outside"] == 0 if exact_judged else None
        gates = [occupancy_ok, plank_ok_stated, plank_ok_exact]
        seed_ok = all(g for g in gates if g is not None)
        mu_star = R ** (1.5 + eps) * rho**-3.0
        agg_ratio = mu_star ** (4.0 / 3.0) * n_planks / max(len(fam), 1) ** (4.0 / 3.0)
        results.append({
            "seed": seed, "pass": seed_ok, "occupancy_ok": occupancy_ok,
            "plank_ok_stated": plank_ok_stated, "plank_ok_exact": plank_ok_exact,
            "n_judged_outside": stats_seed["n_judged_outside"], "n_points": len(fam),
            "occupancy_max": occ.max_count, "bucket_concentration": stats_seed["concentration"],
            "agg_ratio": agg_ratio,
        })
        report.add_row(
            experiment="sharpness", R=R, rho=rho, delta="", eps=eps, K=K, seed=seed,
            lhs=occ.max_count, rhs=10.0 * R**eps,
            ratio=occ.max_count / (10.0 * R**eps),
            mu_hat=stats_seed["max_count"],
            **{"pass": "0" if not seed_ok else ("flagged" if None in gates else "1")},
        )
    n_pass = sum(1 for r in results if r["pass"])
    report.summary = {
        "gates_pass": n_pass >= math.ceil(0.9 * len(results)),
        "n_seeds": len(results),
        "n_pass_judged": n_pass,
        "n_pass_occupancy": sum(1 for r in results if r["occupancy_ok"]),
        "n_pass_plank_stated": (
            sum(1 for r in results if r["plank_ok_stated"]) if stated_judged else None
        ),
        "n_pass_plank_exact_expectation": (
            sum(1 for r in results if r["plank_ok_exact"]) if exact_judged else None
        ),
        "flagged_gates": [
            name for name, ok in (("plank_stated", stated_judged), ("plank_exact", exact_judged))
            if not ok
        ],
        "m_asymptotic": m_asym,
        "inclusion_p": p,
        "n_planks": n_planks,
        "n_planks_judged": int(judged_m.size),
        "m_judged_min": float(judged_m.min()) if exact_judged else None,
        "judged_tail_bound": judged_bound,
        "single_tile": int(single_tile),
        "per_seed": results,
        "agg_ratio_min": min((r["agg_ratio"] for r in results), default=0.0),
        "provenance": f"sharpness:R={R},rho={rho},eps={eps}",
    }
    return report


def _judged_planks(m: np.ndarray) -> tuple[np.ndarray, float]:
    """The planks on which the exact-mean window is judged, chosen before any draw.

    m holds m_P = p |Y intersect P| of the planks holding candidates in
    (slice, plank) order. They are taken by decreasing m_P, ties in m's order,
    while the summed tail bound e^(-5 m_P) + e^(-m_P/2) stays within
    JUDGED_TAIL_BUDGET; the bound falls as m_P grows, so this prefix is the
    largest set the budget admits. Returns the indices taken and their bound.
    """
    order = np.argsort(-m, kind="stable")
    bound = np.cumsum(np.exp(-5.0 * m[order]) + np.exp(-m[order] / 2.0))
    n = int(np.searchsorted(bound, JUDGED_TAIL_BUDGET, side="right"))
    return order[:n], float(bound[n - 1]) if n else 0.0


def _drawn_counts(cand: np.ndarray, incidences: list, pts: np.ndarray) -> np.ndarray:
    """Points of pts in each plank holding candidates, flat in (slice, plank) order.

    pts are found among the candidates Y by packed key; a point that is not
    a candidate raises ValidationError. Each plank's count is then the sum
    of the drawn mask over its candidate rows (slice_incidences).
    """
    cand_keys = pack_grid_keys(cand, "R")
    by_key = np.argsort(cand_keys)
    keys = pack_grid_keys(np.clip(np.nan_to_num(pts), cand.min(axis=0), cand.max(axis=0)), "R")
    pos = np.searchsorted(cand_keys, keys, sorter=by_key)
    found = by_key[np.minimum(pos, cand.shape[0] - 1)]
    if not np.array_equal(cand[found], pts):
        raise ValidationError("family: a point is not a well-spaced candidate")
    drawn = np.bincount(found, minlength=cand.shape[0])
    return np.concatenate([
        np.add.reduceat(drawn[rows], np.cumsum(counts) - counts) for counts, rows in incidences
    ])


def _sharpness_plank_stats(n_planks: int, counts: np.ndarray, judged: np.ndarray,
                           judged_m: np.ndarray) -> dict:
    """Point-count statistics of one draw, from its counts in the planks holding candidates.

    Tracks the point-count extremes over all n_planks planks (the others
    hold 0), how many judged planks (indices into counts, of means judged_m)
    hold a count outside [m_P/10, 10 m_P], and the dyadic bucket
    concentration of rich planks.
    """
    rich = counts[counts > 0]
    bucket_counts: dict[int, int] = {}
    add_dyadic_counts(bucket_counts, rich)
    min_count = int(rich.min()) if 0 < rich.size == n_planks else 0
    c = counts[judged]
    n_outside = int(np.sum((c < judged_m / 10.0) | (c > 10.0 * judged_m)))
    concentration = (max(bucket_counts.values()) / rich.size) if rich.size else 0.0
    return {
        "min_count": float(min_count),
        "max_count": int(rich.max(initial=0)),
        "n_judged_outside": n_outside,
        "concentration": float(concentration),
    }


# ---------------------------------------------------------------------------
# Bernoulli tail experiment
# ---------------------------------------------------------------------------


def exact_binomial_tails(n: int, p: Fraction) -> tuple[Fraction, Fraction]:
    """Exact P(S > 10 n p) and P(S < n p / 10) by integer summation.

    p must be rational; the sums run over integer terms C(n,k) a^k b^(n-k)
    with p = a/(a+b), so the results are exact fractions.
    """
    a, m = p.numerator, p.denominator
    b = m - a
    np_val = Fraction(n) * p

    def tail_above(threshold: Fraction) -> Fraction:
        # strict inequality: k > threshold starts at floor(threshold) + 1
        start = math.floor(threshold) + 1
        if start > n:
            return Fraction(0)
        term = math.comb(n, start) * a**start * b ** (n - start)
        total = term
        for k in range(start, n):
            term = term * (n - k) * a // ((k + 1) * b) if b else 0
            total += term
        return Fraction(total, m**n)

    def tail_below(threshold: Fraction) -> Fraction:
        # strict: k < threshold
        k_max = math.ceil(threshold) - 1
        if k_max < 0:
            return Fraction(0)
        k_max = min(k_max, n)
        term = b**n  # k = 0
        total = term
        for k in range(0, k_max):
            term = term * (n - k) * a // ((k + 1) * b) if b else 0
            total += term
        return Fraction(total, m**n)

    return tail_above(10 * np_val), tail_below(np_val / 10)


def _leq_exp_bound(value: Fraction, exponent: float) -> bool:
    """Whether an exact probability stays below e^exponent, via 60-digit logs."""
    if value == 0:
        return True
    with localcontext() as ctx:
        ctx.prec = 60
        return Decimal(value.numerator).ln() - Decimal(value.denominator).ln() <= Decimal(exponent)


def chernoff_tails(n: int, p: float, trials: int, seed: int = 0) -> ExperimentReport:
    """Monte Carlo and exact verification of the Bernoulli tail bounds.

    Bounds checked: P(S_n > 10 n p) <= e^(-5 n p) and
    P(S_n < n p / 10) <= e^(-n p / 2). Empirical frequencies over `trials`
    simulated sums are compared against the bounds, and for n <= 10^4 the
    exact binomial tails are computed by integer summation and compared at
    60-digit precision.
    """
    if not n >= 1:
        raise ValidationError("n: must be at least 1")
    if not 0 < p < 1:
        raise ValidationError("p: must be in (0, 1)")
    if not trials >= 1:
        raise ValidationError("trials: must be at least 1")
    check_seed(seed)
    report = ExperimentReport(experiment="chernoff")
    rng = np.random.default_rng(seed)
    sums = rng.binomial(n, p, size=trials)
    np_val = n * p
    upper_freq = float(np.mean(sums > 10 * np_val))
    lower_freq = float(np.mean(sums < np_val / 10.0))
    upper_bound = math.exp(-5.0 * np_val)
    lower_bound = math.exp(-np_val / 2.0)
    rows_ok = [upper_freq <= upper_bound, lower_freq <= lower_bound]

    exact_upper = exact_lower = None
    exact_ok = [True, True]
    if n <= 10_000:
        frac_p = Fraction(str(p))
        eu, el = exact_binomial_tails(n, frac_p)
        exact_ok = [_leq_exp_bound(eu, -5.0 * np_val), _leq_exp_bound(el, -np_val / 2.0)]
        exact_upper, exact_lower = float(eu), float(el)

    for name, freq, bound, ok_mc, ok_exact, exact_val in (
        ("chernoff_upper", upper_freq, upper_bound, rows_ok[0], exact_ok[0], exact_upper),
        ("chernoff_lower", lower_freq, lower_bound, rows_ok[1], exact_ok[1], exact_lower),
    ):
        lhs = freq if exact_val is None else exact_val
        # the analytic bound can underflow float range; the exact comparison
        # already ran at high precision, the ratio is display only
        ratio = lhs / bound if bound > 0.0 else (0.0 if lhs == 0.0 else float("inf"))
        report.add_row(
            experiment=name, R=n, rho="", delta=p, eps="", K="", seed=seed,
            lhs=lhs, rhs=bound, ratio=ratio, mu_hat=freq,
            **{"pass": "1" if (ok_mc and ok_exact) else "0"},
        )
    report.summary = {
        "gates_pass": all(rows_ok) and all(exact_ok),
        "n": n, "p": p, "trials": trials,
        "upper_freq": upper_freq, "lower_freq": lower_freq,
        "upper_bound": upper_bound, "lower_bound": lower_bound,
        "exact_upper": exact_upper, "exact_lower": exact_lower,
        "provenance": f"chernoff:n={n},p={p},trials={trials},seed={seed}",
    }
    return report
