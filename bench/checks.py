"""Output checks, each made apart from the program's own code paths.

Every check returns a list of problems (empty when the output holds). The
references come from computations written here: a brute-force pair scan, the
closed-form Pythagorean stencil sum, a direct plank membership scan and an
anchored cube count. Where a reference needs an object only the program
builds (the plank collection, the drawn well-spaced family), the program
builds it and the check recomputes the quantity under test from it.

Pairs whose recomputed gap lies within GAP_ROUNDING of delta may be counted
either way by the program without being wrong; they are reported as
borderline, not as problems.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re

import numpy as np
from scipy.spatial import cKDTree

GAP_ROUNDING = 1e-12
SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# shared geometry, written apart from tangencylab.geometry
# ---------------------------------------------------------------------------


def frame(theta):
    """Rows: the cone ray, the tangential direction and their cross product.

    theta may be an array; the frames then stack along the first axis.
    """
    c, s = np.cos(theta), np.sin(theta)
    zero, one = np.zeros_like(c), np.ones_like(c) / SQRT2
    rows = [[c / SQRT2, s / SQRT2, one], [-s, c, zero], [-c / SQRT2, -s / SQRT2, one]]
    return np.moveaxis(np.array(rows), (0, 1), (-2, -1))


def half_widths(A: float, B: float) -> np.ndarray:
    return np.array([A, math.sqrt(A * B), B]) / 2.0


def in_plank(points: np.ndarray, theta: float, v, A: float, B: float, K: float) -> np.ndarray:
    """Which points lie in the K-dilation of the plank (theta, v, A, B)."""
    hw = K * half_widths(A, B)
    coords = np.abs((points - np.asarray(v)) @ frame(theta).T)
    return np.all(coords <= hw, axis=-1)


def gaps(points: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    d = points[j] - points[i]
    return np.abs(np.sqrt(d[:, 0] ** 2 + d[:, 1] ** 2) - np.abs(d[:, 2]))


# ---------------------------------------------------------------------------
# near pairs
# ---------------------------------------------------------------------------


def load_points(path: str) -> np.ndarray:
    return np.loadtxt(path, comments="#", ndmin=2)


def near_pairs(points: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Every pair i < j with gap below delta + GAP_ROUNDING, by a full scan.

    Returns the pair keys i * n + j in increasing order and their gaps.
    """
    n = points.shape[0]
    keys, gs = [], []
    block = max(1, 1_000_000 // max(n, 1))
    for start in range(0, n - 1, block):
        rows = np.arange(start, min(start + block, n - 1))
        d = points[None, :, :] - points[rows, None, :]
        g = np.abs(np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2) - np.abs(d[..., 2]))
        ii, jj = np.nonzero(g < delta + GAP_ROUNDING)
        keep = jj > rows[ii]
        keys.append(rows[ii][keep] * n + jj[keep])
        gs.append(g[ii[keep], jj[keep]])
    k = np.concatenate(keys) if keys else np.empty(0, np.int64)
    g = np.concatenate(gs) if gs else np.empty(0)
    order = np.argsort(k)
    return k[order], g[order]


def check_pair_file(path: str, points: np.ndarray, delta: float, ref: tuple,
                    stdout: str = "") -> tuple[list[str], int]:
    """A `count -o` pair file against the full-scan reference `ref` = near_pairs(...).

    Returns (problems, borderline pairs).
    """
    problems: list[str] = []
    n = points.shape[0]
    with open(path) as fh:
        header = fh.readline()
    m = re.search(r"delta=(\S+) n_pairs=(\d+)", header)
    if not m:
        return [f"{path}: no pair-file header"], 0
    rows = np.loadtxt(path, comments="#", ndmin=2)
    rows = rows.reshape(-1, 4)
    if float(m.group(1)) != delta:
        problems.append(f"header delta {m.group(1)} != {delta!r}")
    if int(m.group(2)) != rows.shape[0]:
        problems.append(f"header n_pairs={m.group(2)} but {rows.shape[0]} rows")
    printed = re.search(r"\|CT_delta\|=(\d+)", stdout)
    if stdout and (not printed or int(printed.group(1)) != rows.shape[0]):
        problems.append(f"printed count {printed and printed.group(1)} != {rows.shape[0]} rows")
    i, j = rows[:, 0].astype(np.int64), rows[:, 1].astype(np.int64)
    if rows.shape[0] and (i.min() < 0 or j.max() >= n or np.any(i >= j)):
        return problems + ["pair indices out of range or not i < j"], 0
    keys = i * n + j
    if np.any(np.diff(keys) <= 0):
        problems.append("pairs not sorted and unique")
    g = gaps(points, i, j)
    borderline = int(np.sum(np.abs(g - delta) <= GAP_ROUNDING))
    far = (g >= delta) & (np.abs(g - delta) > GAP_ROUNDING)
    if far.any():
        k = int(np.argmax(far))
        problems.append(f"listed pair ({i[k]}, {j[k]}) has gap {g[k]!r} >= delta")
    if rows.shape[0] and not np.allclose(rows[:, 3], g, rtol=0, atol=1e-12):
        problems.append("listed gap column differs from the recomputed gap")
    dist = np.linalg.norm(points[j] - points[i], axis=1)
    if rows.shape[0] and not np.allclose(rows[:, 2], dist, rtol=1e-12, atol=0):
        problems.append("listed distance column differs from the recomputed distance")
    ref_keys, ref_gaps = ref
    missing = ~np.isin(ref_keys, keys)
    near_edge = np.abs(ref_gaps - delta) <= GAP_ROUNDING
    borderline += int(np.sum(missing & near_edge))
    lost = missing & ~near_edge
    if lost.any():
        k = int(ref_keys[np.argmax(lost)])
        problems.append(f"{int(lost.sum())} pairs with gap below delta missing, e.g. "
                        f"({k // n}, {k % n})")
    return problems, borderline


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def read_report(section_dir: str, section: str) -> tuple[list[dict], dict]:
    """(CSV rows, JSON summary) of one experiment section's report."""
    with open(os.path.join(section_dir, section + ".csv")) as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    with open(os.path.join(section_dir, section + ".json")) as fh:
        summary = json.load(fh)["summary"]
    return rows, summary


def stencil_counts(n: int) -> tuple[int, dict[str, int]]:
    """Exactly tangent pairs of gen_integer_lattice(n), by the Pythagorean stencil.

    Orient each pair so that dz > 0; then dx^2 + dy^2 = dz^2 and the pair
    count of the offset (dx, dy, dz) is (n+1-|dx|)(n+1-|dy|)(n+1-dz). The
    pair distance is dz*sqrt(2), so its dyadic bucket follows from 2 dz^2.
    Returns the total and the count per bucket, keyed by repr(D).
    """
    total, buckets = 0, {}
    for dz in range(1, n + 1):
        for dx in range(-dz, dz + 1):
            dy = math.isqrt(dz * dz - dx * dx)
            if dy * dy != dz * dz - dx * dx:
                continue
            w = (n + 1 - abs(dx)) * (n + 1 - dy) * (n + 1 - dz) * (2 if dy else 1)
            D = repr(float(2 ** ((2 * dz * dz).bit_length() - 1 >> 1)))
            total += w
            buckets[D] = buckets.get(D, 0) + w
    return total, buckets


def check_exact(rows: list[dict], summary: dict, n: int) -> list[str]:
    total, buckets = stencil_counts(n)
    problems = []
    if len(rows) != 1 or int(float(rows[0]["lhs"])) != total:
        problems.append(f"exact count {[r['lhs'] for r in rows]} != stencil sum {total}")
    got = summary.get("bucket_decomposition", {}).get(str(n))
    if got != buckets:
        problems.append(f"dyadic buckets {got} != stencil buckets {buckets}")
    return problems


def membership_buckets(coll, points: np.ndarray) -> tuple[float, int]:
    """max over dyadic mu of mu^(4/3) |P_mu| and its mu, by direct membership.

    Each kept plank's richness is the number of points within its half-widths
    in its own frame, counted with a Chebyshev ball in frame coordinates
    scaled by the half-widths.
    """
    hw = half_widths(coll.A, coll.B)
    buckets: dict[int, int] = {}
    for j, spec in enumerate(coll.slices):
        centers = coll.slice_cells(j)[2]
        if centers.shape[0] == 0:
            continue
        U = frame(spec.theta)
        tree = cKDTree(points @ U.T / hw)
        rich = tree.query_ball_point(centers @ U.T / hw, r=1.0 + 1e-12, p=np.inf,
                                     return_length=True)
        rich = rich[rich > 0]
        mus, counts = np.unique(1 << (np.log2(rich).astype(np.int64)), return_counts=True)
        for mu, c in zip(mus, counts):
            buckets[int(mu)] = buckets.get(int(mu), 0) + int(c)
    best, best_mu = 0.0, 1
    for mu in sorted(buckets):
        val = mu ** (4.0 / 3.0) * buckets[mu]
        if val > best:
            best, best_mu = val, mu
    return best, best_mu


def check_rectangle(rows: list[dict], summary: dict, plank_counts: list[int], Rs: list[int],
                    first_row_ref: tuple[float, int]) -> list[str]:
    problems = []
    if [int(float(r["R"])) for r in rows] != list(Rs):
        return [f"rows for R={[r['R'] for r in rows]}, expected {list(Rs)}"]
    bad = [r["R"] for r in rows if r["pass"] != "1"]
    if bad:
        problems.append(f"rows with pass != 1 at R={bad}")
    if not (summary.get("gates_pass") and summary["slope"] <= summary["slope_gate"]):
        problems.append(f"slope gate: slope={summary.get('slope')} gate={summary.get('slope_gate')}")
    if len(plank_counts) != len(Rs):
        problems.append(f"{len(plank_counts)} enumerations seen for {len(Rs)} scales")
    for R, c in zip(Rs, plank_counts):
        if not R * R / 100 <= c <= 100 * R * R:
            problems.append(f"{c} planks at R={R}, outside [R^2/100, 100 R^2]")
    lhs, mu_hat = first_row_ref
    row = rows[0]
    if not math.isclose(float(row["lhs"]), lhs, rel_tol=1e-12) or int(row["mu_hat"]) != mu_hat:
        problems.append(f"R={Rs[0]} row lhs={row['lhs']} mu_hat={row['mu_hat']}, "
                        f"membership scan gives {lhs!r}, {mu_hat}")
    return problems


def occupancy_max(points: np.ndarray, R: float, cell: float) -> int:
    """Most points in one cube of the grid of side `cell` anchored at 0 in [0, R]^3."""
    n_cells = max(1, math.ceil(R / cell - 1e-12))
    idx = np.clip(np.floor(points / cell).astype(np.int64), 0, n_cells - 1)
    _, counts = np.unique(idx, axis=0, return_counts=True)
    return int(counts.max()) if counts.size else 0


def check_sharpness(summary: dict, params: dict, drawn: list[tuple[int, int]],
                    min_judged: int = 100) -> list[str]:
    """drawn: (size, occupancy maximum) of each seed's family, recomputed here."""
    problems = []
    R, eps, seeds = params["R"], params["eps"], params["seeds"]
    per_seed = summary.get("per_seed", [])
    if [s["seed"] for s in per_seed] != list(seeds):
        return [f"seeds {[s['seed'] for s in per_seed]} != {list(seeds)}"]
    quota = math.ceil(0.9 * len(seeds))
    held = sum(1 for s in per_seed if s["plank_ok_exact"] and s["n_judged_outside"] == 0)
    if held < quota:
        problems.append(f"judged window held on {held} of {len(seeds)} seeds, need {quota}")
    if not summary.get("gates_pass"):
        problems.append("gates_pass is false")
    if summary["n_planks_judged"] < min_judged:
        problems.append(f"{summary['n_planks_judged']} planks judged, need {min_judged}")
    if not 0 < summary["judged_tail_bound"] <= 0.05:
        problems.append(f"judged tail bound {summary['judged_tail_bound']} outside (0, 0.05]")
    if summary["single_tile"] != 0:
        problems.append("single_tile fallback")
    cap = 10.0 * R ** eps
    for s, (size, occ) in zip(per_seed, drawn):
        if s["n_points"] != size or s["occupancy_max"] != occ:
            problems.append(f"seed {s['seed']}: report n={s['n_points']} occ={s['occupancy_max']},"
                            f" recomputed n={size} occ={occ}")
        if occ > cap:
            problems.append(f"seed {s['seed']}: occupancy {occ} > 10 R^eps = {cap:.2f}")
    return problems


def check_lemma28(rows: list[dict], summary: dict, kept: list[list[float]], points: np.ndarray,
                  delta: float, A: float, ref: tuple, sample: int | None,
                  rng: np.random.Generator) -> list[str]:
    """Rows against the full-scan pairs; kept planks against pairs and richness.

    kept holds (theta, v1, v2, v3, A, B) of each kept plank in the order
    run_lemma28_check evaluates them: row by row, mu_hat planks per row.
    Up to `sample` pairs per scale (all when None) must each lie, both ends,
    in the A-dilation of a kept plank of that scale.
    """
    problems = []
    n = points.shape[0]
    keys, g = ref
    keys = keys[g < delta]
    i, j = keys // n, keys % n
    dist = np.linalg.norm(points[j] - points[i], axis=1)
    exps = np.floor(np.log2(dist)).astype(np.int64)
    own = {float(2.0 ** e): keys[exps == e] for e in np.unique(exps) if 2.0 ** e >= delta}
    if sorted(own) != [float(r["R"]) for r in rows]:
        return [f"scales {[r['R'] for r in rows]} != recomputed {sorted(own)}"]
    if not summary.get("gates_pass") or any(r["pass"] != "1" for r in rows):
        problems.append("a lemma28 row has pass != 1")
    if sum(int(r["mu_hat"]) for r in rows) != len(kept):
        return problems + [f"{len(kept)} kept planks seen, rows list "
                           f"{sum(int(r['mu_hat']) for r in rows)}"]
    planks = np.asarray(kept, dtype=float).reshape(-1, 6)
    start = 0
    for r in rows:
        D, n_kept = float(r["R"]), int(r["mu_hat"])
        group = planks[start:start + n_kept]
        start += n_kept
        if int(float(r["lhs"])) != own[D].size:
            problems.append(f"D={D!r}: {r['lhs']} pairs, full scan finds {own[D].size}")
        rich = [int(in_plank(points, P[0], P[1:4], P[4], P[5], A).sum()) for P in group]
        rhs = float(sum(c * c for c in rich))
        if rhs != float(r["rhs"]):
            problems.append(f"D={D!r}: rhs {r['rhs']} != recomputed {rhs!r}")
        if not float(r["rhs"]) >= 4 * n_kept:
            problems.append(f"D={D!r}: rhs {r['rhs']} < 4 x {n_kept} kept planks")
        pk = own[D]
        if sample is not None and pk.size > sample:
            pk = rng.choice(pk, size=sample, replace=False)
        U = frame(group[:, 0])
        hw = A * np.column_stack([group[:, 4], np.sqrt(group[:, 4] * group[:, 5]), group[:, 5]]) / 2
        hw = hw + 1e-9 * (1.0 + hw)
        for key in pk:
            rel = points[[key // n, key % n]][None, :, :] - group[:, None, 1:4]
            coords = np.abs(np.einsum("mij,mkj->mki", U, rel))
            if not np.any(np.all(coords <= hw[:, None, :], axis=(1, 2))):
                problems.append(f"D={D!r}: pair ({key // n}, {key % n}) lies outside the "
                                f"{A}-dilation of every kept plank")
                break
    return problems
