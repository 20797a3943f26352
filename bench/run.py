"""Benchmark of tangencylab: four workloads, end-to-end metrics, per-layer trace.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: rich_planks, construction_seeds, pair_scan, dense_pairs (see
bench/README.md). A run repeats rounds of the workload, each in a fresh
process (bench/worker.py), for as long as another round fits into S
seconds; it always makes at least one round, and with --trace 1 at least
one untraced and one traced round, alternating. If fewer than three rounds
ran, it starts set-up-only processes until it holds three set-up times.
Then it checks every round's outputs (bench/checks.py).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones (medians over the rounds):

    setup_s        s          process start to the first timed operation
    wall_s         s          time of a round's operations, back to back
    circles_per_s  circles/s  input circles of a round's operations / wall_s
    peak_rss_mb    MB         peak resident memory of a round's process tree

With --trace 1 they are the per-layer metrics of bench/hooks.py, medians
over the traced rounds, and trace.overhead_pct, the traced rounds' median
wall time against the untraced rounds' in the same run.

Exit code 0 when the result line is printed, 2 when the program's source
(src/tangencylab) is not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
from hooks import PER_LAYER
from workloads import WORKLOADS, plan

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".bench_runs")
MIN_SETUPS = 3
# A run must end within 180 s; no round starts after this many seconds.
LAST_START_S = 120.0
ROUND_TIMEOUT_S = 150.0

# Rounds run numpy's BLAS on one thread. With a thread per vCPU, any other
# work on the machine stalls the BLAS barrier, and on 2 vCPUs the run-to-run
# spread of rich_planks' wall_s was 0.22 (interquartile range over median,
# 5 runs) against 0.06 single-threaded, whose median was also 11% lower.
# The program's own parallelism (--workers processes) is not affected.
ROUND_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

END_TO_END = {"setup_s": "s", "wall_s": "s", "circles_per_s": "circles/s", "peak_rss_mb": "MB"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tangencylab", "__init__.py")):
        print(f"error: no tangencylab source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)  # the checks build some references with the program
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    base = os.path.join(RUNS_DIR, args.workload)
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    t_start = time.perf_counter()
    rounds: list[dict] = []
    took: list[float] = []
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        t0 = time.perf_counter()
        rounds.append(_spawn(args, os.path.join(base, f"round{len(rounds)}"), traced))
        took.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - t_start
        if elapsed > LAST_START_S:
            break
        if args.trace and len(rounds) < 2:
            continue
        if elapsed + statistics.mean(took) > args.seconds:
            break
    setups = [r["result"]["setup_s"] for r in rounds if r["result"]]
    while len(setups) < MIN_SETUPS and time.perf_counter() - t_start < LAST_START_S:
        probe = _spawn(args, os.path.join(base, f"setup{len(setups)}"), False, setup_only=True)
        if not probe["result"]:
            break
        setups.append(probe["result"]["setup_s"])

    attempted, failed, correct, circles = _check_rounds(args, rounds)
    plain = [r["result"] for r in rounds if r["result"] and not r["traced"]]
    walls = [sum(op["seconds"] for op in res["ops"]) for res in plain]
    if not plain or not setups:
        print("error: no round completed", file=sys.stderr)
        return 1
    wall = statistics.median(walls)
    traced_res = [r["result"] for r in rounds if r["result"] and r["traced"]]
    if args.trace and not traced_res:
        print("error: no traced round completed", file=sys.stderr)
        return 1
    if args.trace:
        layers = {k: statistics.median(res["layers"][k] for res in traced_res)
                  for k in traced_res[0]["layers"]}
        traced_wall = statistics.median(sum(op["seconds"] for op in res["ops"])
                                        for res in traced_res)
        layers["trace.overhead_pct"] = 100.0 * (traced_wall - wall) / wall
        metrics = {k: {"value": layers[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "circles_per_s": circles / wall,
            "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in plain),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    for name, m in metrics.items():
        print(f"{args.workload:20s} {name:26s} {m['value']:14.6g} {m['unit']}")
    print(f"{args.workload:20s} rounds={len(rounds)} setups={len(setups)} "
          f"attempted={attempted} failed={failed} correct={correct}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _spawn(args, round_dir: str, traced: bool, setup_only: bool = False) -> dict:
    """Run one round (or a set-up-only probe) in a fresh process and wait for it."""
    os.makedirs(round_dir, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--dir", round_dir, "--trace", str(int(traced)),
           "--spawned", repr(time.time())]
    if setup_only:
        cmd.append("--setup-only")
    result = None
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, env=ROUND_ENV, timeout=ROUND_TIMEOUT_S)
        if proc.returncode == 0:
            with open(os.path.join(round_dir, "round.json")) as fh:
                result = json.load(fh)
        else:
            print(f"error: round in {round_dir} exited {proc.returncode}", file=sys.stderr)
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the process
        print(f"error: round in {round_dir} timed out", file=sys.stderr)
    return {"dir": round_dir, "traced": traced, "result": result}


def _check_rounds(args, rounds: list[dict]) -> tuple[int, int, bool, int]:
    """Check every round's outputs: (attempted, failed, correct, circles per round)."""
    refs: dict = {}
    attempted = failed = 0
    correct = True
    circles = 0
    for k, rnd in enumerate(rounds):
        p = plan(args.workload, args.seed, os.path.join(rnd["dir"], "inputs"),
                 os.path.join(rnd["dir"], "out"))
        attempted += len(p.ops)
        res = rnd["result"]
        if res is None:
            failed += len(p.ops)
            continue
        round_circles = 0
        for op, out in zip(p.ops, res["ops"]):
            if out["code"] != 0:
                print(f"error: {op.name} exited {out['code']}", file=sys.stderr)
                failed += 1
                continue
            try:
                problems, op_circles = _check_op(op, p.ops, out, res, refs, args.seed)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems, op_circles = [f"unreadable output: {exc!r}"], 0
            round_circles += op_circles
            if problems:
                failed += 1
                correct = False
                for pr in problems:
                    print(f"check failed: round {k} {op.name}: {pr}", file=sys.stderr)
        circles = max(circles, round_circles)
    if refs.get("borderline"):
        print(f"note: {refs['borderline']} pairs within {checks.GAP_ROUNDING} of delta "
              "(reported, not failed)", file=sys.stderr)
    return attempted, failed, correct, circles


def _check_op(op, ops: list, out: dict, res: dict, refs: dict, seed: int) -> tuple[list[str], int]:
    """Problems with one operation's output, and the circles of its input."""
    def points(name: str):
        key = ("points", name)
        if key not in refs:
            refs[key] = checks.load_points(os.path.join(os.path.dirname(os.path.dirname(op.out)),
                                                        "inputs", name))
        return refs[key]

    def pairs(name: str, delta: float):
        # one scan per family, at the largest threshold it is counted at
        key = ("pairs", name)
        if key not in refs:
            widest = max(o.params["delta"] for o in ops if o.params.get("family") == name)
            refs[key] = checks.near_pairs(points(name), widest)
        keys, gaps = refs[key]
        keep = gaps < delta + checks.GAP_ROUNDING
        return keys[keep], gaps[keep]

    if op.kind == "count":
        delta = op.params["delta"]
        problems, borderline = checks.check_pair_file(
            os.path.join(op.out, "pairs.txt"), points(op.params["family"]), delta,
            pairs(op.params["family"], delta), out["stdout"])
        refs["borderline"] = refs.get("borderline", 0) + borderline
        return problems, op.circles
    rows, summary = checks.read_report(op.out, op.name)
    if op.kind == "exact_ct":
        return checks.check_exact(rows, summary, op.params["n"]), op.circles
    if op.kind == "rectangle_bound":
        if "rect" not in refs:
            refs["rect"] = _rectangle_reference(op.params["R"][0], op.params["K"])
        return checks.check_rectangle(rows, summary, res["plank_counts"], op.params["R"],
                                      refs["rect"]), op.circles
    if op.kind == "sharpness":
        if "drawn" not in refs:
            refs["drawn"] = _drawn_families(op.params)
        problems = checks.check_sharpness(summary, op.params, refs["drawn"])
        return problems, sum(s["n_points"] for s in summary["per_seed"])
    # lemma28
    delta = op.params["delta"]
    rng = np.random.default_rng(seed)
    return checks.check_lemma28(rows, summary, res["kept_planks"], points(op.params["family"]),
                                delta, op.params["A"], pairs(op.params["family"], delta),
                                sample=64, rng=rng), op.circles


def _rectangle_reference(R: int, K: float) -> tuple[float, int]:
    """The first rectangle_bound row, by direct membership on the program's collection."""
    from tangencylab.planks import enumerate_incomparable

    rho = math.sqrt(R)
    axis = rho * np.arange(int(math.floor(R / rho + 1e-12)) + 1)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    return checks.membership_buckets(enumerate_incomparable(R, S=R, K=K), grid)


def _drawn_families(params: dict) -> list[tuple[int, int]]:
    """(size, occupancy maximum) of each seed's family, the maximum recomputed here."""
    from tangencylab.families import gen_random_wellspaced

    out = []
    for s in params["seeds"]:
        pts = gen_random_wellspaced(params["R"], params["rho"], params["eps"], s).points
        out.append((pts.shape[0], checks.occupancy_max(pts, params["R"], params["rho"])))
    return out


if __name__ == "__main__":
    sys.exit(main())
