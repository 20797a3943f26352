"""One round of a workload in a fresh process: set up, run the operations, report.

Usage (started by run.py, one process per round):

    python3 bench/worker.py --workload NAME --seed N --dir ROUND_DIR
        --spawned WALLCLOCK --trace 0|1 [--setup-only]

Set-up is everything from process start to the first timed operation:
interpreter start, importing tangencylab and writing the inputs. `--spawned`
is the wall clock at which the parent started this process. The round writes
`round.json` into ROUND_DIR: the set-up time, each operation's exit code,
time and captured standard output, the peak resident memory of this process
and its children, what the output checks need, and for a traced round the
per-layer metrics. A traced round also writes its spans to `trace.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tangencylab.cli as cli
    from hooks import Hooks
    from workloads import plan, write_inputs

    inputs_dir = os.path.join(args.dir, "inputs")
    out_dir = os.path.join(args.dir, "out")
    p = plan(args.workload, args.seed, inputs_dir, out_dir)
    write_inputs(p, inputs_dir)
    for op in p.ops:
        os.makedirs(op.out, exist_ok=True)
    hooks = Hooks(timed=bool(args.trace))
    hooks.install()
    setup_s = time.time() - args.spawned
    result = {"setup_s": setup_s, "ops": []}
    if not args.setup_only:
        for op in p.ops:
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = _call(cli.main, op.argv)
            seconds = time.perf_counter() - t0
            result["ops"].append({"name": op.name, "code": code, "seconds": seconds,
                                  "stdout": buf.getvalue()})
        result["peak_rss_mb"] = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
        result["plank_counts"] = hooks.plank_counts
        result["kept_planks"] = hooks.kept_planks
        if args.trace:
            written = sum(os.path.getsize(os.path.join(d, f))
                          for op in p.ops for d, _, files in os.walk(op.out) for f in files)
            result["layers"] = hooks.layer_metrics(written)
            result["trace_overhead_s"] = hooks.overhead_s
            with open(os.path.join(args.dir, "trace.json"), "w") as fh:
                json.dump({"spans": hooks.span_records()}, fh)
    with open(os.path.join(args.dir, "round.json"), "w") as fh:
        json.dump(result, fh)
    return 0


def _call(entry, argv) -> int:
    """Run one CLI call in this process; its exit code, or 3 if it raised."""
    try:
        return int(entry(argv) or 0)
    except SystemExit as exc:  # argparse misuse
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed operation, not a failed round
        traceback.print_exc(file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
