"""Wrappers around tangencylab's public functions, installed from outside the program.

Two modes share one mechanism:

- capture (untraced rounds): only `planks.enumerate_incomparable` and
  `planks.richness` are wrapped, to keep what the output checks need and the
  reports do not carry: the size of each enumerated collection, and the kept
  lemma28 planks (`run_lemma28_check` calls `richness` once per kept plank).
  Nothing is timed.
- trace (traced rounds): every function in TIMED is wrapped. Each call
  becomes a span (layer, name, start, end, parent); counters are read from
  the arguments and the result. A layer's self time is its spans' time minus
  the time of the wrapped calls nested in them. Work the wrappers themselves
  do after a call (reading counters) is kept out of the enclosing span's
  self time and summed as `overhead_s`.

Because tangencylab's modules import each other's functions by name, a
wrapper replaces the function under every name that refers to it in every
loaded tangencylab module. `geometry` is not wrapped: its cost shows in its
callers.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, layer, metric group); a dotted attribute is a method.
TIMED = [
    ("families", "gen_maximal_separated", "families", "generate"),
    ("families", "gen_random_wellspaced", "families", "generate"),
    ("families", "gen_clamshell", "families", "generate"),
    ("families", "gen_integer_lattice", "families", "generate"),
    ("families", "wellspaced_candidates", "families", "generate"),
    ("families", "load_family", "families", "load"),
    ("families", "check_separation", "families", "check"),
    ("families", "check_frostman", "families", "check"),
    ("families", "cube_occupancy", "families", "check"),
    ("planks", "enumerate_incomparable", "planks", "enumerate"),
    ("planks", "mu_buckets", "planks", "bucket"),
    ("planks", "richness", "planks", "richness"),
    ("incidence", "count_ct_delta_hashed", "incidence", "near"),
    ("incidence", "count_ct_delta_bruteforce", "incidence", "near"),
    ("incidence", "count_ct0_exact", "incidence", "exact"),
    ("incidence", "bin_dyadic", "incidence", "bin"),
    ("incidence", "TangencyPairSet.serialize", "incidence", "serialize"),
    ("experiments", "run_rectangle_bound", "experiments", "run"),
    ("experiments", "run_ct_bound", "experiments", "run"),
    ("experiments", "run_exact_ct", "experiments", "run"),
    ("experiments", "run_lemma28_check", "experiments", "run"),
    ("experiments", "run_sharpness", "experiments", "run"),
    ("experiments", "chernoff_tails", "experiments", "run"),
    ("cli", "main", "cli", "main"),
]
CAPTURED = {"enumerate_incomparable", "richness"}

# Every per-layer metric a traced round reports, with its unit.
PER_LAYER = {
    "planks.enumerate_s": "s", "planks.enumerated": "count", "planks.lattice_cells": "count",
    "planks.kept_ratio": "ratio", "planks.bucket_s": "s", "planks.rich": "count",
    "planks.richness_s": "s", "planks.richness_calls": "count",
    "incidence.near_s": "s", "incidence.near_pairs": "count",
    "incidence.exact_s": "s", "incidence.exact_pairs": "count",
    "incidence.bin_s": "s", "incidence.serialize_s": "s",
    "experiments.self_s": "s", "experiments.seeds": "count",
    "experiments.kept_planks": "count", "experiments.kept_ratio": "ratio",
    "families.generate_s": "s", "families.load_s": "s", "families.check_s": "s",
    "families.points": "count",
    "cli.self_s": "s", "cli.bytes_written": "bytes",
    "trace.overhead_pct": "%",
}


def lattice_cells(coll) -> int:
    """Cells of the candidate lattice the enumeration tests, summed over slices.

    Per angle slice these are the grid cells whose plank's frame coordinates
    fall inside the box's projection fattened by the plank half-widths: the
    cells any plank meeting the box must come from. Computed here from the
    slice angles alone, apart from the program.
    """
    lo = np.array([b[0] for b in coll.box], dtype=float)
    hi = np.array([b[1] for b in coll.box], dtype=float)
    corners = np.array([[x, y, z] for x in (lo[0], hi[0]) for y in (lo[1], hi[1])
                        for z in (lo[2], hi[2])])
    A, B, K = coll.A, coll.B, coll.K
    hw = np.array([A, math.sqrt(A * B), B]) / 2.0
    spacing = K * 2.0 * hw
    total = 0
    for spec in coll.slices:
        c, s = math.cos(spec.theta), math.sin(spec.theta)
        r = 1.0 / math.sqrt(2.0)
        U = np.array([[c * r, s * r, r], [-s, c, 0.0], [-c * r, -s * r, r]])
        proj = corners @ U.T
        first = np.ceil((proj.min(axis=0) - hw) / spacing - 1e-9)
        last = np.floor((proj.max(axis=0) + hw) / spacing + 1e-9)
        total += int(np.prod(np.maximum(last - first + 1, 0)))
    return total


class Hooks:
    """Spans, counters and captures of one round's process."""

    def __init__(self, timed: bool):
        self.timed = timed
        self.spans: list[tuple[str, str, float, float, int]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.busy_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.overhead_s = 0.0
        self.plank_counts: list[int] = []
        self.kept_planks: list[list[float]] = []
        self._stack: list[list] = []  # [span index, nested wrapped time]
        self._open: dict[str, int] = defaultdict(int)  # open spans per metric group

    def install(self) -> None:
        """Wrap the functions for this mode in every loaded tangencylab module."""
        import tangencylab  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "tangencylab"]
        for mod_name, attr, layer, group in TIMED:
            short = attr.split(".")[-1]
            if not self.timed and short not in CAPTURED:
                continue
            mod = sys.modules[f"tangencylab.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(getattr(cls, meth), layer, group, short))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(original, layer, group, short)
            for m in modules:
                for name, val in list(vars(m).items()):
                    if val is original:
                        setattr(m, name, wrapper)

    def _wrap(self, fn, layer: str, group: str, name: str):
        hooks = self

        if not self.timed:
            def capture(*args, **kwargs):
                result = fn(*args, **kwargs)
                hooks._capture(name, args, result)
                return result
            return capture

        key = f"{layer}.{group}"

        def traced(*args, **kwargs):
            parent = hooks._stack[-1][0] if hooks._stack else -1
            index = len(hooks.spans)
            hooks.spans.append((layer, name, 0.0, 0.0, parent))
            frame = [index, 0.0]
            hooks._stack.append(frame)
            hooks._open[key] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                hooks._stack.pop()
                hooks._open[key] -= 1
                hooks.spans[index] = (layer, name, t0, t1, parent)
                if not hooks._open[key]:  # a nested call of the same group is already inside
                    hooks.busy_s[key] += t1 - t0
                hooks.self_s[layer] += t1 - t0 - frame[1]
            hooks._capture(name, args, result)
            hooks._observe(name, group, layer, args, kwargs, result)
            t2 = perf_counter()
            if hooks._stack:
                hooks._stack[-1][1] += t2 - t0  # the call and the bookkeeping after it
            hooks.overhead_s += t2 - t1
            return result
        return traced

    def _capture(self, name: str, args, result) -> None:
        if name == "enumerate_incomparable":
            self.plank_counts.append(len(result))
        elif name == "richness":
            P = args[0]
            self.kept_planks.append([float(P.frame.theta), *map(float, P.v), float(P.A), float(P.B)])

    def _observe(self, name, group, layer, args, kwargs, result) -> None:
        c = self.counts
        if group == "enumerate":
            c["planks.enumerated"] += len(result)
            c["planks.lattice_cells"] += lattice_cells(result)
        elif group == "bucket":
            c["planks.rich"] += result.n_rich
        elif group == "richness":
            c["planks.richness_calls"] += 1
        elif group == "near":
            c["incidence.near_pairs"] += len(result)
        elif group == "exact":
            c["incidence.exact_pairs"] += len(result)
        elif layer == "families" and group in ("generate", "load") and hasattr(result, "points"):
            c["families.points"] += len(result)
        elif name == "run_sharpness":
            seeds = kwargs.get("seeds", args[3] if len(args) > 3 else [])
            c["experiments.seeds"] += len(seeds)
        elif name == "run_lemma28_check":
            c["experiments.kept_planks"] += sum(int(r["mu_hat"]) for r in result.rows)
            c["experiments.binned_pairs"] += sum(float(r["lhs"]) for r in result.rows)

    def layer_metrics(self, bytes_written: int) -> dict[str, float]:
        """The per-layer metrics of this round, all but the tracing overhead."""
        c, busy = self.counts, self.busy_s
        out = {
            "planks.enumerate_s": busy["planks.enumerate"],
            "planks.enumerated": c["planks.enumerated"],
            "planks.lattice_cells": c["planks.lattice_cells"],
            "planks.kept_ratio": _ratio(c["planks.enumerated"], c["planks.lattice_cells"]),
            "planks.bucket_s": busy["planks.bucket"],
            "planks.rich": c["planks.rich"],
            "planks.richness_s": busy["planks.richness"],
            "planks.richness_calls": c["planks.richness_calls"],
            "incidence.near_s": busy["incidence.near"],
            "incidence.near_pairs": c["incidence.near_pairs"],
            "incidence.exact_s": busy["incidence.exact"],
            "incidence.exact_pairs": c["incidence.exact_pairs"],
            "incidence.bin_s": busy["incidence.bin"],
            "incidence.serialize_s": busy["incidence.serialize"],
            "experiments.self_s": self.self_s["experiments"],
            "experiments.seeds": c["experiments.seeds"],
            "experiments.kept_planks": c["experiments.kept_planks"],
            "experiments.kept_ratio": _ratio(c["experiments.kept_planks"], c["experiments.binned_pairs"]),
            "families.generate_s": busy["families.generate"],
            "families.load_s": busy["families.load"],
            "families.check_s": busy["families.check"],
            "families.points": c["families.points"],
            "cli.self_s": self.self_s["cli"],
            "cli.bytes_written": float(bytes_written),
        }
        return {k: float(v) for k, v in out.items()}

    def span_records(self) -> list[dict]:
        return [{"layer": l, "name": n, "start": s, "end": e, "parent": p}
                for l, n, s, e, p in self.spans]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
