"""The four benchmark workloads: what each round runs and how its inputs are made.

A round is one fresh process that imports tangencylab, writes the workload's
inputs, then runs the workload's operations in order through
`tangencylab.cli.main`. An operation is one `count` call or one `experiment`
call restricted to one section. Every input is a pure function of the
workload seed, so two rounds of one run see the same bytes.

`plan` needs only numpy and the standard library, so the parent process can
read a workload's make-up without importing tangencylab; `write_inputs`
needs the program and runs in the round's process, inside its set-up time.
"""

from __future__ import annotations

import math
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("rich_planks", "construction_seeds", "pair_scan", "dense_pairs")

# rich_planks: the [rectangle_bound] sweep. R = 2^11 (9.2M planks, ~18 s)
# is left out so that several rounds fit into one run.
RECT_R = (256, 512, 1024)
RECT_K = 2.0

# construction_seeds: the tiled scale of criterion 2. Smaller R judges too
# few planks (14 at R = 2^10), so the round keeps R = 2^11 and runs 3 seeds
# instead of 20; the fixed cost (enumeration plus candidate assignment,
# ~8 s) stays whole, and a round stays near 10 s.
SHARP_R, SHARP_RHO, SHARP_EPS, SHARP_SEEDS = 2048.0, 2.0, 0.09, 3

# pair_scan: one uniform family counted at two thresholds, plus the exact
# all-pairs scan of the integer lattice.
SCAN_N, SCAN_DELTAS, EXACT_N = 5000, (1e-3, 1e-4), 20

# dense_pairs: output-heavy counting and the plank-sum greedy.
CLUSTER_N, CLUSTER_SIGMA, DENSE_DELTA = 2500, 0.03, 1e-2
GRID_R, GRID_RHO = 100.0, 10.0  # rescaled by 1/GRID_R: 4851 circles
LEMMA_N, LEMMA_DELTA, LEMMA_A = 700, 0.02, 2.0
# The lemma28 family is fixed, not drawn from the workload seed: its greedy
# costs O(kept^2) and the kept count swings by ~10% between draws, which
# would swamp the run-to-run spread of the whole workload.
LEMMA_FAMILY_SEED = 28


@dataclass
class Op:
    """One operation of a round.

    kind names the check that judges its output; params carries what the
    check needs (thresholds, input file, sizes); circles is the size of the
    input family, or None when only the report can tell (sharpness draws).
    """

    name: str
    kind: str
    argv: list[str]
    out: str
    circles: int | None
    params: dict = field(default_factory=dict)


@dataclass
class Plan:
    ops: list[Op]
    inputs: dict  # input file name -> how to make it (see write_inputs)
    config: str  # INI text, written to inputs/experiment.ini


def derive_seed(seed: int, tag: str) -> int:
    """A 31-bit seed for one input, fixed by the workload seed and a tag."""
    state = np.random.SeedSequence([seed, zlib.crc32(tag.encode())]).generate_state(1)[0]
    return int(state) & 0x7FFFFFFF


def grid_size(R: float, rho: float) -> int:
    """|gen_maximal_separated(R, rho)| on the cube box, in closed form."""
    return (int(math.floor(R / rho + 1e-12)) + 1) ** 3


def plan(workload: str, seed: int, inputs_dir: str, out_dir: str) -> Plan:
    """The operations of one round of `workload`, with paths under the given dirs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    cfg_path = os.path.join(inputs_dir, "experiment.ini")

    def experiment(section: str, workers: int) -> list[str]:
        return ["experiment", "--config", cfg_path, "--section", section,
                "--out", os.path.join(out_dir, section), "--workers", str(workers)]

    def count(family: str, delta: float, out_name: str) -> tuple[list[str], str]:
        out = os.path.join(out_dir, out_name)
        return ["count", "--family", os.path.join(inputs_dir, family), "--delta", repr(delta),
                "-o", os.path.join(out, "pairs.txt")], out

    ops: list[Op] = []
    inputs: dict = {}
    config = ""
    if workload == "rich_planks":
        config = (f"[rectangle_bound]\nR = {','.join(str(r) for r in RECT_R)}\n"
                  f"rho_law = sqrt\nK = {RECT_K}\nslope_gate = 0.35\n")
        ops.append(Op("rectangle_bound", "rectangle_bound", experiment("rectangle_bound", 1),
                      os.path.join(out_dir, "rectangle_bound"),
                      sum(grid_size(r, math.sqrt(r)) for r in RECT_R),
                      {"R": list(RECT_R), "K": RECT_K}))
    elif workload == "construction_seeds":
        seeds = [derive_seed(seed, f"sharpness{k}") for k in range(SHARP_SEEDS)]
        config = (f"[sharpness]\nR = {SHARP_R}\nrho = {SHARP_RHO}\neps = {SHARP_EPS}\n"
                  f"seeds = {','.join(str(s) for s in seeds)}\n")
        ops.append(Op("sharpness", "sharpness", experiment("sharpness", 2),
                      os.path.join(out_dir, "sharpness"), None,
                      {"R": SHARP_R, "rho": SHARP_RHO, "eps": SHARP_EPS, "seeds": seeds}))
    elif workload == "pair_scan":
        inputs["uniform.txt"] = ("uniform", SCAN_N, derive_seed(seed, "uniform"))
        for delta in SCAN_DELTAS:
            name = f"count_uniform_{delta:g}"
            argv, out = count("uniform.txt", delta, name)
            ops.append(Op(name, "count", argv, out, SCAN_N,
                          {"family": "uniform.txt", "delta": delta}))
        config = f"[exact_ct]\nn = {EXACT_N}\n"
        ops.append(Op("exact_ct", "exact_ct", experiment("exact_ct", 1),
                      os.path.join(out_dir, "exact_ct"), (EXACT_N + 1) ** 3, {"n": EXACT_N}))
    else:  # dense_pairs
        inputs["clustered.txt"] = ("clustered", CLUSTER_N, derive_seed(seed, "clustered"))
        inputs["grid.txt"] = ("grid", 0, 0)
        inputs["lemma28.txt"] = ("uniform", LEMMA_N, LEMMA_FAMILY_SEED)
        grid_n = (int(2 * GRID_R / GRID_RHO) + 1) ** 2 * (int(GRID_R / GRID_RHO) + 1)
        for family, n in (("clustered.txt", CLUSTER_N), ("grid.txt", grid_n)):
            name = "count_" + family[:-4]
            argv, out = count(family, DENSE_DELTA, name)
            ops.append(Op(name, "count", argv, out, n, {"family": family, "delta": DENSE_DELTA}))
        config = (f"[lemma28]\nfamily = {os.path.join(inputs_dir, 'lemma28.txt')}\n"
                  f"delta = {LEMMA_DELTA}\nA = {LEMMA_A}\n")
        ops.append(Op("lemma28", "lemma28", experiment("lemma28", 1),
                      os.path.join(out_dir, "lemma28"), LEMMA_N,
                      {"family": "lemma28.txt", "delta": LEMMA_DELTA, "A": LEMMA_A}))
    return Plan(ops, inputs, config)


def uniform_points(n: int, seed: int) -> np.ndarray:
    """Uniform circles in the unit center-radius box [-1, 1]^2 x [1, 2]."""
    rng = np.random.default_rng(seed)
    return np.column_stack(
        [rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n), rng.uniform(1.0, 2.0, n)]
    )


def clustered_points(n: int, seed: int) -> np.ndarray:
    """Gaussian clusters around the 8 fixed corners of a cube inside the unit box.

    The cluster centres are fixed and only the points are drawn, so the pair
    count, which sets the work, moves little from seed to seed.
    """
    centres = np.array([[x, y, z] for x in (-0.5, 0.5) for y in (-0.5, 0.5) for z in (1.3, 1.7)])
    rng = np.random.default_rng(seed)
    pts = centres[rng.integers(0, len(centres), n)] + rng.normal(0.0, CLUSTER_SIGMA, (n, 3))
    pts[:, :2] = np.clip(pts[:, :2], -1.0, 1.0)
    pts[:, 2] = np.clip(pts[:, 2], 1.0, 2.0)
    return pts


def write_inputs(p: Plan, inputs_dir: str) -> None:
    """Write the family files and the experiment config of a plan."""
    from tangencylab.families import CircleFamily, gen_maximal_separated, unit_box

    os.makedirs(inputs_dir, exist_ok=True)
    for fname, (how, n, seed) in p.inputs.items():
        if how == "grid":
            fam = gen_maximal_separated(GRID_R, GRID_RHO, box_kind="annular").rescale(1.0 / GRID_R)
        else:
            pts = uniform_points(n, seed) if how == "uniform" else clustered_points(n, seed)
            fam = CircleFamily(pts, 1.0, 0.0, unit_box(),
                               {"generator": f"bench_{how}", "n": n, "seed": seed})
        fam.save(os.path.join(inputs_dir, fname))
    with open(os.path.join(inputs_dir, "experiment.ini"), "w") as fh:
        fh.write(p.config)
