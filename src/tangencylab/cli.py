"""Command-line front end: generation, counting, planks, experiments, plot data.

Exit code contract: 0 when the requested work succeeded and every gate in
the run passed, 1 when an experiment gate failed (scientific regression),
2 on invalid input or parameters (misuse: a TangencyLabError, or an OSError
on a path the user named), 3 on any other exception, an internal error to
be reported as a bug, with its traceback. All runs are deterministic for a
fixed config and seed; the TANGENCY_SEED environment variable overrides
seed values coming from configs or flags.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import traceback

from . import experiments as ex
from .errors import InvalidParamsError, TangencyLabError, parse_value, text_lines
from .families import (
    gen_clamshell,
    gen_integer_lattice,
    gen_maximal_separated,
    gen_random_wellspaced,
    load_family,
)
from .incidence import bin_dyadic, count_ct0_exact, count_ct_delta_bruteforce, count_ct_delta_hashed
from .planks import enumerate_incomparable, mu_buckets


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TangencyLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tangencylab")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a circle family file")
    g.add_argument("--kind", required=True, choices=["wellspaced", "separated", "clamshell", "lattice"])
    g.add_argument("--R", type=float)
    g.add_argument("--rho", type=float)
    g.add_argument("--eps", type=float)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--N", type=int)
    g.add_argument("--n", type=int)
    g.add_argument("--box", default="cube", choices=["cube", "annular"])
    g.add_argument("--integer", action="store_true")
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_generate)

    c = sub.add_parser("count", help="count near-tangent or exactly tangent pairs")
    c.add_argument("--family", required=True)
    c.add_argument("--delta", type=float)
    c.add_argument("--exact", action="store_true")
    c.add_argument("--bin", action="store_true")
    c.add_argument("--oracle", action="store_true", help="force the brute-force path")
    c.add_argument("-o", "--output")
    c.set_defaults(func=cmd_count)

    p = sub.add_parser("planks", help="enumerate an incomparable plank collection")
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--S", type=float)
    p.add_argument("--K", type=float, default=2.0)
    p.add_argument("--family", help="optional family for a richness table")
    p.add_argument("--richness-out")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_planks)

    e = sub.add_parser("experiment", help="run experiments from a config file")
    e.add_argument("--config", required=True)
    e.add_argument("--section", action="append", help="run only these sections")
    e.add_argument("--out", default=".")
    e.add_argument("--workers", type=int, default=1)
    e.set_defaults(func=cmd_experiment)

    d = sub.add_parser("plotdata", help="emit log-log series from a report CSV")
    d.add_argument("--report", required=True)
    d.add_argument("--provenance", help="refuse the report unless its hash matches")
    d.add_argument("-o", "--output-prefix", required=True)
    d.set_defaults(func=cmd_plotdata)
    return parser


def _env_seed(default: int) -> int:
    env = os.environ.get("TANGENCY_SEED")
    return parse_value("TANGENCY_SEED", env, int) if env else default


def _require(args, names: list[str], kind: str):
    for name in names:
        if getattr(args, name, None) is None:
            raise InvalidParamsError(f"{name}: required for --kind {kind}")


def cmd_generate(args) -> int:
    if args.kind == "wellspaced":
        _require(args, ["R", "rho", "eps"], "wellspaced")
        fam = gen_random_wellspaced(args.R, args.rho, args.eps, _env_seed(args.seed))
    elif args.kind == "separated":
        _require(args, ["R", "rho"], "separated")
        fam = gen_maximal_separated(args.R, args.rho, box_kind=args.box)
    elif args.kind == "clamshell":
        _require(args, ["N"], "clamshell")
        fam = gen_clamshell(args.N, integer=args.integer)
    else:
        _require(args, ["n"], "lattice")
        fam = gen_integer_lattice(args.n)
    fam.validate()
    fam.save(args.output)
    print(f"wrote {args.output}: n={len(fam)} hash={fam.provenance_hash()}")
    return 0


def cmd_count(args) -> int:
    fam = load_family(args.family)
    if args.exact:
        pairs = count_ct0_exact(fam, with_bins=args.bin)
        delta = 0.0
    else:
        if args.delta is None:
            raise InvalidParamsError("delta: required unless --exact")
        counter = count_ct_delta_bruteforce if args.oracle else count_ct_delta_hashed
        pairs = counter(fam, args.delta)
        if args.bin:
            pairs = bin_dyadic(pairs, fam)
        delta = args.delta
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(pairs.serialize(fam))
    print(f"|X|={len(fam)} |CT_delta|={len(pairs)} delta={delta!r}")
    return 0


def cmd_planks(args) -> int:
    coll = enumerate_incomparable(args.R, S=args.S, K=args.K)
    print(f"planks={len(coll)} K={args.K} S={coll.S}")
    if args.output:
        coll.save(args.output)
    if args.family:
        fam = load_family(args.family)
        table = mu_buckets(coll, fam, K=1.0)
        if args.richness_out:
            with open(args.richness_out, "w") as fh:
                fh.write(table.serialize())
        print("buckets=" + json.dumps({str(k): v for k, v in sorted(table.mu_buckets.items())}))
    return 0


# ---------------------------------------------------------------------------
# experiments from config files
# ---------------------------------------------------------------------------


def _parse_values(sec: configparser.SectionProxy, key: str, convert, default: str | None = None) -> list:
    """The list under `key`: numbers and inclusive lo:hi integer ranges, through `convert`.

    A list that is missing (and has no default) or empty runs nothing, so it
    raises InvalidParamsError naming the key, as does a malformed token.
    """
    raw = sec.get(key, default)
    if raw is None:
        raise InvalidParamsError(f"{key}: required list is missing")
    vals = []
    for tok in raw.replace(",", " ").split():
        vals.extend(parse_value(key, tok, lambda t: _list_token(t, convert)))
    if not vals:
        raise InvalidParamsError(f"{key}: list is empty")
    return vals


def _list_token(tok: str, convert) -> list:
    """The values of one list token, a lo:hi integer range or one number, through convert."""
    if ":" in tok:
        lo, hi = tok.split(":")
        return [convert(v) for v in range(int(lo), int(hi) + 1)]
    return [convert(float(tok) if ("." in tok or "e" in tok or "E" in tok) else int(tok))]


def _boolean(raw: str) -> bool:
    """A config boolean: 1/0, yes/no, true/false or on/off."""
    return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]


def _scalar(sec: configparser.SectionProxy, key: str, convert=float, default=None):
    """The scalar under `key`, or `default` when the key is absent;
    InvalidParamsError names a missing required one or a malformed one."""
    raw = sec.get(key)
    if raw is None and default is not None:
        return default
    if raw is None or (default is None and not raw.strip()):
        raise InvalidParamsError(f"{key}: required value is missing")
    return parse_value(key, raw, convert)


def _run_section(name: str, sec: configparser.SectionProxy, workers: int) -> ex.ExperimentReport:
    kind = sec.get("experiment", name.split(".")[0])
    if kind == "rectangle_bound":
        return ex.run_rectangle_bound(
            _parse_values(sec, "R", int),
            rho_law=_scalar(sec, "rho_law", str, "sqrt"),
            K=_scalar(sec, "K", float, 2.0),
            slope_gate=_scalar(sec, "slope_gate", float, 0.35),
            include_control=_scalar(sec, "control", _boolean, False),
            control_N=_scalar(sec, "control_N", int, 100),
            workers=workers,
        )
    if kind == "ct_bound":
        return ex.run_ct_bound(
            _parse_values(sec, "delta", float), rho=_scalar(sec, "rho", float, 4.0), workers=workers
        )
    if kind == "exact_ct":
        return ex.run_exact_ct(_parse_values(sec, "n", int))
    if kind == "lemma28":
        fam = load_family(_scalar(sec, "family", str))
        return ex.run_lemma28_check(fam, _scalar(sec, "delta"), A=_scalar(sec, "A", float, 2.0))
    if kind == "sharpness":
        seeds = _parse_values(sec, "seeds", int, "0:19")
        if os.environ.get("TANGENCY_SEED"):
            # as many consecutive seeds as the config lists, from the override
            seeds = [_env_seed(0) + k for k in range(len(seeds))]
        return ex.run_sharpness(
            R=_scalar(sec, "R"), rho=_scalar(sec, "rho"), eps=_scalar(sec, "eps"),
            seeds=seeds, K=_scalar(sec, "K", float, 2.0),
        )
    if kind == "chernoff":
        ns = _parse_values(sec, "n", int)
        ps = _parse_values(sec, "p", float)
        trials = _scalar(sec, "trials", int, 10**6)
        seed = _env_seed(_scalar(sec, "seed", int, 0))
        min_np = _scalar(sec, "min_np", float, 0.0)
        runs = [(n, p) for n in ns for p in ps if n * p >= min_np]
        if not runs:
            raise InvalidParamsError("min_np: no (n, p) pair has n p >= min_np, so nothing runs")
        merged = ex.ExperimentReport(experiment="chernoff")
        all_pass = True
        for n, p in runs:
            rep = ex.chernoff_tails(n, p, trials, seed=seed)
            merged.rows.extend(rep.rows)
            all_pass &= rep.summary["gates_pass"]
        merged.summary = {
            "gates_pass": all_pass,
            "provenance": f"chernoff:n={ns},p={ps},trials={trials},seed={seed}",
        }
        return merged
    raise InvalidParamsError(f"experiment: unknown kind '{kind}'")


def cmd_experiment(args) -> int:
    # no interpolation: a '%' in a value is literal, so every malformed file
    # is refused by read_file
    cfg = configparser.ConfigParser(interpolation=None)
    try:
        cfg.read_file(text_lines(args.config), source=args.config)
    except configparser.Error as exc:
        raise InvalidParamsError(f"config: {exc}") from None
    sections = args.section or cfg.sections()
    if not sections:
        raise InvalidParamsError("config: no sections found")
    os.makedirs(args.out, exist_ok=True)
    all_pass = True
    for name in sections:
        if name not in cfg:
            raise InvalidParamsError(f"section: '{name}' not in config")
        report = _run_section(name, cfg[name], args.workers)
        base = os.path.join(args.out, name.replace(".", "_"))
        report.write_csv(base + ".csv")
        report.write_json(base + ".json")
        ok = report.gates_pass()
        all_pass &= ok
        print(f"[{name}] gates_pass={ok} rows={len(report.rows)} -> {base}.csv")
    return 0 if all_pass else 1


def cmd_plotdata(args) -> int:
    lines = [ln.rstrip("\n") for ln in text_lines(args.report)]
    if not lines:
        print("empty report", file=sys.stderr)
        return 0
    provenance = ""
    body = []
    for ln in lines:
        if ln.startswith("# provenance="):
            provenance = ln.split("=", 1)[1]
        elif ln and not ln.startswith("#"):
            body.append(ln)
    if args.provenance is not None and args.provenance != provenance:
        raise InvalidParamsError(f"provenance: mismatch, report has '{provenance}'")
    if not body:
        return 0
    header = body[0].split(",")
    columns = ("experiment", "R", "K", "ratio")
    for col in columns:
        if col not in header:
            raise InvalidParamsError(f"report: missing column '{col}'")
    i_exp, i_r, i_k, i_ratio = (header.index(col) for col in columns)
    series: dict[str, list[tuple[float, float]]] = {}
    for ln in body[1:]:
        cells = ln.split(",")
        try:
            r = float(cells[i_r])
            ratio = float(cells[i_ratio])
        except (ValueError, IndexError):
            continue
        if r <= 0 or ratio <= 0 or not math.isfinite(ratio):
            continue
        key = f"{cells[i_exp]}_K{cells[i_k]}" if cells[i_k] else cells[i_exp]
        series.setdefault(key, []).append((math.log2(r), math.log2(ratio)))
    for key, rows in sorted(series.items()):
        path = f"{args.output_prefix}_{key}.dat"
        with open(path, "w") as fh:
            fh.write(f"# provenance={provenance}\n# log2(R) log2(ratio)\n")
            for x, y in rows:
                fh.write(f"{x!r} {y!r}\n")
        print(f"wrote {path}: {len(rows)} points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
