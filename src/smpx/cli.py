"""Command-line harness: generate / run / slope / verify.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 self-check failure (verify).
"""

from __future__ import annotations

import argparse
import sys

from . import bench, checks
from .errors import ConfigError, DomainError, InputError, NumericalError


def _int_list(text: str):
    return [int(v) for v in str(text).split(",") if v != ""]


def _float_list(text: str):
    return [float(v) for v in str(text).split(",") if v != ""]


def _float_or_text(text: str):
    try:  # a non-number is left for the config's validation to reject
        return float(text)
    except ValueError:
        return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smpx",
        description="Stochastic mirror-prox experiments on monotone "
        "variational inequalities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "generate", help="write a reproducible instance file",
        description="Write a reproducible instance file, version 3 of the smpx-instance "
        "format: the line 'smpx-instance', the header's length in bytes on the next line, "
        "the header (canonical JSON of the instance with each float array replaced by its "
        "shape), then the arrays' little-endian float64 bytes in the header's order.  "
        "Version-1 and version-2 JSON instance files still load; a file is recognised by "
        "its first line, not by its name.  The eig_min instance with n=200 and blocks "
        "32,32,32,32 takes about 6.59 MB (8.78 MB as version 2).")
    gen.add_argument("--kind", required=True,
                     choices=["bilinear_simplex_spectahedron", "eig_min",
                              "scalar_minimax", "sdf_system"])
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--n", type=int, help="x-dimension / number of matrices")
    gen.add_argument("--blocks", type=_int_list, help="block sizes, e.g. 4,4,4")
    gen.add_argument("--scale", type=float, help="entry scale for random matrices")
    gen.add_argument("--scalars", type=_float_list,
                     help="explicit scalars for scalar_minimax, e.g. 1,3")
    gen.add_argument("--delta", type=float, help="sdf feasibility margin")
    gen.add_argument("--noise-m", type=float, help="sdf noisy-component level")
    gen.add_argument("--smooth-scale", type=float, help="sdf smooth-component scale")
    gen.add_argument("--n-smooth", type=int, help="number of smooth sdf components")

    run = sub.add_parser("run", help="run seeded replications and write CSV/JSON")
    run.add_argument("--config", help="JSON config file; flags override its fields")
    run.add_argument("--instance", help="instance file path")
    run.add_argument("--kind", help="generate the instance inline instead")
    run.add_argument("--gen-seed", type=int, help="seed for the inline instance")
    run.add_argument("--n", type=int)
    run.add_argument("--blocks", type=_int_list)
    run.add_argument("--solver", choices=["smp", "rmsa"])
    run.add_argument("--t", type=_int_list, help="horizon(s), e.g. 10000 or 100,1000")
    run.add_argument("--k", type=int, help="oracle averaging width")
    run.add_argument("--oracle", choices=["sampled", "exact"])
    run.add_argument("--gamma", type=_float_or_text,
                     help="'auto' or an explicit stepsize")
    run.add_argument("--seeds", type=_int_list, help="explicit seed list")
    run.add_argument("--seed-count", type=int)
    run.add_argument("--seed-base", type=int)
    run.add_argument("--checkpoints", help="'geometric', 'final' or a list 1,10,100")
    run.add_argument("--n-probes", type=int)
    run.add_argument("--out", help="output prefix for .csv/.json")

    slope = sub.add_parser("slope", help="fit a log-log rate from a results CSV")
    slope.add_argument("--csv", required=True)
    slope.add_argument("--t-min", type=float, required=True)
    slope.add_argument("--t-max", type=float, required=True)
    slope.add_argument("--column", default="err_nash")

    ver = sub.add_parser("verify", help="run the library self-checks")
    ver.add_argument("--full", action="store_true", help="use the full sample sizes")
    return parser


def _cmd_generate(args) -> int:
    params = {}
    for name in ("n", "blocks", "scale", "scalars", "delta", "smooth_scale",
                 "n_smooth"):
        value = getattr(args, name, None)
        if value is not None:
            params[name] = value
    if args.noise_m is not None:
        params["noise_m"] = args.noise_m
    path = bench.generate_instance(args.kind, params, args.seed, args.out)
    print(f"wrote {path}")
    return 0


def _cmd_run(args) -> int:
    data = bench.read_json_object(args.config, "config file") if args.config else {}
    if args.instance:
        data["instance"] = {"path": args.instance}
    elif args.kind:
        params = {}
        if args.n is not None:
            params["n"] = args.n
        if args.blocks is not None:
            params["blocks"] = args.blocks
        data["instance"] = {
            "kind": args.kind,
            "params": params,
            "seed": args.gen_seed or 0,
        }
    if "instance" not in data:
        raise ConfigError("provide --config, --instance or --kind")
    flags = {"solver": args.solver, "k": args.k, "oracle": args.oracle, "stepsize": args.gamma,
             "seeds": args.seeds, "seed_base": args.seed_base, "n_probes": args.n_probes,
             "out": args.out}
    data.update((key, value) for key, value in flags.items() if value is not None)
    if args.t:
        data["t"] = args.t if len(args.t) > 1 else args.t[0]
    if args.seed_count is not None:
        data["seed_count"] = args.seed_count
        data.pop("seeds", None)
    if args.checkpoints is not None:
        cps = args.checkpoints
        data["checkpoints"] = cps if cps in ("geometric", "final") else _int_list(cps)

    records, summary, files = bench.run_experiment(data)
    total_ms = sum(rec.wall_ms for recs in records.values() for rec in recs)
    print(
        f"{len(records)} replication(s), {len(summary.t_values)} checkpoint row(s); "
        f"total solver time {total_ms:.0f} ms",
        file=sys.stderr,
    )
    for name, path in files.items():
        print(f"wrote {path}")
    if "err_nash" in summary.stats:
        final = summary.stats["err_nash"]["mean"][-1]
        print(f"final mean err_nash = {final:.6g}")
    return 0


def _cmd_slope(args) -> int:
    summary = bench.summary_from_csv(args.csv, column=args.column)
    slope, ci = bench.fit_slope(summary, (args.t_min, args.t_max), column=args.column)
    print(f"slope = {slope:.4f}  ci95 = [{ci[0]:.4f}, {ci[1]:.4f}]")
    return 0


def _cmd_verify(args) -> int:
    results = checks.run_all(full=args.full)
    failed = 0
    for name, ok, detail in results:
        tag = "PASS" if ok else "FAIL"
        print(f"{tag} {name}: {detail}")
        failed += 0 if ok else 1
    if failed:
        print(f"{failed} check(s) failed")
        return 4
    print(f"all {len(results)} checks passed")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "slope":
            return _cmd_slope(args)
        if args.command == "verify":
            return _cmd_verify(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, InputError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
