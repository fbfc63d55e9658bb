"""smpx benchmark: times `bench.run_experiment` on four workloads.

    python3 perfbench/run.py --workload game --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10 --out BENCH.json
    python3 -m pytest perfbench -q          # the benchmark's self-tests

One workload runs in one process, with one BLAS thread and SMPX_THREADS
unset.  After a warm-up call, the workload's `run_experiment` call is
repeated until `--seconds` have passed.  Every call's outputs are checked
(measure.check, and CSV/JSON bytes equal to the first call's, traced or
not); a call that raises or fails a check counts all its replications
(seeds times horizons) as failed.

--trace 0 reports the end-to-end metrics:
  run_s        wall time of the call (interquartile mean over the calls);
  setup_s      run_s minus the time inside solver loops (RunRecord.wall_ms;
               median over the calls);
  iters_per_s  solver iterations per second of solver-loop time
               (interquartile mean over the calls);
  peak_rss_mb  the process's peak resident memory.
The times are scaled to a reference machine speed by a speed probe run
between calls (see measure.speed_probe); the unscaled ones are printed and
kept in the result file.

--trace 1 alternates untraced and traced calls and reports the per-layer
metrics of layers.py (medians over the traced calls), err_final (the mean
final err_nash, deterministic), the output and instance sizes, and
trace.overhead (each traced call's run_s over the untraced call's before
it).  The spans of the last traced call go to .perfbench_work/.

The last stdout line is the JSON result {"correct", "attempted", "failed",
"metrics"}; `failed / attempted` is the failure fraction.  Each run also
writes .perfbench_work/result-<workload>-trace<n>.json with the
environment and every call's samples.  `--workload all` runs every
workload both ways, one child process at a time, prints a table and, with
--out, writes it with the environment.  smpx is imported from src/ of the
checkout that holds this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback

import workloads  # imports neither numpy nor smpx

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(ROOT, ".perfbench_work")
BLAS_THREADS = 1  # <= nproc; the solver's 4x4 to 32x32 LAPACK calls do not gain from more
MIN_CALLS = 3  # timed calls per mode, however short --seconds is

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0, help="shifts every instance seed")
    ap.add_argument("--seconds", type=float, default=10.0, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="with --workload all: write the results here")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "smpx", "__init__.py")):
        print(f"perfbench: no smpx sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # fixed before numpy is first imported, so every run uses the same BLAS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("SMPX_THREADS", None)  # the default serial path
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


def prepare_inputs(name: str, seed: int) -> None:
    """Write the workload's input files from a child process, so that
    generating them does not count in this process's peak memory."""
    code = "import sys, workloads; workloads.prepare(sys.argv[1], int(sys.argv[2]), sys.argv[3])"
    path = os.pathsep.join([os.path.dirname(os.path.abspath(__file__)), os.path.join(ROOT, "src")])
    subprocess.run([sys.executable, "-c", code, name, str(seed), WORKDIR],
                   env={**os.environ, "PYTHONPATH": path}, check=True, timeout=170)


def run_workload(args) -> int:
    import layers
    import measure

    name = args.workload
    os.makedirs(WORKDIR, exist_ok=True)
    if name in workloads.WITH_INPUT_FILE:
        prepare_inputs(name, args.seed)
    cfg = workloads.config(name, args.seed, WORKDIR)
    per_call = measure.replications(cfg)
    tally = {"attempted": 0, "failed": 0}
    problems, reference = [], []  # reference: the first call's output digests

    def call(tracer=None):
        """One checked call; None if it raised.  Failures are tallied here."""
        tally["attempted"] += per_call
        try:
            rep = measure.run_once(cfg, tracer)
        except Exception:  # a raising call fails all its replications
            traceback.print_exc()
            problems.append("run_experiment raised")
            tally["failed"] += per_call
            return None
        reference[:] = reference or [rep.digests]
        if rep.digests != reference[0]:
            rep.problems.append("CSV/JSON bytes differ from the first call")
        if rep.problems:
            problems.extend(rep.problems)
            tally["failed"] += per_call
        return rep

    call()  # warm-up: imports, allocator and LAPACK workspaces
    plain, traced, calls, last_tracer = [], [], 0, None
    probe = measure.speed_probe()
    began = time.perf_counter()
    while calls < MIN_CALLS or time.perf_counter() - began < args.seconds:
        calls += 1
        rep = call()
        if rep is not None:
            plain.append(rep)
        if args.trace:
            tracer = layers.Tracer()
            rep_traced = call(tracer)
            if rep_traced is not None:
                traced.append((rep_traced, layers.layer_metrics(tracer), rep))
                last_tracer = tracer
        else:
            after = measure.speed_probe()
            if rep is not None:
                rep.scale = measure.PROBE_REF_S / (0.5 * (probe + after))
            probe = after
    if not plain or (args.trace and not traced):
        print(f"perfbench: every call of {name} raised", file=sys.stderr)
        return 1

    if args.trace:
        metrics = measure.layer_summary(cfg, plain, traced, problems)
        last_tracer.dump(os.path.join(WORKDIR, f"spans-{name}.json"))
    else:
        metrics = measure.end_to_end(plain)
    units = measure.units(args.trace)
    result = {
        "correct": not problems and tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    env = measure.environment(ROOT, BLAS_THREADS)
    report(name, args, env, plain, traced, result, problems)
    with open(os.path.join(WORKDIR, f"result-{name}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": args.seed, "seconds": args.seconds,
                   "environment": env, "config": cfg, "problems": problems,
                   "samples": [vars(r) for r in plain], **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


def report(name, args, env, plain, traced, result, problems) -> None:
    """Human-readable lines; the JSON result line follows them."""
    print(f"workload {name}  seed {args.seed}  trace {args.trace}  "
          f"untraced calls {len(plain)}  traced calls {len(traced)} (+1 warm-up)")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    runs = sorted(r.run_s for r in plain)
    print(f"  unscaled run_s per call: min {runs[0]:.4f}  median {statistics.median(runs):.4f}  "
          f"max {runs[-1]:.4f} s (n={len(runs)})")
    if not args.trace:
        scales = sorted(r.scale for r in plain)
        print(f"  speed-probe scale per call: min {scales[0]:.3f}  "
              f"median {statistics.median(scales):.3f}  max {scales[-1]:.3f}")
    for key, m in result["metrics"].items():
        print(f"  {key:40s} {m['value']:>16.6g} {m['unit']}")
    fail_frac = result["failed"] / result["attempted"]
    print(f"  err_final {plain[0].err_final:.6g}  fail_frac {fail_frac:.3g} "
          f"({result['failed']}/{result['attempted']} replications)")
    print("checks: " + ("all passed" if not problems else "; ".join(sorted(set(problems)))))


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own child process."""
    rows, status = {}, 0
    kinds = ("end_to_end", "per_layer")  # results of --trace 0 and --trace 1
    for name in workloads.NAMES:
        rows[name] = {}
        for trace, kind in enumerate(kinds):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace {trace}: exit code {proc.returncode}", file=sys.stderr)
                status = 1
                continue
            print("\n".join(lines[:-1]))
            rows[name][kind] = json.loads(lines[-1])
            status = status or int(not rows[name][kind]["correct"])
    print()
    print(f"{'workload':12s} {'run_s':>10s} {'setup_s':>10s} {'iters_per_s':>12s} "
          f"{'peak_rss_mb':>12s} {'err_final':>12s} {'fail_frac':>10s}")
    for name, row in rows.items():
        if len(row) < len(kinds):
            continue
        e2e, layer = (row[kind]["metrics"] for kind in kinds)
        failed = sum(row[kind]["failed"] for kind in kinds)
        attempted = sum(row[kind]["attempted"] for kind in kinds)
        print(f"{name:12s} {e2e['run_s']['value']:>8.4f} s {e2e['setup_s']['value']:>8.4f} s "
              f"{e2e['iters_per_s']['value']:>8.1f} 1/s {e2e['peak_rss_mb']['value']:>9.1f} MB "
              f"{layer['err_final']['value']:>8.4g} gap {failed / attempted:>10.3g}")
    if args.out:
        import measure

        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "environment": measure.environment(ROOT, BLAS_THREADS),
                       "time_scale": "end-to-end times scaled to PROBE_REF_S = "
                                     f"{measure.PROBE_REF_S} s per speed probe",
                       "workloads": rows}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
