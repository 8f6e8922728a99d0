"""The qteig benchmark: end-to-end and per-layer metrics on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout; the package is imported from ``src``.
One run is one fresh, single-threaded process (BLAS and OpenMP capped to
one thread through this process's environment).  It sets the workload
up, then repeats whole passes until ``--seconds`` have elapsed (always at
least one pass, never a cut one), and checks the output of every pass.

- ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:
  ``wall_s`` (median pass), ``setup_s`` (median over this process and
  twelve fresh probe processes of: import qteig, build the workload's
  operators or problem file, one warm-up ``eig_all``), ``eigs_found``
  (eigenvalues of a pass that pass the benchmark's own check) and
  ``peak_rss_mb``.
- ``--trace 1`` runs untraced passes, then traced ones, and reports the
  per-layer metrics, per traced pass, plus ``trace.overhead``.  Spans are
  written to ``perfbench/out/``.

``fail_ratio`` is the result line's ``failed / attempted``: passes that
raised or failed their check over passes run.  It is 0 when the program
is right, so it is not an end-to-end metric, which must never be 0.

``--workload all`` runs every workload untraced and traced, one process
each, prints every metric with its unit, and prints one JSON object with
all results and their run environments as its last line.

The per-start outcomes come from wrapping the private
``qteig.solver._run_newton``, because ``eig_all`` discards them; the
``stats`` field of the solver report planned in ROADMAP item 5 replaces
this hook.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
# set-up probes per untraced run, half before and half after the passes,
# so that their median spans the machine's state over the whole run
SETUP_PROBES = 12
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OUTCOMES = ("isolated_pq", "isolated_pltq", "continuous_set", "out_of_component",
            "no_convergence_pltq", "max_iterations", "diverged", "on_curve")


def set_up(name: str, seed: int, workdir: Path):
    """Import qteig from this checkout, build the workload, warm up.
    Returns the workload and the seconds this took."""
    t0 = time.perf_counter()
    import qteig

    src = (ROOT / "src").resolve()
    if src not in Path(qteig.__file__).resolve().parents:
        raise ImportError(f"qteig imported from {qteig.__file__}, not from {src}")
    import workloads

    wl = workloads.WORKLOADS[name](seed, workdir)
    workloads.warm_up()
    return wl, time.perf_counter() - t0


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of a fresh process, as that process measures it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def run_passes(wl, seconds: float, log: list, tracer=None) -> list:
    """Whole passes until ``seconds`` have elapsed; each entry is
    (wall seconds, eigs_found or None when the pass failed)."""
    done = []
    t_end = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.current_pass = len(done)
        t0 = time.perf_counter()
        try:
            out = wl.run_pass()
        except Exception:  # a pass that raises is a failed pass
            out = None
            log.append(traceback.format_exc())
        wall = time.perf_counter() - t0
        found = None
        if out is not None:
            try:
                found = wl.check(out)
            except Exception:  # CheckFailed, or output too malformed to check
                log.append(traceback.format_exc())
        done.append((wall, found))
        if time.perf_counter() >= t_end:
            return done


def layer_targets(counts: Counter):
    """What the traced run wraps, named <layer>.<function>, and the hooks
    that count what the calls return."""
    from tracer import Target

    def count_inside(rc, args):
        counts["graeffe_steps"] += rc.iterations_used
        counts["fallbacks"] += rc.fallback_used

    def newton_correction(step, args):
        counts["zero_steps"] += step == 0

    def section(vals, args):
        counts["section_n"] = max(counts["section_n"], len(args[0]))

    def run_newton(rec, args):
        counts["steps"] += rec.iterations
        counts["outcome." + rec.status.value] += 1
        counts["accepted"] += rec.is_isolated

    plain = {
        "poly": ("winding",),
        "linalg": ("roots_companion", "lu_solve", "qr_rank_revealing"),
        "qt": ("finite_section", "apply_prefix"),
        "factor": ("wiener_hopf",),
        "nep": ("build_w", "basis_frobenius", "phi", "eigvec_prefix"),
        # eig_all and cmd_eig_all are wrapped only so that their spans are
        # the parents of the solve and of loading: cli.emit.s is the self
        # time of cmd_eig_all
        "solver": ("eig_all",),
        "cli": ("load_problem", "cmd_eig_all"),
    }
    targets = [Target(f"qteig.{layer}", fn, f"{layer}.{fn}")
               for layer, fns in plain.items() for fn in fns]
    targets += [
        Target("qteig.poly", "count_inside", "poly.count_inside", on_result=count_inside),
        Target("qteig.nep", "newton_correction", "nep.newton_correction",
               on_result=newton_correction),
        # the seeding eigensolve is the binding eig_all calls; the
        # companion eigensolves go through the linalg binding
        Target("qteig.linalg", "eig_dense", "linalg.eig_dense.section", on_result=section,
               binding="qteig.solver"),
        Target("qteig.linalg", "eig_dense", "linalg.eig_dense"),
        Target("qteig.solver", "_run_newton", "solver.run_newton", on_result=run_newton),
    ]
    return targets


def _percentile(values, pct: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(tracer, counts: Counter, passes: int, overhead: float) -> dict:
    from tracer import SpanStats

    st = tracer.stats()
    none = SpanStats(0, 0, 0)
    calls = lambda n: st.get(n, none).calls / passes
    incl = lambda n: st.get(n, none).incl_ns / 1e9 / passes
    own = lambda n: st.get(n, none).self_ns / 1e9 / passes
    ratio = lambda num, den: num / den if den else 0.0
    wh_calls = st.get("factor.wiener_hopf", none).calls
    breakdowns = sum(tracer.errors[("factor.wiener_hopf", e)]
                     for e in ("FactorizationUnstableError", "SingularMatrixError"))
    starts = st.get("solver.run_newton", none).calls
    run_ms = [d / 1e6 for d in tracer.durations_ns("solver.run_newton")]
    m = {
        "linalg.eig_dense.section.s": incl("linalg.eig_dense.section"),
        "linalg.eig_dense.section.n": counts["section_n"],
        "poly.graeffe_steps": counts["graeffe_steps"] / passes,
        "poly.fallback_ratio": ratio(counts["fallbacks"], st.get("poly.count_inside", none).calls),
        "factor.wiener_hopf.self_s": own("factor.wiener_hopf"),
        "factor.breakdown_ratio": ratio(breakdowns, wh_calls),
        "nep.zero_step_ratio": ratio(counts["zero_steps"],
                                     st.get("nep.newton_correction", none).calls),
        "solver.starts": starts / passes,
        "solver.steps": counts["steps"] / passes,
        "solver.accept_ratio": ratio(counts["accepted"], starts),
        "solver.run_ms.p50": _percentile(run_ms, 50),
        "solver.run_ms.p90": _percentile(run_ms, 90),
        "solver.run_ms.p99": _percentile(run_ms, 99),
        "solver.run_ms.samples": len(run_ms),
        # the emitter is private: the command's time outside loading and
        # solving is building and printing the JSON result
        "cli.emit.s": own("cli.cmd_eig_all"),
        "trace.overhead": overhead,
    }
    for status in OUTCOMES:
        m[f"solver.outcome.{status}"] = counts["outcome." + status] / passes
    for spec in SPEC["per_layer"]:
        name = spec["name"]
        if name in m:
            continue
        base, stat = name.rsplit(".", 1)
        m[name] = {"calls": calls, "s": incl, "self_s": own}[stat](base)
    return m


def blas_threads():
    """Thread count OpenBLAS reports for this process, or None."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def commit() -> str:
    try:
        # the ceiling keeps git from looking for a repository above the checkout
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except OSError:  # no git on this machine
        return "unknown"
    return done.stdout.strip() or "unknown"


def environment(load_before) -> dict:
    import platform

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "commit": commit(),
    }


def units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def run_one(args) -> int:
    load_before = os.getloadavg()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        try:
            wl, setup_s = set_up(args.workload, args.seed, Path(tmp))
        except ImportError as exc:
            print(f"cannot set up {args.workload}: {exc}", file=sys.stderr)
            return 2
        if args.setup_only:
            print(f"{setup_s!r}")
            return 0
        log: list = []
        setups = [setup_s]
        if args.trace:
            from tracer import Tracer

            plain = run_passes(wl, args.seconds, log)
            counts: Counter = Counter()
            tracer = Tracer(layer_targets(counts))
            with tracer.installed("qteig"):
                traced = run_passes(wl, args.seconds, log, tracer)
            overhead = (statistics.median(w for w, _ in traced)
                        / statistics.median(w for w, _ in plain) - 1)
            metrics = layer_metrics(tracer, counts, len(traced), overhead)
            done = plain + traced
            tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
            kind = "per_layer"
        else:
            probes = lambda k: [probe_setup(args.workload, args.seed) for _ in range(k)]
            setups += probes(SETUP_PROBES // 2)
            done = run_passes(wl, args.seconds, log)
            setups += probes(SETUP_PROBES - SETUP_PROBES // 2)
            found = [e for _, e in done if e is not None]
            metrics = {
                "wall_s": statistics.median(w for w, _ in done),
                "setup_s": statistics.median(setups),
                "eigs_found": statistics.median(found) if found else 0,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            kind = "end_to_end"
    failed = sum(1 for _, e in done if e is None)
    for entry in log:
        print(entry, file=sys.stderr)
    unit = units(kind)
    result = {
        "correct": failed == 0,
        "attempted": len(done),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in unit.items()},
    }
    env = environment(load_before)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  pass_walls=[w for w, _ in done], setup_samples=setups, env=env)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(f"{args.workload} seed={args.seed} trace={args.trace} passes={len(done)} "
          f"failed={failed} fail_ratio={failed / len(done):g}")
    for k, u in unit.items():
        print(f"  {k:34s} {metrics[k]:.6g} {u}")
    print("env: " + json.dumps(env))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, one fresh process each."""
    summary = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        entry = summary["workloads"].setdefault(name, {})
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                status = done.returncode
                continue
            lines = done.stdout.splitlines()
            entry["traced" if trace else "untraced"] = json.loads(lines[-1])
            entry["env_trace%d" % trace] = next(
                json.loads(ln[5:]) for ln in lines if ln.startswith("env: "))
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
