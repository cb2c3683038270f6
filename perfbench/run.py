"""nfisac benchmark: AO trial throughput on seeded samples of fixed unit pools.

    python3 perfbench/run.py --workload {mc-trend,mc-desk,positions,all}
                             --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout and imports the library from its
``src``.  The seed draws a random order of the workload's pool (see
workloads.py); units run in that order, single process, until ``--seconds``
have passed.  Every unit's output is checked.  With ``--trace 0`` the last
stdout line reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` each unit runs untraced and then traced, and the line reports
the per-layer metrics.  The line before it holds the details: environment,
WSR, failures, raw trial-time percentiles.  README.md explains the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

import tracing
import workloads
from speed import SpeedProbe

ROOT = workloads.ROOT
SETUP_REPS = 25
# Seeds never used for the committed baselines, for confirming a claimed
# gain on other samples of the pools.
HELD_OUT_SEEDS = "1001-1010"


def _git_commit():
    """HEAD of the checkout read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):     # numpy without show_config(mode=...)
        return "unknown"


def environment():
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
    }


def _fresh_setup(name):
    """Import the library anew (dropping any cached nfisac modules), load the
    config and build the scenario; returns (Bench, seconds)."""
    for mod in [m for m in sys.modules if m == "nfisac" or m.startswith("nfisac.")]:
        del sys.modules[mod]
    t0 = time.perf_counter()
    bench = workloads.Bench(name)
    return bench, time.perf_counter() - t0


def _pool(name):
    """(units, probe_ref_s) of a workload's calibrated pool."""
    entry = json.loads(workloads.POOL_FILE.read_text())["workloads"][name]
    units = entry["units"]
    if [(u["trial"], u["scheme"]) for u in units] != workloads.pool_units(name):
        raise ValueError(f"{workloads.POOL_FILE.name} does not match the {name} pool; "
                         "rerun perfbench/calibrate.py")
    return units, entry["probe_ref_s"]


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _run_traced(bench, tracer, unit, acc):
    """Run a unit again with the wrappers installed; returns (Outcome,
    seconds) and adds its RunResult totals and MA time split to ``acc``."""
    before = {k: tracer.incl[k] for k in ("lp.v", "zf.v")}
    tracer.install()
    try:
        t0 = time.perf_counter()
        out = bench.run_unit(unit["trial"], unit["scheme"])
        dt = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    if out.run is not None:
        stack = "lp" if unit["scheme"].startswith("LP") else "zf"
        tracing.block_gains(out.run, stack, acc)
        for field in ("block_rejects", "outer_iters", "rank_flags"):
            acc[f"{stack}.{field}"] += getattr(out.run, field)
        if unit["scheme"].endswith("MA"):
            acc[f"{stack}.ma_s"] += dt
            acc[f"{stack}.v.ma_s"] += tracer.incl[f"{stack}.v"] - before[f"{stack}.v"]
    return out, dt


def _measure(bench, pool, order, seconds, tracer, acc):
    """Run units in ``order`` until ``seconds`` have passed; with a tracer,
    run each unit untraced and traced.  Returns (rows, mismatches)."""
    rows, mismatches = [], []
    t_start = time.perf_counter()
    for idx in order:
        if rows and time.perf_counter() - t_start >= seconds:
            break
        unit = pool[idx]
        # traced runs alternate between going first and second, so that
        # any warm-up benefit does not bias the overhead ratio
        if tracer and len(rows) % 2:
            traced, traced_s = _run_traced(bench, tracer, unit, acc)
        t0 = time.perf_counter()
        out = bench.run_unit(unit["trial"], unit["scheme"])
        row = {"unit": unit, "t0": t0, "s": time.perf_counter() - t0, "out": out}
        if tracer:
            if not len(rows) % 2:
                traced, traced_s = _run_traced(bench, tracer, unit, acc)
            row["traced_s"] = traced_s
            if (traced.wsr_bits, traced.problem) != (out.wsr_bits, out.problem):
                mismatches.append(f"{unit['trial']}/{unit['scheme']}: untraced "
                                  f"{out.wsr_bits} {out.problem}, traced "
                                  f"{traced.wsr_bits} {traced.problem}")
        rows.append(row)
    return rows, mismatches


def run_workload(name, seed, seconds, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pool, probe_ref_s = _pool(name)
    order = np.random.Generator(np.random.Philox(key=[seed, 0])).permutation(len(pool))
    acc = defaultdict(float)
    with SpeedProbe() as probe:
        setup_reps = []
        for _ in range(SETUP_REPS):     # keep only the last Bench and its modules alive
            t0 = time.perf_counter()
            bench, dt = _fresh_setup(name)
            setup_reps.append((t0, dt))
        tracer = tracing.Tracer(bench.nf) if trace else None
        rows, mismatches = _measure(bench, pool, order, seconds, tracer, acc)
    setup_s = statistics.median(dt * probe_ref_s / probe.kernel_s(t0, t0 + dt)
                                for t0, dt in setup_reps)
    for r in rows:      # scaled once all probe samples around the last unit exist
        r["adj_s"] = r["s"] * probe_ref_s / probe.kernel_s(r["t0"], r["t0"] + r["s"])
    failures = [{"trial": r["unit"]["trial"], "scheme": r["unit"]["scheme"],
                 "problem": r["out"].problem} for r in rows if r["out"].problem]
    times = [r["s"] for r in rows]
    pool_ref = sum(u["ref_s"] for u in pool)
    trials_per_s = (sum(r["unit"]["ref_s"] for r in rows) / sum(r["adj_s"] for r in rows)
                    * len(pool) / pool_ref)
    checks = []
    if trace:
        kinds = {r["unit"]["scheme"] for r in rows}
        checks = tracer.check(kinds) + [f"traced output differs: {m}" for m in mismatches]
        values = tracing.layer_metrics(tracer, acc)
        values["bench.units"] = len(rows)
        values["bench.trace_speed_ratio"] = sum(times) / sum(r["traced_s"] for r in rows)
        declared = spec["per_layer"]
    else:
        values = {"trials_per_s": trials_per_s, "setup_s": setup_s,
                  "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in declared}

    wsr = defaultdict(list)
    for r in rows:
        if not r["out"].problem:
            for label, bits in r["out"].wsr_bits.items():
                wsr[label].append(bits)
    ref_diff = [abs(bits - r["unit"]["wsr_bits"][label])
                for r in rows for label, bits in r["out"].wsr_bits.items()
                if label in r["unit"]["wsr_bits"]]
    trial_s = {"n": len(times), "p50": _percentile(times, 50)}
    if len(times) >= 100:            # at least ten samples beyond p90
        trial_s["p90"] = _percentile(times, 90)
    detail = {
        "workload": name, "seed": seed, "held_out_seeds": HELD_OUT_SEEDS,
        "seconds": seconds, "trace": int(trace),
        "environment": environment() | {"seed": seed},
        "pool_units": len(pool), "units": len(rows),
        "fail_frac": len(failures) / len(rows), "failures": failures,
        "checks": checks,
        "wsr_bits": {label: float(np.mean(v)) for label, v in sorted(wsr.items())},
        "wsr_vs_pool_ref": {"identical": sum(d == 0.0 for d in ref_diff),
                            "of": len(ref_diff),
                            "max_abs_diff_bits": max(ref_diff, default=0.0)},
        "unweighted_trials_per_s": len(times) / sum(times),
        "probe": {"n": len(probe.samples), "median_s": probe.median_s(),
                  "ref_s": probe_ref_s},
        "trial_s": trial_s,
        "setup_reps_s": [dt for _, dt in setup_reps],
        "unit_rows": [[r["unit"]["trial"], r["unit"]["scheme"], r["s"], r["adj_s"],
                       r["unit"]["ref_s"]] for r in rows],
    }
    for m in declared:
        print(f"{name} {m['name']} = {metrics[m['name']]['value']:.6g} {m['unit']}")
    for f in failures:
        print(f"{name} FAILED unit {f['trial']}/{f['scheme']}: {f['problem']}")
    for c in checks:
        print(f"{name} CHECK {c}")
    print(json.dumps({"detail": detail}))
    return {"correct": not failures and not checks, "attempted": len(rows),
            "failed": len(failures), "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        unknown = [n for n in names if n not in workloads.WORKLOADS]
        if unknown or args.seconds <= 0:
            raise ValueError(f"unknown workload {unknown} or non-positive --seconds")
        workloads.use_checkout_source()
        _pool(names[0])
    except (ImportError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
