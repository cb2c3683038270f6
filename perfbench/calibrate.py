"""Measure the reference cost of every unit in the workload pools.

    python3 perfbench/calibrate.py [--workload NAME ...] [--reps N]

Runs every pool unit untraced in ``--reps`` passes, under the speed probe,
and writes to ``perfbench/pool.json`` (replacing only the workloads named)
each unit's ``ref_s`` and WSR plus the probe's reference kernel time.
``run.py`` uses ``ref_s`` solely to weight the units a seed draws (see
README.md); a stale table adds run-to-run spread, not bias.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import run
import workloads
from speed import SpeedProbe


def calibrate(name, reps):
    """``reps`` passes over the pool, so a unit's repeats fall in different
    minutes of machine load.  Each timing is scaled to the probe's median
    speed over the whole calibration, and a unit keeps the median of its
    scaled times.  Returns (units, probe_ref_s)."""
    bench = workloads.Bench(name)
    keys = workloads.pool_units(name)
    timed = {key: [] for key in keys}
    outs = {}
    with SpeedProbe() as probe:
        for rep in range(reps):
            for key in keys:
                t0 = time.perf_counter()
                outs[key] = bench.run_unit(*key)
                t1 = time.perf_counter()
                timed[key].append((t0, t1))
                print(f"{name} pass {rep} {key[0]:4d} {key[1]:6s} {t1 - t0:8.4f}s "
                      f"{outs[key].problem or ''}", flush=True)
    probe_ref_s = probe.median_s()
    units = [{"trial": key[0], "scheme": key[1],
              "ref_s": statistics.median((t1 - t0) * probe_ref_s / probe.kernel_s(t0, t1)
                                         for t0, t1 in timed[key]),
              "wsr_bits": outs[key].wsr_bits, "problem": outs[key].problem}
             for key in keys]
    return units, probe_ref_s


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--reps", type=int, default=1)
    args = ap.parse_args()
    workloads.use_checkout_source()
    path = workloads.POOL_FILE
    table = json.loads(path.read_text()) if path.exists() else {}
    table["pool_seed"] = workloads.POOL_SEED
    for name in args.workload or sorted(workloads.WORKLOADS):
        units, probe_ref_s = calibrate(name, args.reps)
        table.setdefault("workloads", {})[name] = {
            "environment": run.environment(), "reps": args.reps,
            "probe_ref_s": probe_ref_s, "units": units}
        path.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
