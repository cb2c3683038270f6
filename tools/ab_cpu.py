"""Interleaved CPU A/B of two source checkouts on the benchmark's units.

Starts one worker process per checkout.  Each worker puts its checkout's
``src`` first on the import path (``perfbench.workloads.use_checkout_source``)
and runs ``perfbench.workloads.Bench(workload).run_unit``; the benchmark code
is imported, never modified.  The driver sends the same units to both
workers one at a time, so the two never compete for the cores, and
alternates which side runs a unit first.  Each side reports the process-CPU
delta of the unit and the ``repr`` of its WSR.

It prints the CPU seconds per scheme and side, the total ratio and the
median per-unit ratio (base CPU / change CPU: above 1 means the change is
faster), and every unit whose WSR differs between the sides.  ``--control``
runs the base against itself, which shows how far two identical sides
drift on this machine.  From anywhere:

    python3 tools/ab_cpu.py /path/to/base /path/to/change
    python3 tools/ab_cpu.py /path/to/base --control

The change defaults to the checkout this script is in.  OpenBLAS runs
single-threaded unless ``OPENBLAS_NUM_THREADS`` says otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def _workloads(checkout):
    """The ``perfbench/workloads.py`` module of a checkout."""
    sys.path.insert(0, str(Path(checkout) / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


def worker(checkout, workload):
    """Run the units named on stdin, one JSON [trial, scheme] per line, and
    answer each with one JSON line {cpu, wsr, problem}."""
    out, sys.stdout = sys.stdout, sys.stderr    # library prints stay off the pipe
    workloads = _workloads(checkout)
    workloads.use_checkout_source()
    bench = workloads.Bench(workload)
    for line in sys.stdin:
        trial, scheme = json.loads(line)
        cpu = time.process_time()
        outcome = bench.run_unit(trial, scheme)
        cpu = time.process_time() - cpu
        out.write(json.dumps({"cpu": cpu, "wsr": repr(outcome.wsr_bits),
                              "problem": outcome.problem}) + "\n")
        out.flush()


class _Side:
    """One worker process and its pipes."""

    def __init__(self, checkout, workload):
        env = dict(os.environ)
        env.setdefault("OPENBLAS_NUM_THREADS", "1")
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker",
             str(checkout), "--workload", workload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)

    def run(self, unit):
        self.proc.stdin.write(json.dumps(list(unit)) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self):
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def compare(base, change, workload, units):
    """Run ``units`` on both checkouts, interleaved; returns one record per
    unit: (unit, base result, change result)."""
    sides = []
    try:
        sides = [_Side(base, workload), _Side(change, workload)]
        records = []
        for i, unit in enumerate(units):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            res = [None, None]
            for s in order:
                res[s] = sides[s].run(unit)
            records.append((unit, res[0], res[1]))
        return records
    finally:
        for side in sides:
            side.close()


def summary(records):
    """The report's lines and its numbers: per-scheme CPU per side, the
    total and median per-unit ratios (base / change), and the units whose
    WSR or problem differs."""
    cpu = defaultdict(lambda: [0.0, 0.0])
    ratios, differ = [], []
    for unit, a, b in records:
        cpu[unit[1]][0] += a["cpu"]
        cpu[unit[1]][1] += b["cpu"]
        ratios.append(a["cpu"] / b["cpu"])
        if (a["wsr"], a["problem"]) != (b["wsr"], b["problem"]):
            differ.append((unit, a, b))
    total = [sum(c[0] for c in cpu.values()), sum(c[1] for c in cpu.values())]
    lines = [f"{'scheme':8} {'base s':>9} {'change s':>9} {'ratio':>7}"]
    for scheme, (a, b) in cpu.items():
        lines.append(f"{scheme:8} {a:9.2f} {b:9.2f} {a / b:7.3f}")
    lines.append(f"{'total':8} {total[0]:9.2f} {total[1]:9.2f} "
                 f"{total[0] / total[1]:7.3f}")
    median = statistics.median(ratios)
    lines.append(f"median per-unit ratio {median:.3f} over {len(records)} units")
    lines.append(f"units whose WSR differs: {len(differ)}")
    for unit, a, b in differ:
        lines.append(f"  {unit}: base {a['wsr']} {a['problem'] or ''} | "
                     f"change {b['wsr']} {b['problem'] or ''}")
    return lines, dict(total_ratio=total[0] / total[1], median_ratio=median,
                       differ=len(differ))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", nargs="?", help="checkout to compare against")
    ap.add_argument("change", nargs="?", default=str(HERE),
                    help="checkout under test (default: this one)")
    ap.add_argument("--control", action="store_true",
                    help="run the base against itself")
    ap.add_argument("--workload", default="mc-trend")
    ap.add_argument("--trials", type=int, default=None,
                    help="only the pool's first N trials")
    ap.add_argument("--schemes", default=None,
                    help="comma-separated schemes (default: all of the workload)")
    ap.add_argument("--worker", metavar="CHECKOUT", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        worker(args.worker, args.workload)
        return None
    if args.base is None:
        ap.error("the base checkout is required")
    change = args.base if args.control else args.change
    units = _workloads(args.base).pool_units(args.workload)
    if args.trials is not None:
        units = [u for u in units if u[0] < args.trials]
    if args.schemes:
        wanted = args.schemes.split(",")
        units = [u for u in units if u[1] in wanted]
    if not units:
        ap.error("no units selected")
    lines, stats = summary(compare(args.base, change, args.workload, units))
    print(f"base {Path(args.base).resolve()}  change {Path(change).resolve()}"
          f"{'  (control)' if args.control else ''}  workload {args.workload}")
    print("\n".join(lines))
    return stats


if __name__ == "__main__":
    main()
