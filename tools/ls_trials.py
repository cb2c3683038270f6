"""Line-search trials per caller on the benchmark's units.

Runs the units of ``perfbench.workloads.pool_units(workload)`` through
``Bench.run_unit`` in this process, with ``subsolver.line_search``,
``subsolver._pga_ascent``, ``ao.descend`` and the covariance solve of both
stacks (``lp.solve_covariance_subproblem``, ``zf.solve_covariance_subproblem``)
wrapped by module attribute; the benchmark code is imported, never modified.
Each line search is filed under its caller:

- ``cov fw``: a Frank-Wolfe try of a covariance ascent;
- ``cov grad cold|warm boundary|slack``: a gradient try of a covariance
  ascent, cold for the first of its ascent (whose first trial is the fixed
  PGA_STEP0), on the boundary where the scaled SINR deficit of the point it
  starts from is > 0;
- ``pos bs|user cold|warm``: a step of ``ao.descend`` on the BS array or a
  user's antennas, cold for the first step of a descent (first trial
  ``params.step0``).

Per workload and caller it prints the searches, the trials and the stacks
evaluated (a stack is one ``evaluate`` call of ``line_search``; its trials
are those before the first that does not move), and the histogram of the
trial each search adopted (1-based; ``-`` for none).  The histograms do not
depend on the stack sizes, so they are how the first stacks of
``ao.descend`` and ``solve_covariance_subproblem`` are chosen.  From
anywhere:

    python3 tools/ls_trials.py
    python3 tools/ls_trials.py /path/to/checkout --workload mc-desk --units 8

The checkout defaults to the one this script is in.  OpenBLAS runs
single-threaded unless ``OPENBLAS_NUM_THREADS`` says otherwise.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
WORKLOADS = ("mc-trend", "mc-desk", "positions")


def _workloads(checkout):
    """The ``perfbench/workloads.py`` module of a checkout."""
    sys.path.insert(0, str(Path(checkout) / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


class Caller:
    """The line searches of one caller: how many, the trials and stacks
    they evaluated, and how many adopted each trial (1-based; None for
    none)."""

    def __init__(self):
        self.searches = self.trials = self.stacks = 0
        self.adopted = Counter()


@contextmanager
def recording(tally):
    """Wrap the line search and its callers while the block runs, filing
    every search in ``tally`` (caller name -> Caller)."""
    nf = {m: importlib.import_module(f"nfisac.{m}") for m in ("ao", "lp", "subsolver", "zf")}
    sub_mod, ao = nf["subsolver"], nf["ao"]
    frames = []          # innermost last: ["cov", sub, max_backtracks, cold] or ["pos", k, cold]
    subs = []            # the covariance subproblems being solved, innermost last
    real = {"line_search": sub_mod.line_search, "_pga_ascent": sub_mod._pga_ascent,
            "descend": ao.descend,
            "lp": nf["lp"].solve_covariance_subproblem,
            "zf": nf["zf"].solve_covariance_subproblem}
    ascent_sig = inspect.signature(real["_pga_ascent"])

    def solver(stack):
        def solve(sub):
            subs.append(sub)
            try:
                return real[stack](sub)
            finally:
                subs.pop()
        return solve

    def ascent(*args, **kwargs):
        bound = ascent_sig.bind(*args, **kwargs)
        frames.append(["cov", subs[-1] if subs else None,
                       bound.arguments["max_backtracks"], True])
        try:
            return real["_pga_ascent"](*args, **kwargs)
        finally:
            frames.pop()

    def descend(scenario, k, *args, **kwargs):
        frames.append(["pos", k, True])
        try:
            return real["descend"](scenario, k, *args, **kwargs)
        finally:
            frames.pop()

    def name(frame, x, tries):
        if frame[0] == "pos":
            cold, frame[2] = frame[2], False
            return f"pos {'bs' if frame[1] is None else 'user'} {'cold' if cold else 'warm'}"
        _, sub, max_backtracks, cold = frame
        if tries != max_backtracks:
            return "cov fw"
        frame[3] = False
        side = "?"
        if sub is not None:
            side = "boundary" if sub.deficit(x) / sub.sinr_deficit_scale > 0.0 else "slack"
        return f"cov grad {'cold' if cold else 'warm'} {side}"

    def line_search(x, L, d, s, tries, tau, armijo, evaluate, project, *args, **kwargs):
        made = Caller()

        def counted(X):
            made.trials += len(X)
            made.stacks += 1
            return evaluate(X)

        key = name(frames[-1], x, tries) if frames else "other"
        out = real["line_search"](x, L, d, s, tries, tau, armijo, counted, project,
                                  *args, **kwargs)
        entry = tally[key]
        entry.searches += 1
        entry.trials += made.trials
        entry.stacks += made.stacks
        entry.adopted[out[2] if out[1] is not None else None] += 1
        return out

    sub_mod.line_search, sub_mod._pga_ascent, ao.descend = line_search, ascent, descend
    nf["lp"].solve_covariance_subproblem = solver("lp")
    nf["zf"].solve_covariance_subproblem = solver("zf")
    try:
        yield tally
    finally:
        sub_mod.line_search, sub_mod._pga_ascent = real["line_search"], real["_pga_ascent"]
        ao.descend = real["descend"]
        nf["lp"].solve_covariance_subproblem = real["lp"]
        nf["zf"].solve_covariance_subproblem = real["zf"]


def collect(bench, units):
    """Run ``units`` ((trial, scheme) pairs) on ``bench``; returns the tally
    (caller name -> Caller) and the units that had a problem."""
    tally = defaultdict(Caller)
    problems = []
    with recording(tally):
        for trial, scheme in units:
            outcome = bench.run_unit(trial, scheme)
            if outcome.problem is not None:
                problems.append((trial, scheme, outcome.problem))
    return dict(tally), problems


def _histogram(adopted):
    trials = sorted(t for t in adopted if t is not None)
    parts = [f"{t}:{adopted[t]}" for t in trials]
    if adopted.get(None):
        parts.append(f"-:{adopted[None]}")
    return " ".join(parts)


def report(tally):
    """The table's lines, one per caller in name order."""
    lines = [f"{'caller':24} {'searches':>8} {'trials':>8} {'stacks':>8}  "
             "adopted at trial:searches"]
    for key in sorted(tally):
        c = tally[key]
        lines.append(f"{key:24} {c.searches:8d} {c.trials:8d} {c.stacks:8d}  "
                     f"{_histogram(c.adopted)}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", nargs="?", default=str(HERE),
                    help="checkout to run (default: this one)")
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="workload to run, repeatable (default: all three)")
    ap.add_argument("--units", type=int, default=None,
                    help="only the pool's first N units of each workload")
    args = ap.parse_args(argv)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    workloads = _workloads(args.checkout)
    workloads.use_checkout_source()
    out = {}
    for workload in args.workload or WORKLOADS:
        units = workloads.pool_units(workload)[:args.units]
        cpu = time.process_time()
        tally, problems = collect(workloads.Bench(workload), units)
        cpu = time.process_time() - cpu
        print(f"workload {workload}: {len(units)} units, {cpu:.1f} s CPU, "
              f"{len(problems)} with a problem")
        print("\n".join(report(tally)))
        out[workload] = tally
    return out


if __name__ == "__main__":
    main()
