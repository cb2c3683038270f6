"""WSR gate: every unit of an AO workload (``mc-trend`` by default, or
``mc-desk``) on the base pool and on pools whose BS array is shifted by
1, 2, ... nm in x.

Runs each unit of ``perfbench.workloads.pool_units(WORKLOAD)`` through
``Bench.run_unit`` of a checkout; the shifted pools wrap the Bench's
``_placement`` in-process, and the benchmark code is imported, never
modified.  The units are spread over ``--workers`` processes (never more
than the units).  It writes one JSON with the workload, the checkout's
``ao.MAX_OUTER`` and one record per unit: WSR in bits,
``outer_iters``, ``converged``, process CPU, the per-block reject counts
read from the ``<block>_block_rejected`` flags of the trace records, and
the unit's problem (None when clean).

``--compare PARENT.json CHANGE.json`` prints, per scheme and pool, the mean
WSR of both sides and their paired difference; per scheme that
difference's mean and range over the pools, and a verdict (``verdict``);
every unit that moved by more than 0.05 bits; the CPU ratio (parent /
change: above 1 means the change is faster); and the units that ended
``converged=False`` or failed.  Per scheme it then totals, over all pools,
the CPU seconds of both sides with their ratio, which is steadier than one
pool's, and the block rejects of both sides per block.  Before those
totals it shows the AO loop cap's headroom per scheme and side: the largest
``outer_iters`` and how many units end within HEADROOM_LOOPS loops of that
side's ``ao.MAX_OUTER``.

``--reference-eps EPS`` with ``--compare`` tells plateau stops from real
moves: it runs the units of every scheme with a moved unit again, on both
recorded checkouts and workloads, with ``ao.EPS_F``, the AO stop, patched to
EPS in the worker processes, and prints for each moved unit whether its
move persists at that reference stop, then per scheme the mean WSR of both
sides at the run stop and at the reference.  The position ALM stops on its own
``ao.EPS_ALM``, which is not patched, and the library's own EPS_F is left
as it is.  From anywhere:

    python3 tools/wsr_gate.py --pools 3 --out change.json
    python3 tools/wsr_gate.py --workload mc-desk --pools 3 --out change-desk.json
    python3 tools/wsr_gate.py /path/to/parent --pools 3 --out parent.json
    python3 tools/wsr_gate.py --compare parent.json change.json
    python3 tools/wsr_gate.py --compare parent.json change.json --reference-eps 1e-3

The checkout defaults to the one this script is in.  OpenBLAS runs
single-threaded unless ``OPENBLAS_NUM_THREADS`` says otherwise.
"""

from __future__ import annotations

import argparse
import importlib
import json
import multiprocessing
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
WORKLOAD = "mc-trend"       # the default workload
WORKLOADS = ("mc-trend", "mc-desk")
SHIFT_M = 1e-9              # one pool step: the BS array moves 1 nm in x
MOVED_BITS = 0.05           # a unit's paired WSR change worth listing
FLOOR_PCT = 0.1             # least verdict threshold, in percent of the mean
HEADROOM_LOOPS = 5          # a unit this close to the AO loop cap is listed

_BENCH = None               # a worker's Bench


def _workloads(checkout):
    """The ``perfbench/workloads.py`` module of a checkout."""
    sys.path.insert(0, str(Path(checkout) / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


def measure(bench, pool, trial, scheme, eps=None):
    """Run one unit with the BS array shifted by ``pool`` nm in x, and with
    ``ao.EPS_F`` at ``eps`` unless that is None; returns its record."""
    def placement(t):
        pl = type(bench)._placement(bench, t)
        tx = pl.t.copy()
        tx[:, 0] += pool * SHIFT_M
        return pl.with_t(tx)

    ao = importlib.import_module("nfisac.ao")
    eps_f = ao.EPS_F
    bench._placement = placement
    try:
        if eps is not None:
            ao.EPS_F = eps
        cpu = time.process_time()
        outcome = bench.run_unit(trial, scheme)
        cpu = time.process_time() - cpu
    finally:
        del bench._placement
        ao.EPS_F = eps_f
    rejects = Counter()
    run = outcome.run
    for rec in run.trace if run is not None else ():
        rejects.update(f[:-len("_block_rejected")] for f in rec.flags
                       if f.endswith("_block_rejected"))
    return dict(pool=pool, trial=trial, scheme=scheme,
                wsr_bits=outcome.wsr_bits.get(scheme),
                outer_iters=None if run is None else run.outer_iters,
                converged=None if run is None else bool(run.converged),
                cpu_s=cpu, rejects=dict(sorted(rejects.items())),
                problem=outcome.problem)


def _init_worker(checkout, workload):
    global _BENCH
    sys.stdout = sys.stderr                  # library prints stay off the report
    workloads = _workloads(checkout)
    workloads.use_checkout_source()
    _BENCH = workloads.Bench(workload)


def _run_task(unit):
    return measure(_BENCH, *unit)


def collect(checkout, units, workers, workload=WORKLOAD):
    """Records of ``units`` (``measure``'s (pool, trial, scheme[, eps])) of
    the workload in unit order, run by ``workers`` processes on the checkout."""
    workers = max(1, min(workers, len(units)))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"),
                             initializer=_init_worker,
                             initargs=(str(checkout), workload)) as ex:
        return list(ex.map(_run_task, units))


def verdict(diffs, parent_means):
    """A scheme's verdict from its paired differences per pool (in percent)
    and the parent's pool means: ``gain`` or ``loss`` when every pool's
    difference has the same sign and their mean is beyond the threshold,
    half the spread of the parent's pool means in percent of their mean but
    at least FLOOR_PCT (the LP and FIX pool means hardly move under a nm
    shift, so their spread alone would call any one-signed move);
    ``within noise`` otherwise.  Returns (verdict, threshold in percent)."""
    center = statistics.fmean(parent_means)
    threshold = max(50.0 * (max(parent_means) - min(parent_means)) / center, FLOOR_PCT)
    mean = statistics.fmean(diffs)
    if all(d > 0 for d in diffs) and mean > threshold:
        return "gain", threshold
    if all(d < 0 for d in diffs) and mean < -threshold:
        return "loss", threshold
    return "within noise", threshold


def _ok(r):
    return r["problem"] is None and r["wsr_bits"] is not None


def _paired(parent, change):
    """(parent, change) record pairs of the units both runs have, keyed by
    (pool, trial, scheme), in the change's unit order."""
    par = {(r["pool"], r["trial"], r["scheme"]): r for r in parent["units"]}
    return {key: (par[key], r) for r in change["units"]
            if (key := (r["pool"], r["trial"], r["scheme"])) in par}


def _moved(p, c):
    return _ok(p) and _ok(c) and abs(c["wsr_bits"] - p["wsr_bits"]) > MOVED_BITS


def compare(parent, change):
    """The report's lines and, per scheme, the mean and (min, max) over the
    pools of the paired difference in percent of the parent's pool mean."""
    cells = defaultdict(list)                # (scheme, pool) -> [(parent, change)]
    for (pool, _, scheme), pair in _paired(parent, change).items():
        cells[scheme, pool].append(pair)

    lines = [f"{'scheme':8} {'pool':>5} {'units':>5} {'parent':>9} {'change':>9} "
             f"{'diff':>9} {'diff %':>8} {'moved':>5} {'cpu x':>6} "
             f"{'unconv p/c':>10} {'failed p/c':>10}"]
    per_scheme, parent_means, moved = defaultdict(list), defaultdict(list), []
    for (scheme, pool), pairs in sorted(cells.items()):
        both = [(p, c) for p, c in pairs if _ok(p) and _ok(c)]
        pm = statistics.fmean(p["wsr_bits"] for p, _ in both) if both else float("nan")
        cm = statistics.fmean(c["wsr_bits"] for _, c in both) if both else float("nan")
        diff = cm - pm
        pct = 100.0 * diff / pm if pm else float("nan")
        per_scheme[scheme].append(pct)
        parent_means[scheme].append(pm)
        big = [(p, c) for p, c in both if _moved(p, c)]
        moved += big
        cpu = (sum(p["cpu_s"] for p, _ in pairs)
               / max(sum(c["cpu_s"] for _, c in pairs), 1e-12))
        unconv = [sum(r["converged"] is False for r in side) for side in zip(*pairs)]
        failed = [sum(not _ok(r) for r in side) for side in zip(*pairs)]
        lines.append(f"{scheme:8} {pool:>5} {len(pairs):>5} {pm:9.4f} {cm:9.4f} "
                     f"{diff:+9.4f} {pct:+7.2f}% {len(big):>5} {cpu:6.3f} "
                     f"{unconv[0]:>4}/{unconv[1]:<5} {failed[0]:>4}/{failed[1]:<5}")
    stats = {}
    lines.append(f"{'scheme':8} {'pools':>5} {'mean diff %':>12} {'range %':>18} "
                 f"{'threshold %':>12}  verdict")
    for scheme, pcts in per_scheme.items():
        stats[scheme] = (statistics.fmean(pcts), (min(pcts), max(pcts)))
        word, threshold = verdict(pcts, parent_means[scheme])
        lines.append(f"{scheme:8} {len(pcts):>5} {stats[scheme][0]:+11.2f}% "
                     f"{min(pcts):+8.2f} .. {max(pcts):+6.2f} {threshold:11.2f}%  {word}")
    lines.append("verdict: gain or loss when every pool's difference has the same sign "
                 "and its mean is beyond the threshold, half the spread of the "
                 f"parent's pool means but at least {FLOOR_PCT}%")
    lines.append(f"units moved by more than {MOVED_BITS} bits: {len(moved)}")
    for p, c in moved:
        lines.append(f"  {c['scheme']} pool {c['pool']} trial {c['trial']}: "
                     f"{p['wsr_bits']:.4f} -> {c['wsr_bits']:.4f} "
                     f"({c['wsr_bits'] - p['wsr_bits']:+.4f})")
    lines += headroom(parent, change)
    lines.append("totals over all pools: CPU s parent / change (ratio), "
                 "block rejects parent -> change")
    for scheme in sorted({s for s, _ in cells}):
        pairs = [pc for (s, _), group in cells.items() if s == scheme for pc in group]
        cpu = [sum(r["cpu_s"] for r in side) for side in zip(*pairs)]
        rejects = [sum((Counter(r.get("rejects", {})) for r in side), Counter())
                   for side in zip(*pairs)]
        blocks = ", ".join(f"{b} {rejects[0][b]} -> {rejects[1][b]}"
                           for b in sorted(rejects[0] | rejects[1])) or "none"
        lines.append(f"  {scheme:8} units {len(pairs):>4}  cpu {cpu[0]:9.2f} / "
                     f"{cpu[1]:9.2f} ({cpu[0] / max(cpu[1], 1e-12):.3f}x)  "
                     f"rejects {blocks}")
    return lines, stats


def headroom(parent, change):
    """Per scheme over all pools, the largest ``outer_iters`` of both sides
    and how many units end within HEADROOM_LOOPS loops of the side's
    recorded ``max_outer`` (``-`` for a run recorded without it)."""
    caps = [doc.get("max_outer") for doc in (parent, change)]
    lines = [f"AO loops: largest outer_iters parent / change, units within "
             f"{HEADROOM_LOOPS} loops of MAX_OUTER {caps[0]} / {caps[1]}"]
    schemes = defaultdict(lambda: ([], []))
    for side, doc in enumerate((parent, change)):
        for r in doc["units"]:
            if r.get("outer_iters") is not None:
                schemes[r["scheme"]][side].append(r["outer_iters"])
    for scheme, sides in sorted(schemes.items()):
        top = [max(its, default="-") for its in sides]
        near = ["-" if cap is None else sum(n >= cap - HEADROOM_LOOPS for n in its)
                for cap, its in zip(caps, sides)]
        lines.append(f"  {scheme:8} largest {top[0]:>3} / {top[1]:<3}  "
                     f"near the cap {near[0]:>3} / {near[1]}")
    return lines


def reference(parent, change, ref_parent, ref_change, eps):
    """The lines that sort every unit moved by more than MOVED_BITS between
    ``parent`` and ``change`` by its move between ``ref_parent`` and
    ``ref_change``, the same units run with the AO stop at ``eps``:
    ``plateau`` when the move vanishes there (at most MOVED_BITS),
    ``persists`` when it keeps its sign, ``flips`` when it turns, ``failed``
    when a reference run has a problem.  Then per scheme, over every unit
    of the reference runs, the mean WSR of both sides at the run stop and
    at the reference stop."""
    ref = _paired(ref_parent, ref_change)
    runs = _paired(parent, change)
    lines = [f"reference stop EPS_F = {eps:g}: each moved unit's change at the run "
             "stop and at the reference stop (parent -> change)"]
    words = defaultdict(Counter)
    for key, (p, c) in runs.items():
        if not _moved(p, c):
            continue
        pool, trial, scheme = key
        rp, rc = ref.get(key, (None, None))
        if rp is None or not (_ok(rp) and _ok(rc)):
            words[scheme]["failed"] += 1
            lines.append(f"  {scheme} pool {pool} trial {trial}: failed")
            continue
        d, dr = c["wsr_bits"] - p["wsr_bits"], rc["wsr_bits"] - rp["wsr_bits"]
        word = ("plateau" if abs(dr) <= MOVED_BITS else "persists" if d * dr > 0
                else "flips")
        words[scheme][word] += 1
        lines.append(f"  {scheme} pool {pool} trial {trial}: {d:+.4f} -> {dr:+.4f} "
                     f"({rp['wsr_bits']:.4f} -> {rc['wsr_bits']:.4f})  {word}")
    lines.append(f"{'scheme':8} {'units':>5} {'run parent':>10} {'run change':>10} "
                 f"{'ref parent':>10} {'ref change':>10} {'ref diff':>9}  moved units")
    for scheme in sorted({key[2] for key in ref}):
        both = [(runs[key], pair) for key, pair in ref.items()
                if key[2] == scheme and key in runs
                and all(_ok(r) for r in (*runs[key], *pair))]
        if not both:
            continue
        # run parent, run change, reference parent, reference change
        means = [statistics.fmean(b[stop][i]["wsr_bits"] for b in both)
                 for stop in (0, 1) for i in (0, 1)]
        tally = ", ".join(f"{w} {n}" for w, n in sorted(words[scheme].items())) or "none"
        lines.append(f"{scheme:8} {len(both):>5} {means[0]:10.4f} {means[1]:10.4f} "
                     f"{means[2]:10.4f} {means[3]:10.4f} {means[3] - means[2]:+9.4f}  "
                     f"{tally}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", nargs="?", default=str(HERE),
                    help="checkout to run (default: this one)")
    ap.add_argument("--workload", choices=WORKLOADS, default=WORKLOAD,
                    help=f"AO workload whose pool is run (default: {WORKLOAD})")
    ap.add_argument("--pools", type=int, default=3,
                    help="shifted pools beside the base pool (1..P nm)")
    ap.add_argument("--workers", type=int, default=2,
                    help="worker processes (at most one per unit)")
    ap.add_argument("--out", help="JSON file for the records")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--reference-eps", type=float, metavar="EPS",
                    help="with --compare: run the schemes with a moved unit again "
                         "on both checkouts with ao.EPS_F = EPS")
    args = ap.parse_args(argv)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")     # the workers inherit it
    if args.compare:
        docs = [json.loads(Path(f).read_text()) for f in args.compare]
        lines, stats = compare(*docs)
        if args.reference_eps is not None:
            schemes = {key[2] for key, pair in _paired(*docs).items() if _moved(*pair)}
            refs = [dict(units=collect(doc["checkout"], [
                (r["pool"], r["trial"], r["scheme"], args.reference_eps)
                for r in doc["units"] if r["scheme"] in schemes], args.workers,
                doc.get("workload", WORKLOAD)))
                for doc in docs]
            lines += reference(*docs, *refs, args.reference_eps)
        print("\n".join(lines))
        return stats
    if args.reference_eps is not None:
        ap.error("--reference-eps needs --compare")
    if not args.out:
        ap.error("--out is required unless --compare is given")
    workloads = _workloads(args.checkout)
    units = [(pool, trial, scheme)
             for pool in range(args.pools + 1)
             for trial, scheme in workloads.pool_units(args.workload)]
    records = collect(args.checkout, units, args.workers, args.workload)
    workloads.use_checkout_source()
    Path(args.out).write_text(json.dumps(
        dict(checkout=str(Path(args.checkout).resolve()), workload=args.workload,
             max_outer=importlib.import_module("nfisac.ao").MAX_OUTER,
             pools=args.pools, units=records), indent=1) + "\n")
    bad = sum(r["problem"] is not None for r in records)
    print(f"{len(records)} units, {bad} with a problem, written to {args.out}")
    return records


if __name__ == "__main__":
    main()
