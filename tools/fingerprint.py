"""Identity fingerprint of the optimizer on fixed benchmark units.

Runs all 160 ``mc-trend`` units and ``positions`` cells 0-119 of the
benchmark pools, each through ``perfbench.workloads.Bench(...).run_unit``,
and prints one line per unit: the unit key and a sha256 over what the unit
produced.  An AO trial contributes its WSR ``repr``, every trace record,
``outer_iters``, ``converged``, ``flags``, ``block_rejects``, ``rank_flags``
and the final placement bytes; a positions cell its WSR per scheme.  Both
also contribute the return value of every position-block call inside them
(placements, channels, states, ``eta``, ``AlmInfo``).  Channel tags are left
out: they count channel builds, not results.

It then runs every preset in-process through ``harness.load_config`` and
``run_preset`` (``PRESETS``) and prints one sha256 line each for its rows
(``wall_ms`` left out) and, for convergence, its trace rows.  All run at
``trend`` scale with seed 1: convergence with 3 trials, gradcheck with its
default configs, and weights, power, nk (``LP-MA`` and ``LP-FIX``, since
ZF needs 2 N_u <= N_t) and gamma0 (on {1e-5, 5e-5}, since trend cannot
reach the default grid's 1e-4) with one trial each.

Two checkouts produce bit-identical results on these units and presets
exactly when their outputs are equal.  From the root of each checkout:

    python3 tools/fingerprint.py > fingerprint.txt
    diff /path/to/other/fingerprint.txt fingerprint.txt

OpenBLAS runs single-threaded unless ``OPENBLAS_NUM_THREADS`` says
otherwise.  The benchmark code is imported, never modified.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402

UNITS = {"mc-trend": 160, "positions": 120}
POSITION_BLOCKS = {
    "lp": ("optimize_user_positions", "optimize_bs_positions_alm"),
    "zf": ("optimize_user_positions_alm_zf", "optimize_bs_positions_alm_zf"),
}
SKIPPED_FIELDS = {"tag", "channel_tag"}
RUN_FIELDS = ("wsr", "trace", "outer_iters", "converged", "flags",
              "block_rejects", "rank_flags", "placement")
ONE_TRIAL = dict(profile="trend", trials=1, seed=1, workers=1)
PRESETS = {
    "convergence": dict(profile="trend", preset="convergence", trials=3, seed=1,
                        workers=1),
    "gradcheck": dict(profile="trend", preset="gradcheck", seed=1),
    "weights": dict(ONE_TRIAL, preset="weights"),
    "power": dict(ONE_TRIAL, preset="power"),
    "nk": dict(ONE_TRIAL, preset="nk", schemes=("LP-MA", "LP-FIX")),
    "gamma0": dict(ONE_TRIAL, preset="gamma0", sweep=(1e-5, 5e-5)),
}


def feed(h, obj):
    """Add ``obj`` to the hash: arrays by dtype, shape and bytes, scalars by
    ``repr``, containers and dataclasses field by field."""
    if isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            if f.name not in SKIPPED_FIELDS:
                h.update(f.name.encode())
                feed(h, getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        h.update(f"({len(obj)}".encode())
        for item in obj:
            feed(h, item)
        h.update(b")")
    elif isinstance(obj, dict):
        feed(h, sorted(obj.items()))
    else:
        h.update(repr(obj).encode())


def record_position_blocks(calls):
    """Wrap the position blocks by module attribute, where both stacks and
    the positions cell look them up, so each call's return value lands in
    ``calls``.  Every ``Bench`` uses these same module objects."""
    for module, names in POSITION_BLOCKS.items():
        owner = importlib.import_module(f"nfisac.{module}")
        for name in names:
            def wrapped(*args, _fn=getattr(owner, name), _name=f"{module}.{name}",
                        **kwargs):
                out = _fn(*args, **kwargs)
                calls.append((_name, out))
                return out
            setattr(owner, name, wrapped)


def fingerprint(bench, calls, trial, scheme):
    calls.clear()
    outcome = bench.run_unit(trial, scheme)
    h = hashlib.sha256()
    feed(h, (outcome.wsr_bits, outcome.problem))
    if outcome.run is not None:
        feed(h, [getattr(outcome.run, name) for name in RUN_FIELDS])
    feed(h, calls)
    return h.hexdigest()


def digest(obj):
    h = hashlib.sha256()
    feed(h, obj)
    return h.hexdigest()


def preset_lines():
    """(label, sha256) of each preset's rows, ``wall_ms`` left out, and of
    the trace rows of a preset that writes them."""
    from nfisac import harness

    for name, overrides in PRESETS.items():
        rows, trace_rows, _ = harness.run_preset(harness.load_config(None, overrides))
        yield f"{name} rows", digest([{k: v for k, v in row.items() if k != "wall_ms"}
                                      for row in rows])
        if trace_rows:
            yield f"{name} trace", digest(trace_rows)


def main():
    workloads.use_checkout_source()
    calls = []
    record_position_blocks(calls)
    for name, n_units in UNITS.items():
        bench = workloads.Bench(name)
        for trial, scheme in workloads.pool_units(name)[:n_units]:
            print(name, trial, scheme, fingerprint(bench, calls, trial, scheme),
                  flush=True)
    for label, sha in preset_lines():
        calls.clear()
        print(label, sha, flush=True)


if __name__ == "__main__":
    main()
