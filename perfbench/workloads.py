"""Workload definitions: the pool of units each workload draws from, how one
unit runs through the library's public entry points, and the checks applied
to its output.

A unit is one AO trial (one scheme on one trial index) on the ``mc-*``
workloads and one position-block cell on ``positions``.  Every unit of a
pool is keyed by (trial index, scheme) under ``POOL_SEED``, so the same unit
always starts from the same ``initial_placement(trial_rng(POOL_SEED, trial))``
as ``harness.run_trial`` would use.

The library is imported when a ``Bench`` is built, not at module import, so
the benchmark can time a fresh import of the package as part of set-up.
"""

from __future__ import annotations

import importlib
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
POOL_FILE = ROOT / "perfbench" / "pool.json"     # written by calibrate.py

# Trial indices 0..19 under this seed are the acceptance batch of
# tests/test_acceptance.py, so the mc-trend pool contains it.
POOL_SEED = 2026

MC_SCHEMES = ("LP-MA", "ZF-MA", "LP-FIX", "ZF-FIX")
POSITIONS = "POS"

# name -> (scale profile, schemes, pool trial count, why)
WORKLOADS = {
    "mc-trend": ("trend", MC_SCHEMES, 40,
                 "full AO trials of all four schemes at trend scale; the "
                 "covariance subsolver does almost all of the work"),
    "mc-desk": ("desk", ("LP-MA", "ZF-MA"), 24,
                "full MA trials at desk scale (N_t=8, K*N_u<N_t): the same "
                "layers on twice the matrix size, rectangular ZF pseudo-inverse"),
    "positions": ("trend", (POSITIONS,), 600,
                  "one pass of every position block per cell; geometry, "
                  "metrics and the position gradients do the work, the "
                  "subsolver none"),
}

LN2 = math.log(2.0)
TRACE_SLACK = 1e-6          # criterion 4's tolerance on a non-decreasing WSR trace


@dataclass
class Outcome:
    """What one unit produced: WSR in bits per label, the first problem
    found (exception or failed check, None when clean), and the RunResult
    of an AO trial (None on positions)."""

    wsr_bits: dict
    problem: str | None
    run: object = None


def use_checkout_source():
    """Put the checkout's ``src`` first on the import path and make sure the
    package really comes from there; raises ImportError otherwise."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import nfisac

    where = Path(nfisac.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"nfisac imported from {where}, not from {src}")


def pool_units(name):
    """Units of a workload's pool, in pool order: (trial, scheme) pairs."""
    _, schemes, trials, _ = WORKLOADS[name]
    return [(trial, scheme) for trial in range(trials) for scheme in schemes]


class Bench:
    """A workload set up for running: config, scenario and the library
    modules it was built with."""

    def __init__(self, name):
        profile = WORKLOADS[name][0]
        self.name = name
        self.nf = {m: importlib.import_module(f"nfisac.{m}")
                   for m in ("geometry", "harness", "lp", "metrics", "params",
                             "subsolver", "zf")}
        harness = self.nf["harness"]
        # positions runs the position blocks of both MA stacks
        schemes = ("LP-MA", "ZF-MA") if name == "positions" else WORKLOADS[name][1]
        self.cfg = harness.load_config(None, dict(
            profile=profile, preset="convergence", schemes=schemes,
            seed=POOL_SEED, workers=1))
        self.scenario = harness.build_scenario(self.cfg)

    def run_unit(self, trial, scheme):
        """Run one unit; any exception is caught here and recorded, because
        ``harness.run_trial`` would swallow it."""
        try:
            if scheme == POSITIONS:
                return self._positions_cell(trial)
            return self._ao_trial(trial, scheme)
        except Exception as exc:  # unit boundary: record and keep running
            return Outcome({}, f"{type(exc).__name__}: {exc}")

    def _placement(self, trial):
        harness = self.nf["harness"]
        return harness.initial_placement(
            self.scenario, harness.trial_rng(POOL_SEED, trial))

    def _ao_trial(self, trial, scheme):
        lp, zf, nf = self.nf["lp"], self.nf["zf"], self.nf
        sc = self.scenario
        runner = lp.run_lp if scheme.startswith("LP") else zf.run_zf
        res = runner(sc, self._placement(trial), nf["params"].AlgoParams(),
                     self.cfg.zeta, fixed_positions=scheme.endswith("FIX"))
        if scheme.startswith("LP"):
            power = res.state.power()
        else:
            power = float(np.sum(np.abs(res.state.P) ** 2))
        problem = _check_ao(res, sc, power)
        return Outcome({scheme: res.wsr / LN2}, problem, run=res)

    def _positions_cell(self, trial):
        """The LP then the ZF position blocks, each chain starting from the
        cell's initial placement and warm-start state."""
        g, lp, zf, metrics = (self.nf[m] for m in ("geometry", "lp", "zf", "metrics"))
        params = self.nf["params"].AlgoParams()
        sc = self.scenario
        w = sc.weights
        pl0 = self._placement(trial)
        ch0 = g.build_channels(sc, pl0)
        problem = None

        st = lp.initial_lp_state(sc, ch0, params)
        pl, ch = pl0, ch0
        for k in range(sc.n_users):
            before = metrics.rate_lp(ch, st, k)
            pl, ch, _ = lp.optimize_user_positions(sc, pl, ch, st, k, params)
            if metrics.rate_lp(ch, st, k) < before:
                problem = problem or f"LP q{k} block lowered its own rate"
        pl, ch, _, _ = lp.optimize_bs_positions_alm(sc, pl, ch, st, w, sc.gamma0, params)
        pl.validate(sc)
        lp_wsr = float(w @ metrics.lp_rates(ch, st))

        zst = zf.initial_zf_state(sc, ch0, params)
        pl, ch = pl0, ch0
        for k in range(sc.n_users):
            pl, ch, zst, _, _ = zf.optimize_user_positions_alm_zf(
                sc, pl, ch, zst, w, sc.gamma0, k, params)
        pl, ch, zst, _, _ = zf.optimize_bs_positions_alm_zf(
            sc, pl, ch, zst, w, sc.gamma0, params)
        pl.validate(sc)
        zf_wsr = float(w @ metrics.zf_rates(ch, zst))

        wsr = {"LP-MA": lp_wsr / LN2, "ZF-MA": zf_wsr / LN2}
        if not all(math.isfinite(x) for x in wsr.values()):
            problem = problem or f"non-finite WSR {wsr}"
        return Outcome(wsr, problem)


def _check_ao(res, sc, power):
    """Criterion 5's terminal-feasibility test plus a finite WSR and a
    non-decreasing trace; returns the first violation or None."""
    if not math.isfinite(res.wsr):
        return f"non-finite WSR {res.wsr!r}"
    if not res.gamma_s >= sc.gamma0 * (1 - 1e-3):
        return f"gamma_s {res.gamma_s:.6e} below gamma0 {sc.gamma0:.1e}"
    if not power <= sc.p_max * (1 + 1e-6):
        return f"power {power:.9f} above p_max {sc.p_max}"
    u_norm = float(np.linalg.norm(res.state.u))
    if abs(u_norm - 1.0) > 1e-9:
        return f"|u| = {u_norm!r}"
    res.placement.validate(sc)
    ws = [rec.wsr for rec in res.trace]
    for i, (a, b) in enumerate(zip(ws, ws[1:])):
        if b < a - TRACE_SLACK:
            return f"WSR trace fell at record {i + 1} ({a:.9f} -> {b:.9f})"
    return None
