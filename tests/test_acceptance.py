"""Acceptance suite: one test per criterion, each printing a PASS line.

Heavy Monte-Carlo batches run in pooled module-scope fixtures and are
shared by the criteria that consume them; a trial that two batches share
runs once.  Desk scale is N_t=4, N_r=4, K=2, N_u=2 (the gradient-suite
sizes); the sensing-threshold sweep runs at the N_t=8 desk arrays where the
echo-power operating range spans the decade.
"""

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from nfisac import geometry, harness, lp, metrics, verify, zf
from nfisac.params import AlgoParams
from nfisac.subsolver import CovarianceSubproblem, PrecoderSubproblem
from tests.conftest import desk_config

N_SEEDS = 20
MASTER_SEED = 2026


def _announce(name, ok, detail=""):
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def _effective_config(overrides):
    """The config a job runs: ``desk_config`` with the job's "cfg"
    overrides, then its "scenario" overrides."""
    cfg = desk_config(**overrides.get("cfg", {}))
    return replace(cfg, **overrides.get("scenario", {}))


def _run_case(args):
    """Top-level worker: one (scheme, effective config, trial) run."""
    scheme, cfg, trial = args
    sc = harness.build_scenario(cfg)
    rng = harness.trial_rng(MASTER_SEED, trial)
    pl = harness.initial_placement(sc, rng)
    runner = lp.run_lp if scheme.startswith("LP") else zf.run_zf
    res = runner(sc, pl, AlgoParams(), cfg.zeta,
                 fixed_positions=scheme.endswith("FIX"))
    ws = [t.wsr for t in res.trace]
    monotone = all(b >= a - 1e-6 for a, b in zip(ws, ws[1:]))
    ps = metrics.sensing_power(res.channels, res.state.v, res.state.u)
    summary = dict(
        scheme=scheme, trial=trial, wsr=res.wsr, gamma_s=res.gamma_s,
        gamma0=sc.gamma0, p_max=sc.p_max, converged=res.converged,
        iters=res.outer_iters, monotone=monotone,
        ps_db=10 * math.log10(max(ps, 1e-300)),
        power=(res.state.power() if scheme.startswith("LP")
               else float(np.sum(np.abs(res.state.P) ** 2))),
        u_norm=float(np.linalg.norm(res.state.u)),
        rank_flags=res.rank_flags, flags=res.flags,
    )
    if scheme.startswith("ZF"):
        H_e = np.vstack(res.channels.H)
        off = H_e @ res.state.P - res.state.gain * np.eye(H_e.shape[0])
        summary["zf_offdiag"] = float(np.max(np.abs(off)) / res.state.gain)
    try:
        res.placement.validate(sc)
        summary["placement_ok"] = True
    except Exception:
        summary["placement_ok"] = False
    return summary


def _pool_map(jobs, summaries):
    """Summaries of (scheme, overrides, trial) jobs, in job order.  A job
    whose scheme, effective config and trial are already in ``summaries``
    is not run again."""
    runs = [(scheme, _effective_config(overrides), t) for scheme, overrides, t in jobs]
    keys = [(scheme, repr(cfg), t) for scheme, cfg, t in runs]
    todo = {key: run for key, run in zip(keys, runs) if key not in summaries}
    if todo:
        with ProcessPoolExecutor(max_workers=min(8, os.cpu_count() or 1)) as ex:
            summaries.update(zip(todo, ex.map(_run_case, todo.values())))
    return [summaries[key] for key in keys]


@pytest.fixture(scope="module")
def summaries():
    """(scheme, repr of the effective config, trial) -> run summary, shared
    by every batch of the module, so each distinct trial runs once."""
    return {}


@pytest.fixture(scope="module")
def convergence_runs(summaries):
    """Criterion 4/5/6/7 batch: all four schemes at desk scale, 20 seeds."""
    jobs = [(scheme, {}, t)
            for scheme in ("LP-MA", "ZF-MA", "LP-FIX", "ZF-FIX")
            for t in range(N_SEEDS)]
    return _pool_map(jobs, summaries)


@pytest.fixture(scope="module")
def trend_runs(summaries):
    """Criterion 8(a)-(d) batch on the desk-scale trend scenario."""
    jobs = []
    for t in range(N_SEEDS):
        # ZF weight sweep runs rectangular (K n_u < N_t): with a square
        # stacked channel the weight-to-weight spread is dominated by the
        # conditioning sensitivity of the zero-forcing gain, not the weights
        for w1 in (0.1, 0.3, 0.5, 0.7, 0.9):
            jobs.append(("ZF-MA", {"cfg": {"n_u": 1}, "scenario": {"w1": w1}}, t))
        for w1 in (0.5, 0.9):
            jobs.append(("LP-MA", {"scenario": {"w1": w1}}, t))
        for pm in (0.1, 1.0):
            jobs.append(("LP-MA", {"scenario": {"p_max": pm}, "tag": "pw"}, t))
            jobs.append(("ZF-MA", {"scenario": {"p_max": pm}, "tag": "pw"}, t))
        for scheme in ("LP-FIX", "ZF-FIX"):
            jobs.append((scheme, {}, t))
    results = _pool_map(jobs, summaries)
    return list(zip(jobs, results))


def _mean(results, scheme, **match):
    vals = [r["wsr"] for (job, r) in results
            if r["scheme"] == scheme
            and all(job[1].get("scenario", {}).get(k, None) == v
                    for k, v in match.items())]
    return float(np.mean(vals))


def test_criterion_1_gradient_suite():
    t0 = time.time()
    cfg = desk_config()  # N_t=4, N_r=4, K=2, N_u=2

    rows, ok = verify.gradient_suite(lambda: harness.build_scenario(cfg),
                                     n_configs=20, seed=MASTER_SEED, h=1e-7,
                                     tol_rel=1e-4, tol_abs=1e-8)
    elapsed = time.time() - t0
    worst = max(r[6] for r in rows if abs(r[3]) >= 1e-4)
    _announce("criterion 1 (analytic position gradients vs FD, 20 configs)",
              ok and elapsed <= 120,
              f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_combiner_optimality(scenario):
    rng = np.random.Generator(np.random.Philox(key=[MASTER_SEED, 77]))
    ok = True
    worst_margin = np.inf
    for inst in range(10):
        pl = harness.initial_placement(scenario, harness.trial_rng(MASTER_SEED, inst))
        ch = geometry.build_channels(scenario, pl)
        st = verify.random_lp_state(scenario, ch, rng)
        u_lp = lp.optimal_combiner_lp(ch, st.W)
        best_lp = metrics.sinr(ch, st.W, st.v, u_lp)
        zst = metrics.make_zf_state(ch, st.v, u_lp, scenario.p_max)
        u_zf = zf.optimal_combiner_zf(ch, zst)
        zst.u = u_zf
        best_zf = metrics.sinr(ch, (zst.P,), zst.v, zst.u)
        for _ in range(10_000):
            u = verify._random_unit(rng, scenario.n_r)
            s_lp = metrics.sinr(ch, st.W, st.v, u)
            s_zf = metrics.sinr(ch, (zst.P,), zst.v, u)
            worst_margin = min(worst_margin, best_lp - s_lp, best_zf - s_zf)
            if s_lp > best_lp * (1 + 1e-12) or s_zf > best_zf * (1 + 1e-12):
                ok = False
    _announce("criterion 2 (closed-form combiners beat 1e4 random combiners x10)",
              ok, f"min margin {worst_margin:.3e}")


def test_criterion_3_sca_bound_suite(scenario):
    rng = np.random.Generator(np.random.Philox(key=[MASTER_SEED, 78]))
    pl = harness.initial_placement(scenario, harness.trial_rng(MASTER_SEED, 5))
    ch = geometry.build_channels(scenario, pl)
    st = verify.random_lp_state(scenario, ch, rng)
    st.u = ch.f_r / math.sqrt(scenario.n_r)
    zst = metrics.make_zf_state(ch, st.v, st.u, scenario.p_max)
    tight_ok = bound_ok = True

    # precoder bound (expansion = random feasible precoders)
    sub_w = PrecoderSubproblem(ch, st.W, st.v, st.u, scenario.weights,
                               scenario.p_max, scenario.gamma0)
    vals = sub_w.per_user_bound(st.W)
    for k in range(scenario.n_users):
        if abs(vals[k] - metrics.rate_lp(ch, st, k)) > 1e-9:
            tight_ok = False
    for _ in range(100):
        cand = verify.random_lp_state(scenario, ch, rng,
                                      power_fraction=rng.uniform(0.05, 1.0))
        vals = sub_w.per_user_bound(cand.W)
        for k in range(scenario.n_users):
            if vals[k] > metrics.rate_lp_w(ch, cand.W, st.v, k) + 1e-9:
                bound_ok = False

    # covariance bounds, LP and ZF forms
    V0 = np.outer(st.v, st.v.conj())
    sub_l = CovarianceSubproblem(ch, V0, scenario.weights, scenario.gamma0, st.u,
                                 1.0, lp.interference_model(ch, st, scenario.gamma0))
    sub_z = CovarianceSubproblem(ch, V0, scenario.weights, scenario.gamma0, st.u,
                                 1.0, zf.interference_model(ch, zst, scenario.gamma0))
    for k in range(scenario.n_users):
        if abs(sub_l.bound_values(V0)[k] - metrics.rate_lp_cov(ch, st.W, V0, k)) > 1e-9:
            tight_ok = False
        if abs(sub_z.bound_values(V0)[k] - metrics.rate_zf_cov(ch, zst.gain, V0, k)) > 1e-9:
            tight_ok = False
    for _ in range(100):
        x = rng.normal(size=scenario.n_t) + 1j * rng.normal(size=scenario.n_t)
        V = np.outer(x, x.conj())
        V *= rng.uniform(0.0, 1.0) / float(np.real(np.trace(V)))
        lv = sub_l.bound_values(V)
        zv = sub_z.bound_values(V)
        for k in range(scenario.n_users):
            if lv[k] > metrics.rate_lp_cov(ch, st.W, V, k) + 1e-9:
                bound_ok = False
            if zv[k] > metrics.rate_zf_cov(ch, zst.gain, V, k) + 1e-9:
                bound_ok = False
    _announce("criterion 3 (SCA bounds tight at expansion, global below truth)",
              tight_ok and bound_ok,
              f"tight={tight_ok} bound={bound_ok}")


def test_criterion_4_ao_monotone_convergence(convergence_runs):
    bad_mono = [r for r in convergence_runs if not r["monotone"]]
    bad_conv = [r for r in convergence_runs
                if not (r["converged"] and r["iters"] <= 30)]
    _announce("criterion 4 (monotone WSR trace, convergence within 30 iters)",
              not bad_mono and not bad_conv,
              f"{len(convergence_runs)} runs, non-monotone {len(bad_mono)}, "
              f"unconverged {len(bad_conv)}")


def test_criterion_5_terminal_feasibility(convergence_runs):
    bad = []
    for r in convergence_runs:
        ok = (r["gamma_s"] >= r["gamma0"] * (1 - 1e-3)
              and r["power"] <= r["p_max"] * (1 + 1e-6)
              and abs(r["u_norm"] - 1.0) <= 1e-9
              and r["placement_ok"])
        if not ok:
            bad.append((r["scheme"], r["trial"]))
    _announce("criterion 5 (terminal feasibility: SINR, power, regions, spacing, |u|)",
              not bad, f"violations: {bad[:4]}")


def test_criterion_6_zf_identity(convergence_runs, scenario):
    worst = 0.0
    for r in convergence_runs:
        if "zf_offdiag" in r:
            worst = max(worst, r["zf_offdiag"])
    # plus fresh random evaluations
    rng = np.random.Generator(np.random.Philox(key=[MASTER_SEED, 79]))
    for t in range(20):
        pl = harness.initial_placement(scenario, harness.trial_rng(MASTER_SEED, 100 + t))
        ch = geometry.build_channels(scenario, pl)
        P, gain, _ = metrics.zf_precoder(ch, scenario.p_max)
        H_e = np.vstack(ch.H)
        off = H_e @ P - gain * np.eye(H_e.shape[0])
        worst = max(worst, float(np.max(np.abs(off)) / gain))
        power = float(np.sum(np.abs(P) ** 2))
        assert power == pytest.approx(scenario.p_max, rel=1e-6)
    _announce("criterion 6 (stacked channel x precoder = gain * I at budget power)",
              worst <= 1e-8, f"worst off-diagonal {worst:.2e} of the gain")


def test_criterion_7_rank_one_extraction(convergence_runs):
    ma_runs = [r for r in convergence_runs if r["scheme"].endswith("MA")]
    clean = sum(1 for r in ma_runs if r["rank_flags"] == 0)
    flagged_visible = all(
        r["rank_flags"] == 0 or "rank1_ratio_low" in r["flags"] for r in ma_runs)
    frac = clean / len(ma_runs)
    _announce("criterion 7 (rank-1 ratio >= 0.99 on >= 90% of trials, rest flagged)",
              frac >= 0.9 and flagged_visible,
              f"clean fraction {frac:.2f}, flags visible {flagged_visible}")


def test_criterion_8_trends(trend_runs, summaries):
    t0 = time.time()
    # (a) unbalanced weights beat balanced for LP-MA
    lp_09 = _mean(trend_runs, "LP-MA", w1=0.9)
    lp_05 = _mean(trend_runs, "LP-MA", w1=0.5)
    ok_a = lp_09 > lp_05

    # (b) ZF-MA weight sweep nearly flat
    zf_means = [_mean(trend_runs, "ZF-MA", w1=w) for w in (0.1, 0.3, 0.5, 0.7, 0.9)]
    spread = (max(zf_means) - min(zf_means)) / float(np.mean(zf_means))
    ok_b = spread <= 0.10

    # (c) more power, more rate
    ok_c = (_mean(trend_runs, "LP-MA", p_max=1.0) > _mean(trend_runs, "LP-MA", p_max=0.1)
            and _mean(trend_runs, "ZF-MA", p_max=1.0) > _mean(trend_runs, "ZF-MA", p_max=0.1))

    # (d) movable beats fixed on matched seeds (default scenario runs)
    lp_ma = _mean(trend_runs, "LP-MA", w1=0.5)
    zf_ma = _mean(trend_runs, "ZF-MA", p_max=1.0)
    lp_fix = float(np.mean([r["wsr"] for (j, r) in trend_runs if r["scheme"] == "LP-FIX"]))
    zf_fix = float(np.mean([r["wsr"] for (j, r) in trend_runs if r["scheme"] == "ZF-FIX"]))
    ok_d = lp_ma > lp_fix and zf_ma > zf_fix

    # (e) sensing threshold decade: Ps moves >= 5 dB, LP-MA WSR moves <= 5%.
    # Run at the N_t=8 desk arrays where the beamformer has an
    # interference-free subspace and the blend initialization sits on the
    # constraint boundary.
    jobs = []
    for g0 in (1e-5, 1e-4):
        for t in range(N_SEEDS):
            jobs.append(("LP-MA", {"cfg": {"n_t": 8, "profile": "desk"},
                                   "scenario": {"gamma0": g0}}, t))
    rows = _pool_map(jobs, summaries)
    ps_lo = float(np.mean([r["ps_db"] for r in rows if r["gamma0"] == 1e-5]))
    ps_hi = float(np.mean([r["ps_db"] for r in rows if r["gamma0"] == 1e-4]))
    w_lo = float(np.mean([r["wsr"] for r in rows if r["gamma0"] == 1e-5]))
    w_hi = float(np.mean([r["wsr"] for r in rows if r["gamma0"] == 1e-4]))
    dps = ps_hi - ps_lo
    dwsr = abs(w_hi - w_lo) / w_lo
    ok_e = dps >= 5.0 and dwsr <= 0.05

    elapsed = time.time() - t0
    detail = (f"a: {lp_09:.3f}>{lp_05:.3f}={ok_a}  b: spread {spread:.3f}={ok_b}  "
              f"c={ok_c}  d: LP {lp_ma:.3f}>{lp_fix:.3f} ZF {zf_ma:.3f}>{zf_fix:.3f}={ok_d}  "
              f"e: dPs {dps:.1f} dB dWSR {dwsr*100:.1f}%={ok_e}  (+{elapsed:.0f}s)")
    _announce("criterion 8 (figure-level trends at desk scale)",
              ok_a and ok_b and ok_c and ok_d and ok_e, detail)


def test_criterion_9_determinism(tmp_path):
    cfg = harness.load_config(None, dict(
        profile="trend", preset="weights", schemes=("LP-FIX", "ZF-FIX"),
        trials=2, seed=MASTER_SEED, sweep=(0.5,), workers=2,
        out=str(tmp_path / "a.csv")))
    rows1, _, _ = harness.run_preset(cfg)
    rows2, _, _ = harness.run_preset(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    harness.emit(rows1, str(p1), "csv")
    harness.emit(rows2, str(p2), "csv")

    def strip_wall(path):
        return ["," .join(line.split(",")[:-1])
                for line in path.read_text().splitlines()]

    same = strip_wall(p1) == strip_wall(p2)
    _announce("criterion 9 (byte-identical CSV modulo wall time)", same)
