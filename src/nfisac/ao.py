"""Alternating-optimization engine shared by the LP and ZF stacks.

One copy each of the AO loop with its block gate, the SCA loop of every
SCA block, the sensing-beam update, the projected-gradient descent of every
position block and the ALM loop around it; the engine measures every point
itself.  A stack supplies only what is scheme-specific: its state, whose
``precoders`` (LP W, ZF (P,)) enter the sensing SINR and whose ``at``
follows an antenna move, its rates, combiner and blocks, and the
subproblem, objective and gradient functions the inner loops call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import geometry, metrics
from .errors import (
    InfeasibleSubproblemError, NfIsacError, NumericalError, OptimizationAbort,
    RankDeficiencyError,
)


@dataclass
class RunResult:
    state: object
    placement: geometry.Placement
    channels: geometry.ChannelSet
    trace: list
    outer_iters: int
    converged: bool
    wsr: float                       # nats
    rates: np.ndarray
    gamma_s: float
    sinr_deficit_scaled: float
    rank_flags: int = 0
    block_rejects: int = 0
    flags: tuple = ()


@dataclass
class AlmInfo:
    outer_rounds: int = 0
    inner_steps: int = 0
    sinr_deficit_scaled: float = 0.0
    line_search_exhausted: bool = False


def initial_sense_beam(channels, precoders, u, gamma0, tol_feas):
    """Feasible unit beam with the least user interference.

    Starts from the bottom eigenvector of sum_k H_k^H H_k and blends toward
    the target response only as far as the sensing constraint requires
    (bisection on the normalized blend; the deficit decreases monotonically toward
    the aligned end after phase-matching the two endpoints).  Starting
    instead fully aligned parks the whole run at maximum echo power whenever
    the interference incentive per SCA round is small, hiding the
    sensing/communication trade-off.
    """
    tol = tol_feas * metrics.sinr_deficit_scale(channels, gamma0)

    def deficit(v):
        return metrics.sinr_deficit(channels, precoders, v, u, gamma0)

    gram = sum(Hk.conj().T @ Hk for Hk in channels.H)
    _, vecs = np.linalg.eigh(gram)
    v_min = vecs[:, 0]
    if deficit(v_min) <= tol:
        return v_min
    v_max = channels.f_t / np.linalg.norm(channels.f_t)
    if deficit(v_max) > tol:
        return v_max                      # nothing feasible; caller handles
    a0 = np.vdot(v_max, v_min)
    if abs(a0) > 0:
        v_min = v_min * (np.conj(a0) / abs(a0))

    def blend(alpha):
        v = (1.0 - alpha) * v_min + alpha * v_max
        return v / np.linalg.norm(v)

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if deficit(blend(mid)) <= 0.5 * tol:
            hi = mid
        else:
            lo = mid
    return blend(hi)


# ---------------------------------------------------------------------------
# SCA loop and the sensing-beam update

def sca(x, make_sub, solve, value, params):
    """SCA rounds from ``x``: ``make_sub(x)`` builds the convex subproblem at
    the current point and ``solve(sub, params)`` gives the next point, until
    the surrogate ``value(sub, x)`` gains less than eps_s over the previous
    round or sca_max rounds ran.  Returns (x, rounds), counting the last round.
    """
    prev = None
    rounds = 0
    for _ in range(params.sca_max):
        sub = make_sub(x)
        x = solve(sub, params)
        cur = value(sub, x)
        rounds += 1
        if prev is not None and cur - prev < params.eps_s:
            break
        prev = cur
    return x, rounds


def sense_beam(channels, state, weights, gamma0, params, make_sub, solve, eigpair):
    """SCA + rank-1 penalty update of the sensing transmit beamformer.

    ``make_sub(V)`` builds the stack's covariance subproblem around V;
    ``solve`` and ``eigpair`` are the stack's subproblem solver and
    eigen-extraction.  Returns (v, rank_ratio, flags).  The eigen-extracted
    vector is renormalized to unit norm, which can only decrease the SINR
    deficit under ``state.precoders``; if even the renormalized vector is
    infeasible the scaled vector is returned and flagged for the caller.
    """
    V, _ = sca(np.outer(state.v, state.v.conj()), make_sub, solve,
               lambda sub, V: float(np.asarray(weights) @ sub.bound_values(V)), params)
    beta_max, chi = eigpair(V)
    tr = float(np.real(np.trace(V)))
    ratio = beta_max / tr if tr > 0 else 1.0
    flags = [] if ratio >= 0.99 else ["rank1_ratio_low"]
    tol = params.tol_feas * metrics.sinr_deficit_scale(channels, gamma0)
    v_unit = chi / np.linalg.norm(chi)
    if metrics.sinr_deficit(channels, state.precoders, v_unit, state.u, gamma0) <= tol:
        return v_unit, ratio, flags
    flags.append("v_not_renormalized")
    return np.sqrt(max(beta_max, 0.0)) * chi, ratio, flags


# ---------------------------------------------------------------------------
# projected-gradient descent and the ALM position loop

def descend(scenario, k, x, grad, move, stop, max_steps, params):
    """Projected-gradient descent with Armijo backtracking on one antenna
    array: the BS transmit array (``k`` None) or user k's antennas.

    ``x`` is the caller's iterate, a tuple that starts with the Placement
    and ends with the objective value being decreased.  ``grad(x)`` gives
    the objective's xy gradient, shape (n, 2); ``move(x, positions)`` takes
    a stack of candidate positions (c, n, 3) and gives (values, take): the
    candidates' objective values and ``take(i)``, the iterate of candidate
    i; ``stop(x_prev, x)`` ends the descent after an accepted step.

    Each line search takes its trial steps s, s tau, s tau^2, ... (at most
    max_ls of them) in stacks of 2, 4, 8, ..., projected onto the array's
    region.  A trial that projects to no move ends the search there and the
    descent with it; a spacing violation rejects a trial unevaluated.  The
    other trials of a stack are evaluated together, and the first in step
    order that passes the Armijo test is adopted; an adopted step s makes 2s
    the next first trial.  The result is that of trying one step at a time
    (see ``_evaluate`` for errors).  Returns (x, steps, exhausted), exhausted
    when a line search rejected all its trials: max_ls of them, or every
    one before its step vanished.
    """
    region = scenario.tx_region if k is None else scenario.user_regions[k]
    step = params.step0
    steps = 0
    for _ in range(max_steps):
        g = grad(x)
        pos = x[0].array(k)
        adopted, tried, size, s = None, 0, 2, step
        while adopted is None and tried < params.max_ls:
            trials = []
            for _ in range(min(size, params.max_ls - tried)):
                trials.append(s)
                s *= params.tau
            tried, size = tried + len(trials), size * 2
            cand = np.repeat(pos[None], len(trials), axis=0)
            cand[..., :2] = pos[:, :2] - np.array(trials)[:, None, None] * g
            cand = geometry.project_points_to_region(cand, region)
            delta2 = ((cand - pos) ** 2).reshape(len(trials), -1).sum(axis=1)
            moved = delta2 != 0.0
            n = len(trials) if moved.all() else int(np.argmin(moved))
            spaced = geometry.min_spacing_ok(cand[:n], scenario.d_min)
            evaluable = [i for i in range(n) if spaced[i]]
            for i, value, take in _evaluate(move, x, cand, evaluable):
                if x[-1] - value >= params.delta * delta2[i]:
                    adopted = trials[i], take
                    break
            if adopted is None and n < len(trials):
                return x, steps, tried - len(trials) + n > 0
        if adopted is None:
            return x, steps, True
        x_prev, x = x, adopted[1]()
        step = adopted[0] * 2.0
        steps += 1
        if stop(x_prev, x):
            break
    return x, steps, False


def _evaluate(move, x, cand, idx):
    """(trial, value, take) of the trials ``idx`` in step order, from one
    ``move`` on their stack.

    If the stack raises, its trials are evaluated one at a time, lazily, so
    an error is raised only where a one-at-a-time search would meet it; a
    lone trial that raises RankDeficiencyError cannot be evaluated and gets
    the value NaN, which fails every Armijo test.
    """
    if not idx:
        return
    try:
        values, take = move(x, cand[idx])
    except NfIsacError as exc:
        if len(idx) == 1 and not isinstance(exc, RankDeficiencyError):
            raise
        values = None
    if values is not None:
        for j, i in enumerate(idx):
            yield i, values[j], functools.partial(take, j)
    elif len(idx) > 1:
        for i in idx:
            yield from _evaluate(move, x, cand, [i])
    else:
        yield idx[0], np.nan, None


def alm_positions(scenario, placement, channels, state, weights, gamma0, params,
                  eta, rates_of, descent, user=None):
    """ALM over one antenna array (the BS transmit array, or user ``user``'s
    antennas): inner PGM (``descend``) on -WSR + eta*kap + p/2*kap^2, then
    multiplier/penalty updates, until the WSR stabilizes.

    The stack supplies ``rates_of(channels, state)``, a state whose
    ``at(channels, p_max)`` gives it on a stack of candidates' channels (a
    RankDeficiencyError rejects only its own trial, see ``descend``) and
    whose ``candidate(i, channels)`` takes candidate i out, and
    ``descent(placement, channels, state, penalized)``, the gradient of -WSR
    and, when penalized, of the unscaled SINR deficit (else None); the loop
    measures every point itself (``_measure``: WSR under ``weights``, kap
    the SINR deficit under ``gamma0``) and scales kap and its gradient
    alike.  Only the adopted candidate of a stack becomes a ChannelSet and
    a state of its own.
    Returns (placement, channels, state, eta, info); eta persists across
    calls as warm-start dual information.
    """
    scale = metrics.sinr_deficit_scale(channels, gamma0)

    def evaluate(ch, st):
        st = st.at(ch, scenario.p_max)
        _, w, kp = _measure(ch, st, rates_of, weights, gamma0, scale)
        return st, w, kp

    x = (placement, channels, *evaluate(channels, state))
    wsr_prev, kap = x[3:]
    info = AlmInfo(sinr_deficit_scaled=kap)
    p0 = params.p0

    def stop(prev, cur):
        L_prev, L_cur = prev[-1], cur[-1]
        denom = max(abs(L_cur), 1e-12 * (1.0 + abs(L_prev)))
        return abs(L_prev - L_cur) / denom < params.eps_l

    for outer in range(params.alm_max_outer):
        p = 0.0 if (kap <= 0.0 and eta == 0.0) else p0
        penalized = eta != 0.0 or p != 0.0

        def lagrangian(w, kp):
            return -w + eta * kp + 0.5 * p * kp * kp

        def grad(x):
            g, g_def = descent(*x[:3], penalized)
            return g + (eta + p * x[4]) * (g_def / scale) if penalized else g

        def move(x, positions):
            pl, ch = geometry.move_array(scenario, x[0], x[1], user, positions)
            st, w, kp = evaluate(ch, x[2])
            values = lagrangian(w, kp)

            def take(i):
                pl_i, ch_i = geometry.candidate(pl, ch, user, i)
                return (pl_i, ch_i, st.candidate(i, ch_i), float(w[i]), float(kp[i]),
                        float(values[i]))
            return values, take

        x = (*x[:5], lagrangian(x[3], x[4]))
        x, steps, exhausted = descend(scenario, user, x, grad, move, stop,
                                      params.inner_pgm_max, params)
        info.inner_steps += steps
        info.line_search_exhausted |= exhausted
        wsr_c, kap = x[3], x[4]
        eta = max(0.0, eta + p0 * kap)
        p0 = min(p0 * params.theta, params.p_cap)
        info.outer_rounds = outer + 1
        if abs(wsr_c - wsr_prev) < params.eps_f and (kap <= params.tol_feas or eta == 0.0):
            break
        wsr_prev = wsr_c
    info.sinr_deficit_scaled = kap
    pl, ch, st = x[:3]
    return pl, ch, st, eta, info


# ---------------------------------------------------------------------------
# the alternating-optimization loop

def _measure(channels, state, rates_of, weights, gamma0, scale):
    """(rates, WSR, scaled SINR deficit) of a state on its channels; on a
    stack of candidates, one entry per candidate (the WSR per row)."""
    rates = rates_of(channels, state)
    weights = np.asarray(weights)
    return (rates, metrics.per_row(lambda r: float(weights @ r), rates),
            metrics.sinr_deficit(channels, state.precoders, state.v, state.u,
                                 gamma0) / scale)


def _adoptable(cand, c_wsr, c_kap, wsr_cur, kap, p_max, params):
    """The block gate: the candidate keeps the power budget and the unit
    combiner and beam norms, does not worsen a violated sensing constraint,
    and does not lose WSR."""
    return (cand.power() <= p_max * (1.0 + 1e-6)
            and abs(np.linalg.norm(cand.u) - 1.0) <= 1e-9
            and np.linalg.norm(cand.v) <= 1.0 + 1e-9
            and c_kap <= max(params.tol_feas, kap)
            and c_wsr >= wsr_cur - params.wsr_slack)


def run(scenario, placement, params, initial_state, rates_of, combiner, blocks):
    """Alternating optimization: the combiner, then each block in turn,
    until the WSR change across an outer iteration falls below eps_f.

    ``initial_state(scenario, channels, params)`` gives the warm start;
    ``rates_of(channels, state)`` gives the per-user rates, and the state's
    ``precoders``, beam and combiner give the sensing SINR and its deficit;
    ``combiner(channels, state)`` gives the new receive combiner, which
    leaves every rate unchanged.  ``blocks`` lists (name, block) pairs, and
    ``block(placement, channels, state)`` gives a candidate
    (placement, channels, state, flags).  A candidate is adopted only if it
    passes the block gate; otherwise the previous iterate is retained, which
    makes the recorded WSR trace non-decreasing by construction.  Two
    consecutive loops with a failed block raise OptimizationAbort.
    """
    placement.validate(scenario)
    channels = geometry.build_channels(scenario, placement)
    scale = metrics.sinr_deficit_scale(channels, scenario.gamma0)

    def measure(ch, st):
        rates, wsr, kap = _measure(ch, st, rates_of, scenario.weights,
                                   scenario.gamma0, scale)
        return rates, wsr, metrics.sinr(ch, st.precoders, st.v, st.u), kap

    state = initial_state(scenario, channels, params)
    rates, wsr_cur, gam, kap = measure(channels, state)
    run_flags = set()
    if kap > params.tol_feas:
        run_flags.add("initial_sinr_infeasible")
    trace = [metrics.TraceRecord(0, "init", wsr_cur, gam, kap * scale,
                                 state.power(), tuple(rates))]

    def record(block, flags=()):
        trace.append(metrics.TraceRecord(outer, block, wsr_cur, gam, kap * scale,
                                         state.power(), tuple(rates), tuple(flags)))

    rank_flags = 0
    rejects = 0
    fail_streak = 0
    converged = False
    outer = 0
    for outer in range(1, params.max_outer + 1):
        wsr_start = wsr_cur
        loop_failed = False
        state.u = combiner(channels, state)
        rates, wsr_cur, gam, kap = measure(channels, state)
        record("u")

        for name, block in blocks:
            try:
                pl_c, ch_c, cand, flags = block(placement, channels, state)
                if "rank1_ratio_low" in flags:
                    rank_flags += 1
                c_rates, c_wsr, c_gam, c_kap = measure(ch_c, cand)
                if _adoptable(cand, c_wsr, c_kap, wsr_cur, kap, scenario.p_max, params):
                    placement, channels, state = pl_c, ch_c, cand
                    rates, wsr_cur, gam, kap = c_rates, c_wsr, c_gam, c_kap
                else:
                    rejects += 1
                    flags = [*flags, f"{name}_block_rejected"]
                run_flags.update(flags)
            except (InfeasibleSubproblemError, NumericalError, RankDeficiencyError):
                loop_failed = True
                flags = ()
            record(name, flags)

        fail_streak = fail_streak + 1 if loop_failed else 0
        if fail_streak >= 2:
            raise OptimizationAbort(
                f"two consecutive failed AO loops at iteration {outer}")
        if abs(wsr_cur - wsr_start) < params.eps_f:
            converged = True
            break

    return RunResult(state=state, placement=placement, channels=channels,
                     trace=trace, outer_iters=outer, converged=converged,
                     wsr=wsr_cur, rates=rates, gamma_s=gam, sinr_deficit_scaled=kap,
                     rank_flags=rank_flags, block_rejects=rejects,
                     flags=tuple(sorted(run_flags)))
