"""Alternating-optimization engine shared by the LP and ZF stacks.

One copy each of the AO loop with its block gate, the SCA loop of the
precoder block, the one-round sensing-beam update, the projected-gradient
descent of every position block and the ALM loop around it; the engine
measures every point itself.  A stack supplies only what is scheme-specific:
its state, whose ``precoders`` (LP W, ZF (P,)) enter the sensing SINR and
whose ``at`` follows an antenna move, its rates, combiner, blocks and
interference model, and the subproblem, objective and gradient functions of
the inner loops.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import geometry, metrics, subsolver
from .errors import (
    InfeasibleSubproblemError, NfIsacError, NumericalError, OptimizationAbort,
    RankDeficiencyError,
)
from .params import (
    EPS_ALM, EPS_F, EPS_L, EPS_S, MAX_OUTER, P0, P_CAP, THETA, TOL_FEAS, WSR_SLACK,
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


def initial_sense_beam(channels, precoders, u, gamma0):
    """Feasible unit beam with the least user interference.

    Starts from the bottom eigenvector of sum_k H_k^H H_k and blends toward
    the target response only as far as the sensing constraint requires
    (bisection on the normalized blend; the deficit decreases monotonically toward
    the aligned end after phase-matching the two endpoints).  Starting
    instead fully aligned parks the whole run at maximum echo power whenever
    the interference incentive per SCA round is small, hiding the
    sensing/communication trade-off.
    """
    tol = TOL_FEAS * metrics.sinr_deficit_scale(channels, gamma0)

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
    the current point and ``solve(sub)`` gives the next point, until
    the surrogate ``value(sub, x)`` gains less than EPS_S over the previous
    round or sca_max rounds ran.  Returns (x, rounds), counting the last round.
    """
    prev = None
    rounds = 0
    for _ in range(params.sca_max):
        sub = make_sub(x)
        x = solve(sub)
        cur = value(sub, x)
        rounds += 1
        if prev is not None and cur - prev < EPS_S:
            break
        prev = cur
    return x, rounds


def sense_beam(channels, state, weights, gamma0, zeta, model, solve, eigpair):
    """One SCA round with the rank-1 penalty on the sensing transmit beamformer.

    Builds the covariance subproblem at V0 = v v^H on the stack's
    interference model ``model(channels, state, gamma0)`` (see
    ``subsolver.CovarianceSubproblem``) and solves it once with ``solve``:
    the AO loop revisits the block on every loop, so one minorize-maximize
    step on the tight surrogate is an inexact block update, as a capped
    position visit is.  Returns (v, rank_ratio, flags), v the leading
    eigenvector (``eigpair``) of the solved covariance at unit norm.  Its
    SINR deficit is not checked here: the scaled vector sqrt(beta_max) chi,
    beta_max <= 1, is never more feasible than the unit one, and the block
    gate rejects an infeasible beam.
    """
    V = solve(subsolver.CovarianceSubproblem(
        channels, np.outer(state.v, state.v.conj()), weights, gamma0, state.u, zeta,
        model(channels, state, gamma0)))
    beta_max, chi = eigpair(V)
    tr = float(np.real(np.trace(V)))
    ratio = beta_max / tr if tr > 0 else 1.0
    flags = [] if ratio >= 0.99 else ["rank1_ratio_low"]
    return chi / np.linalg.norm(chi), ratio, flags


# ---------------------------------------------------------------------------
# projected-gradient descent and the ALM position loop

# trials in the first stack of a position line search: moving the array,
# precoding and measuring a stack costs many times what one more candidate
# adds.  Over the mc-trend pool (tools/ls_trials.py), the first step of a
# descent, whose first trial is the fixed step0, adopts mostly at trials
# 19-21 on the BS array (474 of 817) and 5-10 on a user's (789 of 1,252):
# COLD_STACK and USER_COLD_STACK cover those heads in one stack.  A later
# step starts at the spectral step and adopts at trial 1 in 1,658 of 2,277 BS
# and 1,959 of 2,373 user searches, by trial 3 in 85% and 92%: FIRST_STACK.
FIRST_STACK = 3
COLD_STACK = 24
USER_COLD_STACK = 12


def descend(scenario, k, x, grad, move, stop, max_steps, params):
    """Projected-gradient descent with Armijo backtracking on one antenna
    array: the BS transmit array (``k`` None) or user k's antennas.

    ``x`` is the caller's iterate, a tuple that starts with the Placement
    and ends with the objective value being decreased.  ``grad(x)`` gives
    the objective's xy gradient, shape (n, 2); ``move(x, positions)`` takes
    a stack of candidate positions (c, n, 3) and gives (values, take): the
    candidates' objective values and ``take(i)``, the iterate of candidate
    i; ``stop(x_prev, x)`` ends the descent after an accepted step.

    Each step is one ``subsolver.line_search`` on the negated objective
    (exact in IEEE), with at most max_ls trials projected onto the array's
    region, in stacks of 24, 48, ... on the BS array's first step
    (``COLD_STACK``), of 12, 24, ... on a user's (``USER_COLD_STACK``) and
    of 3, 6, 12, ... on later ones (``FIRST_STACK``); the stack sizes
    never change which trial is adopted.  A spacing violation rejects a
    trial unevaluated, and the other trials of a stack are evaluated
    together (see ``_evaluate`` for errors).  A trial that projects to no
    move ends the descent.  The first trial of the first step is step0;
    after an adopted step s it is the spectral step
    <dx, dx> / <dx, dg> (Barzilai-Borwein), dx the adopted xy move and dg
    the gradient's change over it, capped at 4s, or 2s when <dx, dg> <= 0.
    Returns (x, steps, exhausted), exhausted when a line search rejected
    all its trials: max_ls of them, or every one before its step vanished.
    """
    region = scenario.tx_region if k is None else scenario.user_regions[k]
    cold = COLD_STACK if k is None else USER_COLD_STACK

    def project(points):
        return geometry.project_points_to_region(points, region)

    step = params.step0
    steps = 0
    prev = None                              # (xy, gradient) before the last step
    for _ in range(max_steps):
        pos = x[0].array(k)
        g = grad(x)
        if prev is not None:
            dx = pos[:, :2] - prev[0]
            curv = np.vdot(dx, g - prev[1])
            if curv > 0.0:
                step = min(np.vdot(dx, dx) / curv, 2.0 * step)
        d = np.zeros_like(pos)
        d[:, :2] = -g
        s, x_new, tried = subsolver.line_search(
            pos, -x[-1], d, step, params.max_ls, params.tau, params.delta,
            functools.partial(_evaluate, move, x, scenario.d_min), project,
            FIRST_STACK if steps else cold)
        if x_new is None:
            return x, steps, tried == params.max_ls or tried > 0
        x_prev, x = x, x_new
        prev = pos[:, :2], g
        step = s * 2.0
        steps += 1
        if stop(x_prev, x):
            break
    return x, steps, False


def _evaluate(move, x, d_min, cand, idx=None):
    """Blocks (i, values, take) of the trial stack ``cand`` for
    ``subsolver.line_search``, the values negated: the trials ``idx`` (by
    default those that keep the antenna spacing d_min), moved by one
    ``move`` on their stack; trials between them get NaN.

    If the stack raises, its trials are evaluated one at a time, lazily, so
    an error is raised only where a one-at-a-time search would meet it; a
    lone trial that raises RankDeficiencyError cannot be evaluated and is
    rejected.
    """
    if idx is None:
        idx = geometry.min_spacing_ok(cand, d_min).nonzero()[0]
    if not idx.size:
        return []
    try:
        values, take = move(x, cand[idx])
    except NfIsacError as exc:
        if idx.size > 1:
            return (block for j in range(idx.size)
                    for block in _evaluate(move, x, d_min, cand, idx[j:j + 1]))
        if isinstance(exc, RankDeficiencyError):
            return []
        raise
    first = idx[0]
    if idx[-1] - first + 1 == idx.size:
        return [(first, -values, take)]
    vals = np.full(idx[-1] - first + 1, np.nan)
    vals[idx - first] = -values
    return [(first, vals, lambda m: take(idx.searchsorted(first + m)))]


def alm_positions(scenario, placement, channels, state, weights, gamma0, params,
                  eta, rates_of, descent, user=None):
    """ALM over one antenna array (the BS transmit array, or user ``user``'s
    antennas): inner PGM (``descend``) on -WSR + eta*kap + p/2*kap^2, then
    multiplier/penalty updates, until the WSR changes by less than EPS_ALM.

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
    Returns (placement, channels, state, eta, info); eta is the warm start
    of the next call, which ``AlmBlock`` takes only from an adopted call.
    """
    scale = metrics.sinr_deficit_scale(channels, gamma0)

    def evaluate(ch, st):
        st = st.at(ch, scenario.p_max)
        _, w, kp = _measure(ch, st, rates_of, weights, gamma0, scale)
        return st, w, kp

    x = (placement, channels, *evaluate(channels, state))
    wsr_prev, kap = x[3:]
    info = AlmInfo(sinr_deficit_scaled=kap)
    p0 = P0

    def stop(prev, cur):
        L_prev, L_cur = prev[-1], cur[-1]
        denom = max(abs(L_cur), 1e-12 * (1.0 + abs(L_prev)))
        return abs(L_prev - L_cur) / denom < EPS_L

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
        p0 = min(p0 * THETA, P_CAP)
        info.outer_rounds = outer + 1
        if abs(wsr_c - wsr_prev) < EPS_ALM and (kap <= TOL_FEAS or eta == 0.0):
            break
        wsr_prev = wsr_c
    info.sinr_deficit_scaled = kap
    pl, ch, st = x[:3]
    return pl, ch, st, eta, info


class AlmBlock:
    """A position block with its own ALM multiplier eta.

    ``step(placement, channels, state, eta)`` gives a candidate
    (placement, channels, state, eta).  The block hands ``run`` the
    candidate and keeps its eta only once ``run`` adopts the candidate
    (``adopted``): a rejected visit leaves the next one at the eta of the
    last adopted visit, so the multiplier cannot run away on candidates
    the gate throws out.
    """

    def __init__(self, step):
        self.step = step
        self.eta = self._eta_next = 0.0

    def __call__(self, placement, channels, state):
        placement, channels, state, self._eta_next = self.step(
            placement, channels, state, self.eta)
        return placement, channels, state, ()

    def adopted(self):
        self.eta = self._eta_next


# ---------------------------------------------------------------------------
# the alternating-optimization loop

def _measure(channels, state, rates_of, weights, gamma0, scale):
    """(rates, WSR, scaled SINR deficit) of a state on its channels; on a
    stack of candidates, one entry per candidate (the WSR per row)."""
    rates = rates_of(channels, state)
    wsr = metrics.row_dot(rates, np.asarray(weights))
    return (rates, float(wsr) if rates.ndim == 1 else wsr,
            metrics.sinr_deficit(channels, state.precoders, state.v, state.u,
                                 gamma0) / scale)


def _adoptable(cand, c_wsr, c_kap, wsr_cur, kap, p_max):
    """The block gate: the candidate keeps the power budget and the unit
    combiner and beam norms, does not worsen a violated sensing constraint,
    and does not lose WSR."""
    return (cand.power() <= p_max * (1.0 + 1e-6)
            and abs(np.linalg.norm(cand.u) - 1.0) <= 1e-9
            and np.linalg.norm(cand.v) <= 1.0 + 1e-9
            and c_kap <= max(TOL_FEAS, kap)
            and c_wsr >= wsr_cur - WSR_SLACK)


def run(scenario, placement, params, initial_state, rates_of, combiner, blocks):
    """Alternating optimization: the combiner, then each block in turn,
    until an outer iteration converges.

    ``initial_state(scenario, channels, params)`` gives the warm start;
    ``rates_of(channels, state)`` gives the per-user rates, and the state's
    ``precoders``, beam and combiner give the sensing SINR and its deficit;
    ``combiner(channels, state)`` gives the new receive combiner, which
    leaves every rate unchanged.  ``blocks`` lists (name, block) pairs, and
    ``block(placement, channels, state)`` gives a candidate
    (placement, channels, state, flags).  A candidate is adopted only if it
    passes the block gate; otherwise the previous iterate is retained, which
    makes the recorded WSR trace non-decreasing by construction.  A block
    with an ``adopted()`` method (``AlmBlock``) is told when its candidate
    is adopted.  Two consecutive loops with a failed block raise
    OptimizationAbort.

    An iteration whose WSR change is below EPS_F ends the run as converged
    if no block in it was rejected or failed, or if the iteration before it
    was also below EPS_F: a rejected block leaves the iterate where it was,
    so one quiet iteration with a reject says nothing about convergence.
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
    if kap > TOL_FEAS:
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
    prev_small = False
    outer = 0
    for outer in range(1, MAX_OUTER + 1):
        wsr_start, rejects_start = wsr_cur, rejects
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
                if _adoptable(cand, c_wsr, c_kap, wsr_cur, kap, scenario.p_max):
                    placement, channels, state = pl_c, ch_c, cand
                    rates, wsr_cur, gam, kap = c_rates, c_wsr, c_gam, c_kap
                    if hasattr(block, "adopted"):
                        block.adopted()
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
        small = abs(wsr_cur - wsr_start) < EPS_F
        clean = not loop_failed and rejects == rejects_start
        if small and (clean or prev_small):
            converged = True
            break
        prev_small = small

    return RunResult(state=state, placement=placement, channels=channels,
                     trace=trace, outer_iters=outer, converged=converged,
                     wsr=wsr_cur, rates=rates, gamma_s=gam, sinr_deficit_scaled=kap,
                     rank_flags=rank_flags, block_rejects=rejects,
                     flags=tuple(sorted(run_flags)))
