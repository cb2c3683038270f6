"""Linear-precoding solution stack.

The scheme-specific parts of the alternating optimization in ``ao``: the
closed-form receive combiner, the SCA precoder update, the covariance
subproblem of the sensing beam, per-user projected gradient ascent on the
antenna positions (the shared descent, stopped on a relative rate gain),
the BS-position gradients and the rates for the shared ALM loop, and the
sensing-aware warm start.
"""

from __future__ import annotations

import numpy as np

from . import ao, geometry, metrics
from .errors import ScenarioError
from .params import AlgoParams
from .subsolver import (
    CovarianceSubproblem, PrecoderSubproblem, leading_eigpair,
    solve_covariance_subproblem, solve_precoder_subproblem,
)

FOUR_PI = 4.0 * np.pi


# ---------------------------------------------------------------------------
# closed-form combiner

def optimal_combiner_lp(channels, W):
    """SINR-optimal unit-norm receive combiner D_l^{-1} f_r / ||.||."""
    n_r = channels.G.shape[0]
    Dl = channels.noise_radar * np.eye(n_r, dtype=complex)
    for Wu in W:
        GW = channels.G @ Wu
        Dl += GW @ GW.conj().T
    x = np.linalg.solve(Dl, channels.f_r)
    return x / np.linalg.norm(x)


# ---------------------------------------------------------------------------
# analytic gradients (user and BS positions, rate and constraint)

def _lp_rate_workspace(channels, W, v, k):
    """Coefficient matrices of user k's rate differential w.r.t. its channel.

    ``coef_all`` covers the signal-plus-interference log-det, ``coef_rest``
    the interference-only one; the rate gradient is their difference pushed
    through the per-entry channel phase derivatives.
    """
    Hk = channels.H[k]
    n_u = Hk.shape[0]
    n_t = Hk.shape[1]
    cov_all = np.zeros((n_t, n_t), dtype=complex)
    for Wu in W:
        cov_all += Wu @ Wu.conj().T
    cov_all += np.outer(v, v.conj())
    cov_rest = cov_all - W[k] @ W[k].conj().T
    eye = channels.noise_user[k] * np.eye(n_u, dtype=complex)
    rx_all = Hk @ cov_all @ Hk.conj().T + eye
    rx_rest = Hk @ cov_rest @ Hk.conj().T + eye
    coef_all = cov_all @ Hk.conj().T @ np.linalg.inv(rx_all)
    coef_rest = cov_rest @ Hk.conj().T @ np.linalg.inv(rx_rest)
    return coef_all, coef_rest


def grad_user_rate_lp(scenario, placement, channels, W, v, k):
    """d R_{L,k} / d(x,y) of user k's antennas, shape (n_u, 2)."""
    coef_all, coef_rest = _lp_rate_workspace(channels, W, v, k)
    Hk = channels.H[k]
    phases = Hk / channels.rho[k]                    # unit-modulus e^{j 2 pi d / lam}
    q = placement.q[k]
    t = placement.t
    dist = geometry.pairwise_distances(q, t)         # (n_u, n_t)
    core = (coef_rest - coef_all).T * phases / dist  # indexed [b, m]
    diff = q[:, None, :2] - t[None, :, :2]           # x_{k,b} - x_m
    pref = FOUR_PI * channels.rho[k] / scenario.lam
    return pref * geometry.chain_xy(core, diff)


def grad_bs_rate_lp(scenario, placement, channels, W, v, k):
    """d R_{L,k} / d(x,y) of the BS transmit antennas, shape (n_t, 2)."""
    coef_all, coef_rest = _lp_rate_workspace(channels, W, v, k)
    Hk = channels.H[k]
    phases = Hk / channels.rho[k]
    q = placement.q[k]
    t = placement.t
    dist = geometry.pairwise_distances(q, t)
    core = (coef_rest - coef_all) * phases.T / dist.T   # indexed [m, b]
    diff = t[:, None, :2] - q[None, :, :2]           # x_m - x_{k,b}
    pref = FOUR_PI * channels.rho[k] / scenario.lam
    return pref * geometry.chain_xy(core, diff)


def grad_bs_sinr_deficit_lp(scenario, placement, channels, W, v, u, gamma0):
    """d sinr_deficit / d(x,y) of the BS transmit antennas under precoders W,
    shape (n_t, 2)."""
    M = -np.outer(v, v.conj())
    for Wu in W:
        M += gamma0 * (Wu @ Wu.conj().T)
    e = np.vdot(channels.f_r, u) * (u.conj() @ channels.G @ M)   # (n_t,)
    t = placement.t
    s = scenario.target
    d_s = np.linalg.norm(t - s[None, :], axis=1)
    diff = t[:, :2] - s[None, :2]
    core = e * channels.f_t / d_s
    pref = -FOUR_PI * channels.rho_s / scenario.lam
    return pref * np.imag(core[:, None] * diff)


# ---------------------------------------------------------------------------
# SCA blocks

def optimize_precoders(channels, state, weights, p_max, gamma0, params=None):
    """SCA (``ao.sca``) on the precoder surrogate; returns (W, rounds)."""
    def make_sub(W):
        return PrecoderSubproblem(channels, W, state.v, state.u, weights, p_max, gamma0)

    return ao.sca(state.W, make_sub, solve_precoder_subproblem,
                  lambda sub, W: sub.surrogate_wsr(np.stack(W)), params or AlgoParams())


def optimize_sense_beam_lp(channels, state, weights, gamma0, zeta, params=None):
    """SCA + rank-1 penalty update of the sensing transmit beamformer.

    Returns (v, rank_ratio, flags); see ``ao.sense_beam``.
    """
    def make_sub(V):
        return CovarianceSubproblem("lp", channels, V, weights, gamma0, state.u,
                                    zeta, W=state.W)

    return ao.sense_beam(channels, state, weights, gamma0, params or AlgoParams(),
                         make_sub, solve_covariance_subproblem, leading_eigpair)


# ---------------------------------------------------------------------------
# position blocks

def optimize_user_positions(scenario, placement, channels, state, k, params=None):
    """Projected gradient ascent on R_{L,k} over user k's antenna positions:
    ``ao.descend`` on -R_{L,k}, stopped once a step gains less than pgm_tol
    relative to the rate.  The precoders and beam stay fixed.

    Returns (placement, channels, steps).
    """
    params = params or AlgoParams()
    W, v = state.W, state.v

    def grad(x):
        return -grad_user_rate_lp(scenario, x[0], x[1], W, v, k)

    def move(x, q):
        pl, ch = geometry.move_array(scenario, x[0], x[1], k, q)
        values = -metrics.rate_lp_w(ch, W, v, k)
        return values, lambda i: (*geometry.candidate(pl, ch, k, i), float(values[i]))

    def stop(prev, cur):
        return prev[-1] - cur[-1] < params.pgm_tol * (1.0 + abs(cur[-1]))

    x = (placement, channels, -metrics.rate_lp(channels, state, k))
    (placement, channels, _), steps, _ = ao.descend(
        scenario, k, x, grad, move, stop, params.pgm_max_steps, params)
    return placement, channels, steps


def optimize_bs_positions_alm(scenario, placement, channels, state, weights,
                              gamma0, params=None, eta=0.0):
    """ALM over the BS transmit positions (``ao.alm_positions``); the
    precoders stay fixed.

    Returns (placement, channels, eta, info); eta persists across calls as
    warm-start dual information.
    """
    params = params or AlgoParams()
    W, v, u = state.W, state.v, state.u

    def descent(pl, ch, st, penalized):
        grad = np.zeros((scenario.n_t, 2))
        for k in range(scenario.n_users):
            grad -= weights[k] * grad_bs_rate_lp(scenario, pl, ch, W, v, k)
        if not penalized:
            return grad, None
        return grad, grad_bs_sinr_deficit_lp(scenario, pl, ch, W, v, u, gamma0)

    pl, ch, _, eta, info = ao.alm_positions(scenario, placement, channels, state,
                                            weights, gamma0, params, eta,
                                            metrics.lp_rates, descent)
    return pl, ch, eta, info


# ---------------------------------------------------------------------------
# the stack handed to the AO engine

def initial_lp_state(scenario, channels, params=None):
    """Sensing-aware warm start: conjugate-matched precoders at 90% power,
    the least-interfering feasible sensing beam, boresight combiner;
    precoders rescaled if the sensing constraint still needs headroom."""
    params = params or AlgoParams()
    u0 = channels.f_r / np.sqrt(scenario.n_r)
    tol = params.tol_feas * metrics.sinr_deficit_scale(channels, scenario.gamma0)
    gram = sum(float(np.sum(np.abs(Hk) ** 2)) for Hk in channels.H)
    c = np.sqrt(0.9 * scenario.p_max / gram)
    W = [c * Hk.conj().T for Hk in channels.H]
    v0 = ao.initial_sense_beam(channels, W, u0, scenario.gamma0, params.tol_feas)
    state = metrics.LpState(W=W, v=v0, u=u0)
    kap = metrics.sinr_deficit(channels, W, v0, u0, scenario.gamma0)
    if kap > tol:
        base = metrics.sinr_deficit(channels, [np.zeros_like(Wk) for Wk in W],
                                    v0, u0, scenario.gamma0)
        if base > tol:
            raise ScenarioError(
                "sensing constraint infeasible even with zero transmit power")
        c2 = (tol - base) / (kap - base)          # base <= tol < kap: in [0, 1]
        shrink = np.sqrt(c2) * (1.0 - 1e-12)
        state = metrics.LpState(W=[shrink * Wk for Wk in W], v=v0, u=u0)
    return state


def _combiner(channels, state):
    return optimal_combiner_lp(channels, state.W)


def _blocks(scenario, params, zeta, fixed_positions):
    """(name, block) pairs in visiting order: precoders, sensing beam, then
    unless frozen each user's positions and the BS positions.  Module
    functions are looked up when a block runs, not when the list is built."""
    weights, gamma0 = scenario.weights, scenario.gamma0
    eta = 0.0

    def precoders(pl, ch, st):
        W, _ = optimize_precoders(ch, st, weights, scenario.p_max, gamma0, params)
        return pl, ch, metrics.LpState(W=W, v=st.v, u=st.u), ()

    def beam(pl, ch, st):
        v, _, flags = optimize_sense_beam_lp(ch, st, weights, gamma0, zeta, params)
        return pl, ch, metrics.LpState(W=st.W, v=v, u=st.u), flags

    def user(k):
        def block(pl, ch, st):
            pl, ch, _ = optimize_user_positions(scenario, pl, ch, st, k, params)
            return pl, ch, st, ()
        return block

    def bs(pl, ch, st):
        nonlocal eta
        pl, ch, eta, _ = optimize_bs_positions_alm(scenario, pl, ch, st, weights,
                                                   gamma0, params, eta)
        return pl, ch, st, ()

    blocks = [("W", precoders), ("v", beam)]
    if not fixed_positions:
        blocks += [(f"q{k}", user(k)) for k in range(scenario.n_users)] + [("t", bs)]
    return blocks


def run_lp(scenario, placement, params=None, zeta=1.0, fixed_positions=False):
    """Alternating optimization for the linear-precoding scheme (``ao.run``):
    u, {W_k}, v, each user's positions, then the BS positions."""
    params = params or AlgoParams()
    return ao.run(scenario, placement, params, initial_lp_state, metrics.lp_rates,
                  _combiner, _blocks(scenario, params, zeta, fixed_positions))
