"""Linear-precoding solution stack.

The scheme-specific parts of the alternating optimization in ``ao``: the
closed-form receive combiner, the SCA precoder update, the interference
model of the sensing beam's covariance subproblem, per-user projected gradient ascent on the
antenna positions (the shared descent, stopped on a relative rate gain),
the BS-position gradients and the rates for the shared ALM loop, and the
sensing-aware warm start.
"""

from __future__ import annotations

import numpy as np

from . import ao, geometry, metrics
from .errors import ScenarioError
from .params import PGM_MAX_STEPS, PGM_TOL, TOL_FEAS, AlgoParams
from .subsolver import (
    PrecoderSubproblem, leading_eigpair, solve_covariance_subproblem,
    solve_precoder_subproblem,
)


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

def transmit_covariance(W, v):
    """Transmit covariance sum_u W_u W_u^H + v v^H of precoders W and beam v."""
    cov_all = np.zeros((v.shape[0],) * 2, dtype=complex)
    for Wu in W:
        cov_all += Wu @ Wu.conj().T
    cov_all += np.outer(v, v.conj())
    return cov_all


def _lp_rate_workspace(channels, W, cov_all, k):
    """Coefficient matrices of user k's rate differential w.r.t. its channel,
    given the ``transmit_covariance`` of W and the beam.

    ``coef_all`` covers the signal-plus-interference log-det, ``coef_rest``
    the interference-only one; the rate gradient is their difference pushed
    through the per-entry channel phase derivatives.  Both receive
    covariances are inverted in one stacked call (LAPACK still runs once
    per matrix, so each equals its own 2-D inverse).
    """
    Hk = channels.H[k]
    n_u = Hk.shape[0]
    cov_rest = cov_all - W[k] @ W[k].conj().T
    eye = channels.noise_user[k] * np.eye(n_u, dtype=complex)
    rx_all = Hk @ cov_all @ Hk.conj().T + eye
    rx_rest = Hk @ cov_rest @ Hk.conj().T + eye
    inv_all, inv_rest = np.linalg.inv(np.stack((rx_all, rx_rest)))
    return cov_all @ Hk.conj().T @ inv_all, cov_rest @ Hk.conj().T @ inv_rest


def grad_user_rate_lp(scenario, channels, W, v, geo, k):
    """d R_{L,k} / d(x,y) of user k's antennas, shape (n_u, 2); ``geo`` is
    ``geometry.user_geometry`` of user k."""
    coef_all, coef_rest = _lp_rate_workspace(channels, W, transmit_covariance(W, v), k)
    phases, dist, diff = geo
    core = (coef_rest - coef_all).T * phases / dist  # indexed [b, m]
    pref = geometry.FOUR_PI * channels.rho[k] / scenario.lam
    return pref * geometry.chain_xy(core, diff)


def grad_bs_rate_lp(scenario, channels, W, cov_all, geo, k):
    """d R_{L,k} / d(x,y) of the BS transmit antennas, shape (n_t, 2);
    ``cov_all`` is the ``transmit_covariance`` of W and the beam and ``geo``
    the ``geometry.bs_geometry``, which every user's gradient at one point
    shares."""
    coef_all, coef_rest = _lp_rate_workspace(channels, W, cov_all, k)
    _, phases_t, dist_t, diff = geo[k]
    core = (coef_rest - coef_all) * phases_t / dist_t   # indexed [m, b]
    pref = geometry.FOUR_PI * channels.rho[k] / scenario.lam
    return pref * geometry.chain_xy(core, diff)


def grad_bs_sinr_deficit_lp(scenario, placement, channels, W, v, u, gamma0):
    """d sinr_deficit / d(x,y) of the BS transmit antennas under precoders W,
    shape (n_t, 2)."""
    M = -np.outer(v, v.conj())
    for Wu in W:
        M += gamma0 * (Wu @ Wu.conj().T)
    return geometry.target_term(scenario, placement, channels, u, M)


def interference_model(channels, state, gamma0):
    """The LP interference model of the sensing-beam update at the state's
    precoders (see ``subsolver.CovarianceSubproblem``): per user, stacked,
    C_k = sigma_k I + sum_{j != k} H_k W_j W_j^H H_k^H and C_k plus
    H_k W_k W_k^H H_k^H, and the deficit offset
    gamma0 sigma_z^2 ||u||^2 + sum_k gamma0 ||W_k^H G^H u||^2."""
    W, u = state.W, state.u
    eye = np.eye(channels.H[0].shape[0], dtype=complex)
    C, own = [], []
    for k, Hk in enumerate(channels.H):
        Ck = channels.noise_user[k] * eye
        for j, Wj in enumerate(W):
            if j != k:
                S = Hk @ Wj
                Ck += S @ S.conj().T
        Sk = Hk @ W[k]
        C.append(Ck)
        own.append(Ck + Sk @ Sk.conj().T)
    g = channels.G.conj().T @ u
    offset = gamma0 * channels.noise_radar * float(np.real(np.vdot(u, u)))
    for Wk in W:
        offset += gamma0 * float(np.linalg.norm(Wk.conj().T @ g) ** 2)
    return np.stack(C), np.stack(own), offset


# ---------------------------------------------------------------------------
# SCA blocks

def optimize_precoders(channels, state, weights, p_max, gamma0, params=None):
    """SCA (``ao.sca``) on the precoder surrogate; returns (W, rounds)."""
    def make_sub(W):
        return PrecoderSubproblem(channels, W, state.v, state.u, weights, p_max, gamma0)

    return ao.sca(state.W, make_sub, solve_precoder_subproblem,
                  lambda sub, W: sub.surrogate_and_grad(np.stack(W))[0],
                  params or AlgoParams())


def optimize_sense_beam_lp(channels, state, weights, gamma0, zeta):
    """One SCA round with the rank-1 penalty on the sensing transmit beamformer.

    Returns (v, rank_ratio, flags); see ``ao.sense_beam``.
    """
    return ao.sense_beam(channels, state, weights, gamma0, zeta, interference_model,
                         solve_covariance_subproblem, leading_eigpair)


# ---------------------------------------------------------------------------
# position blocks

def optimize_user_positions(scenario, placement, channels, state, k, params=None):
    """Projected gradient ascent on R_{L,k} over user k's antenna positions:
    ``ao.descend`` on -R_{L,k}, stopped once a step gains less than PGM_TOL
    relative to the rate, and after PGM_MAX_STEPS steps: a visit is capped,
    and the AO loop's next visit goes on from where it stopped.  The
    precoders and beam stay fixed.

    Returns (placement, channels, steps).
    """
    params = params or AlgoParams()
    W, v = state.W, state.v

    def grad(x):
        geo = geometry.user_geometry(x[0], x[1], k)
        return -grad_user_rate_lp(scenario, x[1], W, v, geo, k)

    def move(x, q):
        pl, ch = geometry.move_array(scenario, x[0], x[1], k, q)
        values = -metrics.rate_lp_w(ch, W, v, k)
        return values, lambda i: (*geometry.candidate(pl, ch, k, i), float(values[i]))

    def stop(prev, cur):
        return prev[-1] - cur[-1] < PGM_TOL * (1.0 + abs(cur[-1]))

    x = (placement, channels, -metrics.rate_lp(channels, state, k))
    (placement, channels, _), steps, _ = ao.descend(
        scenario, k, x, grad, move, stop, PGM_MAX_STEPS, params)
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
        cov_all = transmit_covariance(W, v)
        geo = geometry.bs_geometry(pl, ch)
        for k in range(scenario.n_users):
            grad -= weights[k] * grad_bs_rate_lp(scenario, ch, W, cov_all, geo, k)
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
    u0 = channels.f_r / np.sqrt(scenario.n_r)
    tol = TOL_FEAS * metrics.sinr_deficit_scale(channels, scenario.gamma0)
    gram = sum(float(np.sum(np.abs(Hk) ** 2)) for Hk in channels.H)
    c = np.sqrt(0.9 * scenario.p_max / gram)
    W = [c * Hk.conj().T for Hk in channels.H]
    v0 = ao.initial_sense_beam(channels, W, u0, scenario.gamma0)
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

    def precoders(pl, ch, st):
        W, _ = optimize_precoders(ch, st, weights, scenario.p_max, gamma0, params)
        return pl, ch, metrics.LpState(W=W, v=st.v, u=st.u), ()

    def beam(pl, ch, st):
        v, _, flags = optimize_sense_beam_lp(ch, st, weights, gamma0, zeta)
        return pl, ch, metrics.LpState(W=st.W, v=v, u=st.u), flags

    def user(k):
        def block(pl, ch, st):
            pl, ch, _ = optimize_user_positions(scenario, pl, ch, st, k, params)
            return pl, ch, st, ()
        return block

    def bs(pl, ch, st, eta):
        pl, ch, eta, _ = optimize_bs_positions_alm(scenario, pl, ch, st, weights,
                                                   gamma0, params, eta)
        return pl, ch, st, eta

    blocks = [("W", precoders), ("v", beam)]
    if not fixed_positions:
        blocks += ([(f"q{k}", user(k)) for k in range(scenario.n_users)]
                   + [("t", ao.AlmBlock(bs))])
    return blocks


def run_lp(scenario, placement, params=None, zeta=1.0, fixed_positions=False):
    """Alternating optimization for the linear-precoding scheme (``ao.run``):
    u, {W_k}, v, each user's positions, then the BS positions."""
    params = params or AlgoParams()
    return ao.run(scenario, placement, params, initial_lp_state, metrics.lp_rates,
                  _combiner, _blocks(scenario, params, zeta, fixed_positions))
