"""Zero-forcing solution stack.

The scheme-specific parts of the alternating optimization in ``ao``.  The
zero-forcing precoder is a deterministic function of the channels, so every
antenna move rebuilds it and its gain, and there is no precoder block.  A
user's positions affect all users' rates plus the sensing SINR, so both
position blocks run the shared ALM loop, the precoder following each
candidate through ``ZfState.at``; this module gives them the rates and the
analytic gradients, with ``ZfWorkspace`` holding what the gradients share.
"""

from __future__ import annotations

import numpy as np

from . import ao, geometry, metrics
from .errors import ContractViolation
from .params import AlgoParams
from .subsolver import leading_eigpair, solve_covariance_subproblem


def optimal_combiner_zf(channels, state):
    """SINR-optimal unit-norm receive combiner D_z^{-1} f_r / ||.||."""
    n_r = channels.G.shape[0]
    GP = channels.G @ state.P
    Dz = channels.noise_radar * np.eye(n_r, dtype=complex) + GP @ GP.conj().T
    x = np.linalg.solve(Dz, channels.f_r)
    return x / np.linalg.norm(x)


# ---------------------------------------------------------------------------
# shared workspace for the ZF position gradients

class ZfWorkspace:
    """Quantities shared by every ZF position gradient at one evaluation point.

    Built from fresh channels and the ZF state derived from them, whose
    beam, combiner and Gram inverse it uses; n_u is assumed common to all
    users so the stacked-channel row block of user k starts at k * n_u.
    ``beta2`` is the squared ZF gain p_max / tr_gram_inv, equal to
    ``ZfState.gain ** 2`` from ``metrics.zf_precoder``.
    """

    def __init__(self, channels, state, p_max, gamma0):
        if state.channel_tag != channels.tag:
            raise ContractViolation("ZF workspace needs the state of these channels")
        v = self.v = state.v
        u = self.u = state.u
        self.p_max = float(p_max)
        self.gamma0 = float(gamma0)
        H_stack = np.concatenate(channels.H)
        HH = H_stack.conj().T
        Ai = state.gram_inv
        Ai2 = Ai @ Ai
        self.tr_gram_inv = float(Ai.trace().real)
        self.beta2 = self.p_max / self.tr_gram_inv
        self.tr_sens = HH @ Ai2                           # sensitivity of Tr(gram^-1) to H entries
        self.pinv = HH @ Ai                               # right pseudo-inverse of the stacked channel
        self.g = channels.G.conj().T @ u
        p1g = self.pinv.conj().T @ self.g
        self.pinv_g2 = float(np.vdot(p1g, p1g).real)
        # every user's E = hv hv^H + sigma_k^2 I and F = E + beta^2 I, built
        # elementwise over the users and inverted in one stacked call (LAPACK
        # still runs once per matrix, so each equals its own 2-D inverse)
        hv = np.array([Hk @ v for Hk in channels.H])    # (K, n_u)
        eye = np.eye(hv.shape[1], dtype=complex)
        E = hv[:, :, None] * hv.conj()[:, None, :] + channels.noise_user[:, None, None] * eye
        Fi, Ei = np.linalg.inv(np.stack((E + self.beta2 * eye, E)))
        # per-user Tr of the signal-plus-noise inverse, and the own-channel
        # sensitivity through the sensing beam
        self.tr_f_inv = [float(m.trace().real) for m in Fi]
        self.beam_sens = [v[:, None] * (h.conj() @ d)[None, :] for h, d in zip(hv, Fi - Ei)]
        D = p1g[:, None] * self.g.conj()[None, :]        # (K n_u, n_t)
        self.quad_sens = HH @ D @ HH @ Ai2
        self.quad_sens_ct = (Ai @ D - D @ HH @ Ai2 @ H_stack).T


def grad_user_wsr_zf(scenario, channels, ws, geo, weights, k):
    """Weighted sum over users of the per-user ZF rate gradients; ``geo`` is
    ``geometry.user_geometry`` of user k."""
    n_u = channels.H[k].shape[0]
    s_w = ws.p_max * ws.tr_gram_inv ** -2 * float(
        np.asarray(weights) @ np.asarray(ws.tr_f_inv))
    cols = slice(k * n_u, (k + 1) * n_u)
    coef = s_w * ws.tr_sens[:, cols] + weights[k] * ws.beam_sens[k]
    phases, dist, diff = geo
    core = coef.T * phases / dist
    pref = -geometry.FOUR_PI * channels.rho[k] / scenario.lam
    return pref * geometry.chain_xy(core, diff)


def grad_user_sinr_deficit_zf(scenario, channels, ws, geo, k):
    """d sinr_deficit / d(x,y) of user k's antennas under the ZF precoder,
    shape (n_u, 2); ``geo`` as for ``grad_user_wsr_zf``."""
    n_u = channels.H[k].shape[0]
    cols = slice(k * n_u, (k + 1) * n_u)
    phases, dist, diff = geo
    pref = geometry.FOUR_PI * channels.rho[k] / scenario.lam
    core1 = ws.tr_sens[:, cols].T * phases / dist
    c_beta = ws.gamma0 * ws.pinv_g2 * ws.p_max * ws.tr_gram_inv ** -2
    core2 = (ws.quad_sens[:, cols].T * phases + ws.quad_sens_ct[:, cols].T * phases.conj()) / dist
    return (-c_beta * pref * geometry.chain_xy(core1, diff)
            + ws.gamma0 * ws.beta2 * pref * geometry.chain_xy(core2, diff))


def grad_bs_wsr_zf(scenario, channels, ws, geo, weights):
    """Weighted sum over users of d R_{Z,user} / d(x,y) of the BS transmit
    antennas, shape (n_t, 2); ``geo`` is ``geometry.bs_geometry``, whose per-user
    terms serve every user's rate gradient.  These are summed in user
    order."""
    g = np.zeros((ws.tr_sens.shape[0], 2))
    for user, w in enumerate(weights):
        if w == 0.0:
            continue
        s_u = ws.p_max * ws.tr_gram_inv ** -2 * ws.tr_f_inv[user]
        rate = np.zeros_like(g)
        for k, (cols, phases_t, dist_t, diff) in enumerate(geo):
            coef = s_u * channels.rho[k] * ws.tr_sens[:, cols]
            if k == user:
                coef = coef + channels.rho[user] * ws.beam_sens[user]
            core = coef * phases_t / dist_t               # (n_t, n_u)
            rate -= (geometry.FOUR_PI / scenario.lam) * geometry.chain_xy(core, diff)
        g += w * rate
    return g


def grad_bs_sinr_deficit_zf(scenario, placement, channels, ws, geo):
    """d sinr_deficit / d(x,y) of the BS transmit antennas under the ZF
    precoder, shape (n_t, 2); ``geo`` as for ``grad_bs_wsr_zf``."""
    M = ws.gamma0 * ws.beta2 * (ws.pinv @ ws.pinv.conj().T) - np.outer(ws.v, ws.v.conj())
    out = geometry.target_term(scenario, placement, channels, ws.u, M)
    c_beta = ws.gamma0 * ws.pinv_g2 * ws.p_max * ws.tr_gram_inv ** -2
    for k, (cols, phases_t, dist_t, diff) in enumerate(geo):
        core1 = ws.tr_sens[:, cols] * phases_t / dist_t
        core2 = (ws.quad_sens[:, cols] * phases_t + ws.quad_sens_ct[:, cols] * phases_t.conj()) / dist_t
        pref = geometry.FOUR_PI * channels.rho[k] / scenario.lam
        out += (-c_beta * pref * geometry.chain_xy(core1, diff)
                + ws.gamma0 * ws.beta2 * pref * geometry.chain_xy(core2, diff))
    return out


# ---------------------------------------------------------------------------
# blocks

def interference_model(channels, state, gamma0):
    """The ZF interference model of the sensing-beam update at the state's
    precoder (see ``subsolver.CovarianceSubproblem``): per user, stacked,
    C_k = sigma_k I and C_k plus the ZF gain's beta^2 I, and the deficit
    offset gamma0 (sigma_z^2 ||u||^2 + ||P^H G^H u||^2)."""
    u = state.u
    eye = np.eye(channels.H[0].shape[0], dtype=complex)
    noise = channels.noise_user[:, None, None]
    g = channels.G.conj().T @ u
    offset = gamma0 * (channels.noise_radar * float(np.real(np.vdot(u, u)))
                       + float(np.linalg.norm(state.P.conj().T @ g) ** 2))
    return noise * eye, (float(state.gain) ** 2 + noise) * eye, offset


def optimize_sense_beam_zf(channels, state, weights, gamma0, zeta):
    """One SCA round with the rank-1 penalty on v for the ZF scheme; see
    ``ao.sense_beam``."""
    return ao.sense_beam(channels, state, weights, gamma0, zeta, interference_model,
                         solve_covariance_subproblem, leading_eigpair)


def _alm_positions_zf(scenario, placement, channels, state, weights, gamma0,
                      params, eta, user=None):
    """ZF position block on ``ao.alm_positions``: user ``user``'s antennas,
    or the BS array when ``user`` is None.  Every candidate rebuilds the ZF
    precoder (``ZfState.at``); the sensing beam and combiner stay fixed.
    """
    def descent(pl, ch, st, penalized):
        ws = ZfWorkspace(ch, st, scenario.p_max, gamma0)
        if user is None:
            geo = geometry.bs_geometry(pl, ch)
            grad = -grad_bs_wsr_zf(scenario, ch, ws, geo, weights)
        else:
            geo = geometry.user_geometry(pl, ch, user)
            grad = -grad_user_wsr_zf(scenario, ch, ws, geo, weights, user)
        if not penalized:
            return grad, None
        if user is None:
            return grad, grad_bs_sinr_deficit_zf(scenario, pl, ch, ws, geo)
        return grad, grad_user_sinr_deficit_zf(scenario, ch, ws, geo, user)

    return ao.alm_positions(scenario, placement, channels, state, weights, gamma0,
                            params, eta, metrics.zf_rates, descent, user)


def optimize_user_positions_alm_zf(scenario, placement, channels, state,
                                   weights, gamma0, k, params=None, eta=0.0):
    return _alm_positions_zf(scenario, placement, channels, state, weights,
                             gamma0, params or AlgoParams(), eta, user=k)


def optimize_bs_positions_alm_zf(scenario, placement, channels, state,
                                 weights, gamma0, params=None, eta=0.0):
    return _alm_positions_zf(scenario, placement, channels, state, weights,
                             gamma0, params or AlgoParams(), eta)


# ---------------------------------------------------------------------------
# the stack handed to the AO engine

def initial_zf_state(scenario, channels, params=None):
    u0 = channels.f_r / np.sqrt(scenario.n_r)
    P, gain, gram_inv = metrics.zf_precoder(channels, scenario.p_max)
    v0 = ao.initial_sense_beam(channels, (P,), u0, scenario.gamma0)
    return metrics.ZfState(v=v0, u=u0, P=P, gain=gain,
                           channel_tag=channels.tag, gram_inv=gram_inv)


def _blocks(scenario, params, zeta, fixed_positions):
    """(name, block) pairs in visiting order: sensing beam, then unless
    frozen each user's positions and the BS positions, each position block
    an ``ao.AlmBlock`` with its own ALM multiplier.  Module functions are
    looked up when a block runs, not when the list is built."""
    weights, gamma0 = scenario.weights, scenario.gamma0

    def beam(pl, ch, st):
        v, _, flags = optimize_sense_beam_zf(ch, st, weights, gamma0, zeta)
        cand = st.copy()
        cand.v = v
        return pl, ch, cand, flags

    def user(k):
        def step(pl, ch, st, eta):
            return optimize_user_positions_alm_zf(
                scenario, pl, ch, st, weights, gamma0, k, params, eta)[:4]
        return ao.AlmBlock(step)

    def bs(pl, ch, st, eta):
        return optimize_bs_positions_alm_zf(
            scenario, pl, ch, st, weights, gamma0, params, eta)[:4]

    blocks = [("v", beam)]
    if not fixed_positions:
        blocks += ([(f"q{k}", user(k)) for k in range(scenario.n_users)]
                   + [("t", ao.AlmBlock(bs))])
    return blocks


def run_zf(scenario, placement, params=None, zeta=1.0, fixed_positions=False):
    """Alternating optimization for the ZF scheme (``ao.run``): u, v, each
    user's positions, then the BS positions; the precoder is always fresh
    for the channels in hand."""
    params = params or AlgoParams()
    return ao.run(scenario, placement, params, initial_zf_state, metrics.zf_rates,
                  optimal_combiner_zf, _blocks(scenario, params, zeta, fixed_positions))
