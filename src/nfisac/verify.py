"""Finite-difference verification of every analytic position gradient.

Builds random feasible desk-scale configurations and compares each analytic
gradient against the central-difference oracle.  The scalar probes for the
constraint gradients are evaluated in units of the constraint's natural
scale, otherwise their magnitudes (~1e-24 W) would fall below the absolute
floor of the pass rule and the check would be vacuous.  ZF probes re-derive
the precoder from scratch at every perturbed point.
"""

from __future__ import annotations

import numpy as np

from . import geometry, gradcheck, lp, metrics, zf


def _random_unit(rng, n):
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    return x / np.linalg.norm(x)


# --- extended-precision ZF probe path -------------------------------------
#
# The FD oracle divides function noise by 2h; through cond(H_e H_e^H) the
# float64 ZF quantities carry ~cond * eps relative noise, which at h = 1e-7
# lands right at the pass threshold.  The scalar probes therefore evaluate
# the ZF rate (closed form via the rank-1 eigenvalues) and the constraint in
# 80-bit arithmetic; the analytic side under test stays the production
# float64 path.

def _inv_clongdouble(A):
    n = A.shape[0]
    M = np.hstack([A.astype(np.clongdouble), np.eye(n, dtype=np.clongdouble)])
    for col in range(n):
        piv = col + int(np.argmax(np.abs(M[col:, col])))
        if M[piv, col] == 0:
            raise ZeroDivisionError("singular matrix in extended-precision inverse")
        if piv != col:
            M[[col, piv]] = M[[piv, col]]
        M[col] = M[col] / M[col, col]
        for r in range(n):
            if r != col:
                M[r] = M[r] - M[r, col] * M[col]
    return M[:, n:]


def _he_extended(scenario, placement, channels):
    """Stacked channel matrix with phases kept in extended precision."""
    blocks = []
    t = placement.t
    for k in range(scenario.n_users):
        d = geometry._extended_distances(placement.q[k], t)
        frac = np.mod(d / np.longdouble(scenario.lam), 1.0)
        phase = np.exp((2j * np.pi) * frac.astype(np.clongdouble))
        blocks.append(np.longdouble(channels.rho[k]) * phase)
    return np.vstack(blocks)


def _ft_extended(scenario, placement):
    d = geometry._extended_distances(placement.t, scenario.target.reshape(1, 3))[:, 0]
    frac = np.mod(d / np.longdouble(scenario.lam), 1.0)
    return np.exp((2j * np.pi) * frac.astype(np.clongdouble))


def _zf_core_extended(scenario, placement, channels):
    He = _he_extended(scenario, placement, channels)
    A = He @ He.conj().T
    Ai = _inv_clongdouble(A)
    T = np.real(np.trace(Ai))
    beta2 = np.longdouble(scenario.p_max) / T
    return He, Ai, beta2


def precise_rate_zf(scenario, placement, channels, v, k):
    """ZF rate of user k via the rank-1 eigenvalues, in extended precision."""
    He, _, beta2 = _zf_core_extended(scenario, placement, channels)
    n_u = scenario.n_u
    Hk = He[k * n_u:(k + 1) * n_u]
    hv = Hk @ v.astype(np.clongdouble)
    sig = np.longdouble(channels.noise_user[k])
    r = (n_u - 1) * np.log1p(beta2 / sig)
    r += np.log1p(beta2 / (sig + np.real(np.vdot(hv, hv))))
    return float(r)


def precise_sinr_deficit_zf_scaled(scenario, placement, channels, v, u, gamma0):
    """Scaled ZF sinr_deficit with the precoder re-derived in extended precision."""
    He, Ai, beta2 = _zf_core_extended(scenario, placement, channels)
    f_t = _ft_extended(scenario, placement)
    f_r = channels.f_r.astype(np.clongdouble)
    rho_s = np.longdouble(channels.rho_s)
    g = rho_s * f_t * np.conj(np.vdot(f_r, u.astype(np.clongdouble)))
    p1g = Ai @ (He @ g)       # P_1^H g with P_1 = He^H Ai, so P_1^H = Ai He (Ai Hermitian)
    quad = np.real(np.vdot(p1g, p1g))
    uu = np.real(np.vdot(u, u))
    num = np.abs(np.vdot(g, v.astype(np.clongdouble))) ** 2
    deficit = gamma0 * (beta2 * quad + np.longdouble(channels.noise_radar) * uu) - num
    return float(deficit / np.longdouble(metrics.sinr_deficit_scale(channels, gamma0)))


def random_lp_state(scenario, channels, rng, power_fraction=0.9):
    W = []
    for _ in range(scenario.n_users):
        Wk = rng.normal(size=(scenario.n_t, scenario.n_u)) \
            + 1j * rng.normal(size=(scenario.n_t, scenario.n_u))
        W.append(Wk)
    total = sum(float(np.sum(np.abs(Wk) ** 2)) for Wk in W)
    c = np.sqrt(power_fraction * scenario.p_max / total)
    W = [c * Wk for Wk in W]
    return metrics.LpState(W=W, v=_random_unit(rng, scenario.n_t),
                           u=_random_unit(rng, scenario.n_r))


def gradient_checks(scenario, placement, lp_state, zf_uv):
    """Closure pairs (analytic_fn, scalar_fn, point) for every analytic
    position gradient (LP/ZF rates and SINR deficits, user and BS arrays).

    ``zf_uv`` is a (v, u) pair for the ZF probes.  Returns a dict keyed by a
    short check label; gradients of the constraint reformulations are scaled
    by their natural magnitude so rel/abs tolerances are meaningful.
    """
    channels = geometry.build_channels(scenario, placement)
    gamma0 = scenario.gamma0
    scale = metrics.sinr_deficit_scale(channels, gamma0)
    W, v, u = lp_state.W, lp_state.v, lp_state.u
    zv, zu = zf_uv
    out = {}

    def zf_workspace(ch):
        st = metrics.make_zf_state(ch, zv, zu, scenario.p_max)
        return zf.ZfWorkspace(ch, st, scenario.p_max, gamma0)

    def pair(k, analytic, scalar):
        """``analytic(pl, ch)`` against ``scalar(pl, ch)`` over the xy
        coordinates of array k (None for the BS array)."""
        base = placement.array(k)

        def at(xy):
            pos = base.copy()
            pos[:, :2] = np.asarray(xy).reshape(-1, 2)
            return geometry.move_array(scenario, placement, channels, k, pos)

        return (lambda xy: analytic(*at(xy)).ravel(), lambda xy: scalar(*at(xy)),
                base[:, :2].ravel())

    def zf_deficit(pl, ch):
        return precise_sinr_deficit_zf_scaled(scenario, pl, ch, zv, zu, gamma0)

    one_hot = np.eye(scenario.n_users)
    cov_all = lp.transmit_covariance(W, v)
    for k in range(scenario.n_users):
        out[f"lp_rate_grad_user_q{k}"] = pair(
            k, lambda pl, ch, k=k: lp.grad_user_rate_lp(
                scenario, ch, W, v, geometry.user_geometry(pl, ch, k), k),
            lambda pl, ch, k=k: metrics.rate_lp_w(ch, W, v, k))
        out[f"lp_rate_grad_bs_k{k}"] = pair(
            None, lambda pl, ch, k=k: lp.grad_bs_rate_lp(
                scenario, ch, W, cov_all, geometry.bs_geometry(pl, ch), k),
            lambda pl, ch, k=k: metrics.rate_lp_w(ch, W, v, k))
        out[f"zf_deficit_grad_user_q{k}"] = pair(
            k, lambda pl, ch, k=k: zf.grad_user_sinr_deficit_zf(
                scenario, ch, zf_workspace(ch), geometry.user_geometry(pl, ch, k),
                k) / scale,
            zf_deficit)
        out[f"zf_rate_grad_bs_u{k}"] = pair(
            None, lambda pl, ch, w=one_hot[k]: zf.grad_bs_wsr_zf(
                scenario, ch, zf_workspace(ch), geometry.bs_geometry(pl, ch), w),
            lambda pl, ch, k=k: precise_rate_zf(scenario, pl, ch, zv, k))
        for user in range(scenario.n_users):
            out[f"zf_rate_grad_u{user}_q{k}"] = pair(
                k, lambda pl, ch, k=k, w=one_hot[user]: zf.grad_user_wsr_zf(
                    scenario, ch, zf_workspace(ch), geometry.user_geometry(pl, ch, k),
                    w, k),
                lambda pl, ch, user=user: precise_rate_zf(scenario, pl, ch, zv, user))
    out["lp_deficit_grad_bs"] = pair(
        None, lambda pl, ch: lp.grad_bs_sinr_deficit_lp(
            scenario, pl, ch, W, v, u, gamma0) / scale,
        lambda pl, ch: metrics.sinr_deficit(ch, W, v, u, gamma0) / scale)
    out["zf_deficit_grad_bs"] = pair(
        None, lambda pl, ch: zf.grad_bs_sinr_deficit_zf(
            scenario, pl, ch, zf_workspace(ch), geometry.bs_geometry(pl, ch)) / scale,
        zf_deficit)
    return out


def gradient_suite(scenario_factory, n_configs=20, seed=12345,
                   h=gradcheck.DEFAULT_H, tol_rel=gradcheck.DEFAULT_TOL_REL,
                   tol_abs=gradcheck.DEFAULT_TOL_ABS):
    """Run every analytic-gradient check over random feasible configurations.

    ``scenario_factory()`` must return a Scenario; placements and states are
    drawn from a counter-based stream keyed by (seed, config index).
    Returns (rows, all_passed) where rows flatten every coordinate check.
    """
    from .harness import initial_placement   # placement sampler lives with the RNG policy

    rows = []
    ok = True
    for cfg_idx in range(n_configs):
        rng = np.random.Generator(np.random.Philox(key=[seed, cfg_idx]))
        scenario = scenario_factory()
        placement = initial_placement(scenario, rng)
        channels = geometry.build_channels(scenario, placement)
        lp_state = random_lp_state(scenario, channels, rng)
        zf_uv = (_random_unit(rng, scenario.n_t), _random_unit(rng, scenario.n_r))
        for name, (analytic, scalar, point) in gradient_checks(
                scenario, placement, lp_state, zf_uv).items():
            reports = gradcheck.check(analytic, scalar, [point], h=h,
                                      tol_rel=tol_rel, tol_abs=tol_abs)
            reports[0].point_index = cfg_idx
            ok = ok and reports[0].passed
            rows.extend(gradcheck.reports_to_rows(name, reports))
    return rows, ok
