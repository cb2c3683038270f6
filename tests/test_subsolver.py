import math

import numpy as np
import pytest

from nfisac import ao, lp, metrics, subsolver, verify, zf
from nfisac.errors import ContractViolation, InfeasibleSubproblemError
from nfisac.params import (
    ARMIJO, COV_REL_TOL, EPS_S, MAX_BACKTRACKS, P0, P_CAP, PGA_ITERS, PGA_STEP0, THETA,
    TOL_FEAS, AlgoParams,
)
from nfisac.subsolver import (
    CovarianceSubproblem, PrecoderSubproblem, _pga_ascent,
    leading_eigpair, psd_trace_project,
    solve_covariance_subproblem, solve_precoder_subproblem,
)


def _precoder_sub(scenario, channels, state, gamma0=None):
    return PrecoderSubproblem(channels, state.W, state.v, state.u,
                              scenario.weights, scenario.p_max,
                              scenario.gamma0 if gamma0 is None else gamma0)


def _random_hermitian(rng, n):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (A + A.conj().T)


class TestLeadingEigpair:
    def test_diagonal(self):
        beta, chi = leading_eigpair(np.diag([3.0, 1.0]).astype(complex))
        assert beta == pytest.approx(3.0)
        np.testing.assert_allclose(np.abs(chi), [1.0, 0.0], atol=1e-12)

    def test_identity_degenerate(self):
        beta, chi = leading_eigpair(np.eye(3, dtype=complex))
        assert beta == pytest.approx(1.0)
        assert np.linalg.norm(chi) == pytest.approx(1.0)

    def test_matches_full_spectrum(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            V = _random_hermitian(rng, 5)
            beta, chi = leading_eigpair(V)
            vals = np.linalg.eigvalsh(V)
            assert beta == pytest.approx(vals[-1], rel=1e-12)
            resid = np.linalg.norm(V @ chi - beta * chi)
            assert resid <= 1e-9 * max(np.linalg.norm(V), 1.0)
            assert np.linalg.norm(chi) == pytest.approx(1.0, abs=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ContractViolation):
            leading_eigpair(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPsdTraceProject:
    def test_identity_on_feasible(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=2) + 1j * rng.normal(size=2)
        V = 0.3 * np.outer(x, x.conj()) / np.linalg.norm(x) ** 2
        np.testing.assert_allclose(psd_trace_project(V), V, atol=1e-14)

    def test_output_feasible_and_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            V = _random_hermitian(rng, 3)
            P = psd_trace_project(V)
            vals = np.linalg.eigvalsh(P)
            assert vals.min() >= -1e-12
            assert vals.sum() <= 1.0 + 1e-12
            np.testing.assert_allclose(psd_trace_project(P), P, atol=1e-12)

    def test_close_to_exact_projection_2x2(self):
        # oracle: exact Euclidean projection = eigenbasis + projection of the
        # eigenvalue vector onto {l >= 0, sum l <= 1}
        rng = np.random.default_rng(6)
        for _ in range(100):
            V = _random_hermitian(rng, 2)
            vals, vecs = np.linalg.eigh(V)
            lam = vals.copy()
            # project eigenvalues onto the simplex-capped orthant
            lam = np.maximum(lam, 0.0)
            if lam.sum() > 1.0:
                mu = (lam.sum() - 1.0) / (lam > 0).sum()
                lam = np.maximum(lam - mu, 0.0)
                if lam.sum() > 1.0:
                    lam = np.maximum(lam - (lam.sum() - 1.0), 0.0)
            exact = (vecs * lam) @ vecs.conj().T
            two_step = psd_trace_project(V)
            d_two = np.linalg.norm(two_step - V)
            d_exact = np.linalg.norm(exact - V)
            assert d_two <= 1.6 * d_exact + 1e-12


class TestPrecoderSurrogate:
    def test_tight_at_expansion(self, scenario, channels, lp_state):
        sub = _precoder_sub(scenario, channels, lp_state)
        bounds = sub.per_user_bound(lp_state.W)
        for k in range(scenario.n_users):
            true = metrics.rate_lp(channels, lp_state, k)
            assert bounds[k] == pytest.approx(true, abs=1e-9)

    def test_global_lower_bound_sampled(self, scenario, channels, lp_state):
        sub = _precoder_sub(scenario, channels, lp_state)
        rng = np.random.Generator(np.random.Philox(key=[17, 3]))
        for _ in range(100):
            cand = verify.random_lp_state(scenario, channels, rng,
                                          power_fraction=rng.uniform(0.1, 1.0))
            cand.v = lp_state.v
            bounds = sub.per_user_bound(cand.W)
            for k in range(scenario.n_users):
                true = metrics.rate_lp_w(channels, cand.W, lp_state.v, k)
                assert bounds[k] <= true + 1e-9

    def test_finite_at_zero(self, scenario, channels, lp_state):
        sub = _precoder_sub(scenario, channels, lp_state)
        zeros = [np.zeros_like(Wk) for Wk in lp_state.W]
        assert np.all(np.isfinite(sub.per_user_bound(zeros)))

    def test_shape_mismatch_rejected(self, scenario, channels, lp_state):
        sub = _precoder_sub(scenario, channels, lp_state)
        with pytest.raises(ContractViolation):
            sub.per_user_bound([lp_state.W[0]])


class TestPrecoderSolve:
    def test_power_saturates_without_sensing(self, scenario, channels, lp_state):
        # gamma0 = 0 and v = 0: concave maximization over the power ball
        state = lp_state.copy()
        state.v = np.zeros(scenario.n_t, dtype=complex)
        sub = _precoder_sub(scenario, channels, state, gamma0=0.0)
        W = solve_precoder_subproblem(sub)
        power = sum(float(np.sum(np.abs(Wk) ** 2)) for Wk in W)
        assert power == pytest.approx(scenario.p_max, rel=1e-4)
        # KKT: surrogate gradient parallel to the power-constraint gradient
        g = sub.surrogate_and_grad(np.stack(W))[1]()
        Ws = np.stack(W)
        mu = float(np.real(np.vdot(Ws, g)) / np.real(np.vdot(Ws, Ws)))
        resid = np.linalg.norm(g - mu * Ws) / np.linalg.norm(g)
        assert resid < 5e-3

    def test_stationary_point_fixed(self, scenario, channels, lp_state):
        # iterate expansion+solve until stationary, then one more round must
        # return (numerically) the same point
        state = lp_state.copy()
        state.v = np.zeros(scenario.n_t, dtype=complex)
        W = state.W
        prev = -np.inf
        for _ in range(60):
            sub = PrecoderSubproblem(channels, W, state.v, state.u,
                                     scenario.weights, scenario.p_max, 0.0)
            W = solve_precoder_subproblem(sub)
            cur = sub.surrogate_and_grad(np.stack(W))[0]
            if cur - prev < 1e-8:
                break
            prev = cur
        sub2 = PrecoderSubproblem(channels, W, state.v, state.u,
                                  scenario.weights, scenario.p_max, 0.0)
        W_again = solve_precoder_subproblem(sub2)
        before = sub2.surrogate_and_grad(np.stack(W))[0]
        after = sub2.surrogate_and_grad(np.stack(W_again))[0]
        assert after >= before - 1e-9
        assert after - before < 1e-6 * (1 + abs(before))

    def test_scalar_case_matches_golden_section(self):
        # K = 1, N_t = N_u = 1, v = 0: the surrogate is a concave scalar
        # function of |w| with a closed-form-checkable argmax
        h = 0.8 * np.exp(0.7j)
        ch = None
        from nfisac import geometry
        ch = geometry.ChannelSet(
            H=(np.array([[h]]),), G=np.array([[1.0 + 0j]]),
            f_t=np.array([1.0 + 0j]), f_r=np.array([1.0 + 0j]),
            rho=np.array([abs(h)]), rho_s=1.0,
            noise_user=np.array([0.5]), noise_radar=1.0)
        W0 = [np.array([[0.4 + 0.1j]])]
        sub = PrecoderSubproblem(ch, W0, np.array([0.0 + 0j]),
                                 np.array([1.0 + 0j]), np.array([1.0]),
                                 p_max=2.0, gamma0=0.0)
        W = solve_precoder_subproblem(sub)
        achieved = sub.surrogate_and_grad(np.stack(W))[0]

        def surr_of_r(r):
            return sub.surrogate_and_grad(np.stack(
                [np.array([[r * np.exp(1j * np.angle(sub.lin[0][0, 0]))]])]))[0]

        lo, hi = 0.0, math.sqrt(2.0)
        phi = (math.sqrt(5) - 1) / 2
        for _ in range(200):
            m1 = hi - phi * (hi - lo)
            m2 = lo + phi * (hi - lo)
            if surr_of_r(m1) >= surr_of_r(m2):
                hi = m2
            else:
                lo = m1
        oracle = surr_of_r(0.5 * (lo + hi))
        assert achieved >= oracle - 1e-6

    def test_infeasible_raises(self, scenario, channels, lp_state):
        # gamma0 so large that even zero power cannot satisfy the constraint
        state = lp_state.copy()
        num = metrics.sensing_power(channels, state.v, state.u)
        gamma0 = 10.0 * num / channels.noise_radar
        sub = _precoder_sub(scenario, channels, state, gamma0=gamma0)
        with pytest.raises(InfeasibleSubproblemError):
            solve_precoder_subproblem(sub)

    def test_feasibility_enforced(self, scenario, channels, lp_state):
        # binding sensing constraint: the returned point meets it at
        # TOL_FEAS / 2, the solve's target
        sub = _binding_sub(scenario, channels, lp_state)
        assert sub.deficit(sub.W0) / sub.sinr_deficit_scale > TOL_FEAS
        W = solve_precoder_subproblem(sub)
        kap = sub.deficit(np.stack(W)) / sub.sinr_deficit_scale
        assert kap == pytest.approx(TOL_FEAS / 2, rel=1e-6)


def _reference_constrained_ascent(x0, f_grad, kap, kap_grad, project, restore, params,
                                  rel_tol):
    """The ALM/PGA ascent the precoder and covariance solves used to share,
    kept as a fixed reference: ALM on the scaled constraint (p = 0 while
    feasible with zero multiplier), stopped at the first round that ends
    feasible or after 5 rounds, then a feasibility-preserving polish of at
    most 150 iterations from the best feasible point.  Returns the best
    feasible point encountered.  It runs on the sequential ascent."""
    best = [None, None]

    def consider(x, f, kv):
        if kv <= TOL_FEAS and (best[0] is None or f > best[0]):
            best[0], best[1] = f, x.copy()

    def on_accept(z, val):
        consider(z, val[1], val[2])

    x = project(np.array(x0, copy=True))
    f0, _ = f_grad(x)
    consider(x, f0, kap(x))
    if best[0] is None:
        x = restore(x)
        if x is None:
            raise InfeasibleSubproblemError("no feasible point reachable from start")
        fr, _ = f_grad(x)
        consider(x, fr, kap(x))
        if best[0] is None:
            raise InfeasibleSubproblemError("restoration produced an infeasible point")

    eta = 0.0
    p0 = P0
    step = PGA_STEP0
    for _rnd in range(5):
        kcur = kap(x)
        p = 0.0 if (kcur <= 0.0 and eta == 0.0) else p0

        def vg(z, eta=eta, p=p):
            f, grad_f = f_grad(z)
            kv = kap(z)
            if eta == 0.0 and p == 0.0:
                return f, grad_f, f, kv

            def grad(i):
                return grad_f(i) - (eta + p * kv[i]) * kap_grad(z[i])
            return f - eta * kv - 0.5 * p * kv * kv, grad, f, kv

        x, _, step = _sequential_with_stacked_callbacks(
            x, vg, project, step, PGA_ITERS, params.tau, ARMIJO, rel_tol,
            MAX_BACKTRACKS, on_accept=on_accept)
        kv = kap(x)
        if kv <= TOL_FEAS:
            break
        eta = max(0.0, eta + p0 * kv)
        p0 = min(p0 * THETA, P_CAP)

    x = best[1].copy()

    def vg2(z):
        f, grad_f = f_grad(z)
        kv = kap(z)
        return np.where(kv <= TOL_FEAS, f, np.nan), grad_f, f, kv

    _sequential_with_stacked_callbacks(
        x, vg2, project, step, 150, params.tau, ARMIJO, rel_tol, MAX_BACKTRACKS,
        on_accept=on_accept)
    return best[1]


def _reference_pga_solve(sub, params=None):
    """The ALM/PGA precoder solve the closed form replaced, kept as the
    reference: projected gradient ascent on the power ball in an
    augmented-Lagrangian loop on the scaled SINR deficit, each ascent
    stopped at a relative gain of 3e-10."""
    params = params or AlgoParams()
    scale = sub.sinr_deficit_scale

    def kap(Ws):
        return sub.deficit(Ws) / scale

    def kap_grad(Ws):
        gW = sub.g.conj() @ Ws                            # g^H W_j per user
        return sub.gamma0 * (sub.g[:, None] * gW[:, None, :]) / scale

    def project(Ws):
        # radial scaling onto the total-power ball, set by set
        tr = np.sum(np.abs(Ws).reshape(Ws.shape[:-3] + (-1,)) ** 2, axis=-1)
        factor = np.sqrt(sub.p_max / np.maximum(tr, sub.p_max))[..., None, None, None]
        return np.where((tr > sub.p_max)[..., None, None, None], Ws * factor, Ws)

    def restore(Ws):
        # deficit(c W) = c^2 a + b: shrink toward zero if that can help.
        b = sub._deficit_offset
        if b > TOL_FEAS * scale:
            return None
        a = sub.deficit(Ws) - b
        if a <= 0.0:
            return Ws
        c2 = max(0.0, (TOL_FEAS * scale - b)) / a
        return Ws * min(1.0, np.sqrt(c2) * (1.0 - 1e-12))

    Ws = _reference_constrained_ascent(sub.W0, sub.surrogate_and_grad, kap, kap_grad,
                                       project, restore, params, 3e-10)
    return [Ws[k] for k in range(sub.K)]


def _beam_sub(scenario, channels, lp_state, gamma0=None, u=None):
    """The conftest precoder subproblem with the boresight sensing beam."""
    state = lp_state.copy()
    state.v = channels.f_t / math.sqrt(scenario.n_t)
    if u is not None:
        state.u = u
    return _precoder_sub(scenario, channels, state, gamma0)


def _binding_sub(scenario, channels, lp_state):
    """The beam and combiner of ``test_feasibility_enforced``, with gamma0
    raised until the maximizer without the sensing constraint breaks it:
    gamma0 (sigma_z^2 ||u||^2 + S / 2) = |g^H v|^2, with S = sum_j
    ||W_j^H g||^2 at that maximizer, which does not depend on gamma0."""
    u = channels.f_r / math.sqrt(scenario.n_r)
    free = _beam_sub(scenario, channels, lp_state, gamma0=0.0, u=u)
    W = np.stack(solve_precoder_subproblem(free))
    S = float(np.sum(np.abs(W.conj().swapaxes(-1, -2) @ free.g) ** 2))
    num = abs(np.vdot(free.g, free.v)) ** 2
    gamma0 = num / (channels.noise_radar * float(np.real(np.vdot(u, u))) + 0.5 * S)
    return _beam_sub(scenario, channels, lp_state, gamma0=gamma0, u=u)


def _no_sensing_sub(scenario, channels, lp_state):
    """gamma0 = 0 and v = 0, as in ``test_power_saturates_without_sensing``."""
    state = lp_state.copy()
    state.v = np.zeros(scenario.n_t, dtype=complex)
    return _precoder_sub(scenario, channels, state, gamma0=0.0)


def _multipliers(sub, W):
    """(mu, lam, relative residual) of the stationarity condition
    w_j L_j - Q W_j = mu W_j + lam gamma0 g g^H W_j, fitted by least squares."""
    R = sub._grad_lin - sub.quad_sum @ W
    B = np.stack([W, sub.gamma0 * sub.g[:, None] * (sub.g.conj() @ W)[:, None, :]])
    A = np.concatenate([B.reshape(2, -1).real, B.reshape(2, -1).imag], axis=1).T
    y = np.concatenate([R.ravel().real, R.ravel().imag])
    norms = np.linalg.norm(A, axis=0)             # the two terms differ by decades
    norms[norms == 0.0] = 1.0                     # gamma0 = 0: no sensing term
    (mu, lam), *_ = np.linalg.lstsq(A / norms, y, rcond=None)
    mu, lam = mu / norms[0], lam / norms[1]
    resid = np.linalg.norm(y - A @ np.array([mu, lam])) / np.linalg.norm(sub._grad_lin)
    return mu, lam, resid


class TestPrecoderKkt:
    """The closed-form precoder solve returns the KKT point of the surrogate."""

    def _kkt(self, sub):
        W = np.stack(solve_precoder_subproblem(sub))
        mu, lam, resid = _multipliers(sub, W)
        curv = np.linalg.eigvalsh(sub.quad_sum)[-1]
        assert resid <= 1e-10
        assert mu >= -1e-10 * curv
        assert lam * sub.gamma0 * np.vdot(sub.g, sub.g).real >= -1e-10 * curv
        power = float(np.sum(np.abs(W) ** 2))
        kap = sub.deficit(W) / sub.sinr_deficit_scale
        assert power <= sub.p_max * (1 + 1e-12) and kap <= TOL_FEAS
        # complementary slackness: a positive multiplier binds its constraint
        if mu > 1e-10 * curv:
            assert power == pytest.approx(sub.p_max, rel=1e-12)
        if lam * sub.gamma0 * np.vdot(sub.g, sub.g).real > 1e-10 * curv:
            assert kap == pytest.approx(TOL_FEAS / 2, rel=1e-6)
        return mu, lam

    def test_conftest_subproblem(self, scenario, channels, lp_state):
        mu, lam = self._kkt(_beam_sub(scenario, channels, lp_state))
        assert mu > 0.0

    def test_binding_sensing_constraint(self, scenario, channels, lp_state):
        sub = _binding_sub(scenario, channels, lp_state)
        _, lam = self._kkt(sub)
        curv = np.linalg.eigvalsh(sub.quad_sum)[-1]
        assert lam * sub.gamma0 * np.vdot(sub.g, sub.g).real > 1e-6 * curv

    @pytest.mark.parametrize("make", [_beam_sub, _binding_sub, _no_sensing_sub])
    def test_never_below_the_pga_solve(self, scenario, channels, lp_state, make):
        sub = make(scenario, channels, lp_state)
        W = np.stack(solve_precoder_subproblem(sub))
        W_ref = np.stack(_reference_pga_solve(sub))
        assert sub.deficit(W_ref) / sub.sinr_deficit_scale <= TOL_FEAS
        f, f_ref = sub.surrogate_and_grad(np.stack((W, W_ref)))[0]
        assert f >= f_ref

    def test_singular_quadratic_power_binds_exactly(self):
        # one single-antenna user and N_t = 4: Q has rank 1, the other three
        # eigenvalues at rounding level
        from nfisac import geometry
        rng = np.random.Generator(np.random.Philox(key=[67, 0]))
        H = rng.normal(size=(1, 4)) + 1j * rng.normal(size=(1, 4))
        ch = geometry.ChannelSet(
            H=(H,), G=np.eye(4, dtype=complex), f_t=np.ones(4, dtype=complex),
            f_r=np.ones(4, dtype=complex), rho=np.array([1.0]), rho_s=1.0,
            noise_user=np.array([0.5]), noise_radar=1.0)
        W0 = [0.3 * H.conj().T]
        probe = PrecoderSubproblem(ch, W0, np.zeros(4, dtype=complex), np.ones(4) / 2.0,
                                   np.array([1.0]), 1.0, 0.0)
        vals, vecs = np.linalg.eigh(probe.quad_sum)
        assert abs(vals[:3]).max() <= 1e-12 * vals[-1]
        # the power of the maximizer without a power constraint, on range(Q)
        gain = abs(vecs[:, -1].conj() @ probe._grad_lin[0][:, 0])
        p_max = 0.25 * (gain / vals[-1]) ** 2
        sub = PrecoderSubproblem(ch, W0, np.zeros(4, dtype=complex), np.ones(4) / 2.0,
                                 np.array([1.0]), p_max, 0.0)
        W = np.stack(solve_precoder_subproblem(sub))
        assert float(np.sum(np.abs(W) ** 2)) == pytest.approx(p_max, rel=1e-12)
        # the maximizer on range(Q): W = x (x^H lin) / (a + mu), power p_max
        x = vecs[:, -1]
        want = x[:, None] * (x.conj() @ sub._grad_lin[0]) * math.sqrt(p_max) / gain
        np.testing.assert_allclose(W[0], want, rtol=0, atol=1e-9 * math.sqrt(p_max))
        f, f_ref = sub.surrogate_and_grad(
            np.stack((W, np.stack(_reference_pga_solve(sub)))))[0]
        assert f >= f_ref


def _cov_sub(scenario, channels, state, V0, zeta=1.0, gamma0=None, mode="lp",
             zf_state=None):
    """The covariance subproblem at V0 on a stack's interference model: the
    LP stack's at ``state``, or the ZF stack's at ``zf_state``."""
    gamma0 = scenario.gamma0 if gamma0 is None else gamma0
    stack, st = (lp, state) if mode == "lp" else (zf, zf_state)
    return CovarianceSubproblem(channels, V0, scenario.weights, gamma0, st.u, zeta,
                                stack.interference_model(channels, st, gamma0))


def _scalar_cov_sub():
    """K = 1, N_t = 1 LP covariance subproblem with hand-picked numbers."""
    from nfisac import geometry
    ch = geometry.ChannelSet(
        H=(np.array([[0.9 + 0.2j]]),), G=np.array([[1.0 + 0j]]),
        f_t=np.array([1.0 + 0j]), f_r=np.array([1.0 + 0j]),
        rho=np.array([0.92]), rho_s=1.0,
        noise_user=np.array([0.4]), noise_radar=1.0)
    W = [np.array([[1.1 - 0.3j]])]
    V0 = np.array([[0.5 + 0j]])
    st = metrics.LpState(W=W, v=np.zeros(1, dtype=complex), u=np.array([1.0 + 0j]))
    return CovarianceSubproblem(ch, V0, np.array([1.0]), 0.0, st.u, 1.0,
                                lp.interference_model(ch, st, 0.0)), ch, W


class _PerUserCovariance:
    """Per-user loop form of the covariance surrogate, kept as the reference
    for the stacked CovarianceSubproblem: same arithmetic, one user at a time."""

    def __init__(self, sub, channels, W=None, gain=None):
        self.sub, self.H = sub, channels.H
        self.offs, self.taylor, self.c0 = [], [], []
        for k, Hk in enumerate(self.H):
            n_u = Hk.shape[0]
            sig = channels.noise_user[k]
            HVH = Hk @ sub.V0 @ Hk.conj().T
            if W is not None:
                C = sig * np.eye(n_u, dtype=complex)
                for j in range(len(self.H)):
                    if j != k:
                        S = Hk @ W[j]
                        C += S @ S.conj().T
                Sk = Hk @ W[k]
                self.offs.append(C + Sk @ Sk.conj().T)
                B0 = C + HVH
            else:
                self.offs.append((gain**2 + sig) * np.eye(n_u, dtype=complex))
                B0 = sig * np.eye(n_u, dtype=complex) + HVH
            self.c0.append(metrics.logdet_hpd(B0)[0])
            self.taylor.append(Hk.conj().T @ np.linalg.solve(B0, Hk))

    def bound_values(self, V):
        out = np.zeros(len(self.H))
        for k, Hk in enumerate(self.H):
            ld, _ = metrics.logdet_hpd(self.offs[k] + Hk @ V @ Hk.conj().T)
            out[k] = ld - self.c0[k] - float(np.real(np.trace(self.taylor[k] @ (V - self.sub.V0))))
        return out

    def objective_and_grad(self, V):
        sub = self.sub
        val = sub.zeta * sub.penalty(V)
        grad = np.array(sub._pen_grad, copy=True)
        for k, Hk in enumerate(self.H):
            Bk = self.offs[k] + Hk @ V @ Hk.conj().T
            ld, _ = metrics.logdet_hpd(Bk)
            val += sub.weights[k] * (
                ld - self.c0[k]
                - float(np.real(np.trace(self.taylor[k] @ (V - sub.V0)))))
            grad += sub.weights[k] * (Hk.conj().T @ np.linalg.solve(Bk, Hk)
                                      - self.taylor[k])
        return val, 0.5 * (grad + grad.conj().T)


def _assert_matches_per_user(sub, ref, Vs):
    assert np.array_equal(sub.offs, np.stack(ref.offs))
    assert np.array_equal(sub.c0, np.array(ref.c0))
    assert np.array_equal(sub.taylor, np.stack(ref.taylor))
    for V in Vs:
        assert np.array_equal(sub.bound_values(V), ref.bound_values(V))
        val, grad = sub.objective_and_grad(V)
        val_ref, grad_ref = ref.objective_and_grad(V)
        assert val == val_ref
        assert np.array_equal(grad(), grad_ref)


def _random_psd(rng, n, count):
    """Random PSD covariances of rank 1..n with trace in [0, 1]."""
    out = []
    for _ in range(count):
        r = rng.integers(1, n + 1)
        X = rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
        V = X @ X.conj().T
        out.append(V * rng.uniform(0, 1) / np.real(np.trace(V)))
    return out


class TestStackedCovariance:
    """The stacked evaluation equals the per-user loop bit for bit."""

    def test_lp_matches_per_user_loop(self, scenario, channels, lp_state):
        V0 = np.outer(lp_state.v, lp_state.v.conj())
        sub = _cov_sub(scenario, channels, lp_state, V0)
        ref = _PerUserCovariance(sub, channels, W=lp_state.W)
        rng = np.random.Generator(np.random.Philox(key=[43, 0]))
        _assert_matches_per_user(sub, ref, [V0] + _random_psd(rng, scenario.n_t, 50))

    def test_zf_matches_per_user_loop(self, scenario, channels, zf_state):
        V0 = 0.5 * np.outer(zf_state.v, zf_state.v.conj())
        sub = _cov_sub(scenario, channels, None, V0, mode="zf", zf_state=zf_state)
        ref = _PerUserCovariance(sub, channels, gain=zf_state.gain)
        rng = np.random.Generator(np.random.Philox(key=[43, 1]))
        _assert_matches_per_user(sub, ref, [V0] + _random_psd(rng, scenario.n_t, 50))

    def test_scalar_channel_matches_per_user_loop(self):
        sub, ch, W = _scalar_cov_sub()
        ref = _PerUserCovariance(sub, ch, W=W)
        _assert_matches_per_user(
            sub, ref, [np.array([[g + 0j]]) for g in np.linspace(0.0, 1.0, 41)])


class TestCovarianceSurrogate:
    def test_lp_bound_tight_and_global(self, scenario, channels, lp_state):
        V0 = np.outer(lp_state.v, lp_state.v.conj())
        sub = _cov_sub(scenario, channels, lp_state, V0)
        vals = sub.bound_values(V0)
        for k in range(scenario.n_users):
            true = metrics.rate_lp_cov(channels, lp_state.W, V0, k)
            assert vals[k] == pytest.approx(true, abs=1e-9)
        rng = np.random.Generator(np.random.Philox(key=[23, 1]))
        for _ in range(100):
            x = rng.normal(size=scenario.n_t) + 1j * rng.normal(size=scenario.n_t)
            V = np.outer(x, x.conj())
            V *= rng.uniform(0, 1) / np.real(np.trace(V))
            vals = sub.bound_values(V)
            for k in range(scenario.n_users):
                true = metrics.rate_lp_cov(channels, lp_state.W, V, k)
                assert vals[k] <= true + 1e-9

    def test_zf_bound_tight_and_global(self, scenario, channels, zf_state):
        V0 = np.outer(zf_state.v, zf_state.v.conj())
        sub = _cov_sub(scenario, channels, None, V0, mode="zf", zf_state=zf_state)
        vals = sub.bound_values(V0)
        for k in range(scenario.n_users):
            true = metrics.rate_zf_cov(channels, zf_state.gain, V0, k)
            assert vals[k] == pytest.approx(true, abs=1e-9)
        rng = np.random.Generator(np.random.Philox(key=[23, 2]))
        for _ in range(100):
            V = np.zeros((scenario.n_t, scenario.n_t), dtype=complex)
            for _r in range(rng.integers(1, 3)):
                x = rng.normal(size=scenario.n_t) + 1j * rng.normal(size=scenario.n_t)
                V += np.outer(x, x.conj())
            V *= rng.uniform(0, 1) / np.real(np.trace(V))
            vals = sub.bound_values(V)
            for k in range(scenario.n_users):
                true = metrics.rate_zf_cov(channels, zf_state.gain, V, k)
                assert vals[k] <= true + 1e-9


class TestCovarianceSolve:
    def test_fixed_point_returned_unchanged(self, scenario, channels, lp_state):
        V0 = np.outer(lp_state.v, lp_state.v.conj())
        sub = _cov_sub(scenario, channels, lp_state, V0, zeta=1.0, gamma0=0.0)
        V1 = solve_covariance_subproblem(sub)
        sub2 = _cov_sub(scenario, channels, lp_state, V1, zeta=1.0, gamma0=0.0)
        V2 = solve_covariance_subproblem(sub2)
        obj1 = sub2.objective_and_grad(V1)[0]
        obj2 = sub2.objective_and_grad(V2)[0]
        assert obj2 >= obj1 - 1e-9

    def test_scalar_grid_oracle(self):
        # N_t = 1: V is a scalar in [0, 1]
        sub, _, _ = _scalar_cov_sub()
        V = solve_covariance_subproblem(sub)
        grid = np.linspace(0, 1, 20001)
        vals = [sub.objective_and_grad(np.array([[g + 0j]]))[0] for g in grid]
        assert sub.objective_and_grad(V)[0] >= max(vals) - 1e-6

    def test_rank_one_drive(self, scenario, channels, lp_state):
        # single user weight, sensing constraint reduced to a floor that
        # keeps Tr(V) > 0: growing zeta drives the iterate toward rank-1
        rng = np.random.Generator(np.random.Philox(key=[29, 0]))
        X = rng.normal(size=(scenario.n_t, 2)) + 1j * rng.normal(size=(scenario.n_t, 2))
        V0 = X @ X.conj().T
        V0 /= 2 * np.real(np.trace(V0))
        u = channels.f_r / np.sqrt(scenario.n_r)
        state = lp_state.copy()
        state.W = [1e-3 * Wk for Wk in state.W]
        state.u = u
        gamma0 = 0.05 * channels.rho_s**2 * scenario.n_t * scenario.n_r \
            / channels.noise_radar
        model = lp.interference_model(channels, state, gamma0)
        ratios = []
        for zeta in (1.0, 10.0, 100.0):
            V = V0.copy()
            for _ in range(6):
                sub = CovarianceSubproblem(
                    channels, V, np.array([1.0, 0.0]), gamma0, u, zeta, model)
                V = solve_covariance_subproblem(sub)
            vals = np.linalg.eigvalsh(V)
            assert vals.sum() > 0
            ratios.append(vals[-1] / vals.sum())
        assert ratios[-1] >= 0.99

    def test_one_feasible_ascent(self, monkeypatch, scenario, channels, lp_state):
        # from the least-interference feasible beam the sensing constraint
        # binds: one solve runs one ascent, and every point it adopts is
        # feasible and gains on the one before
        v = ao.initial_sense_beam(channels, lp_state.precoders, lp_state.u,
                                  scenario.gamma0)
        V0 = np.outer(v, v.conj())
        sub = _cov_sub(scenario, channels, lp_state, V0)
        runs, adopted = [], []
        ascent = subsolver._pga_ascent

        def counted(x0, value_grad, *args, **kwargs):
            def recorded(X):
                vals, grad = value_grad(X)

                def grad_at(i):
                    # the ascent takes the gradient at its start and at each
                    # adopted candidate only
                    adopted.append((X[i].copy(), vals[i]))
                    return grad(i)
                return vals, grad_at
            runs.append(ascent(x0, recorded, *args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(subsolver, "_pga_ascent", counted)
        V = solve_covariance_subproblem(sub)
        assert len(runs) == 1 and np.array_equal(V, runs[0])
        assert len(adopted) >= 3 and np.array_equal(adopted[-1][0], V)
        values = [f for _, f in adopted]
        assert all(b > a for a, b in zip(values, values[1:]))
        for X, _ in adopted:
            assert sub.deficit(X) / sub.sinr_deficit_scale <= TOL_FEAS
            vals = np.linalg.eigvalsh(X)
            assert vals.min() >= -1e-12 and vals.sum() <= 1.0 + 1e-12
        assert sub.deficit(V) / sub.sinr_deficit_scale >= -1e-3
        assert sub.objective_and_grad(V)[0] >= sub.objective_and_grad(V0)[0]

    def test_feasibility_restoration(self, scenario, channels, lp_state):
        # start infeasible: the solve starts at the oracle's point and must
        # return a feasible covariance
        u = channels.f_r / math.sqrt(scenario.n_r)
        gamma0 = 0.3 * channels.rho_s**2 * scenario.n_t * scenario.n_r \
            / channels.noise_radar
        state = lp_state.copy()
        state.W = [1e-3 * Wk for Wk in state.W]
        state.u = u
        rng = np.random.Generator(np.random.Philox(key=[29, 5]))
        x = verify._random_unit(rng, scenario.n_t)
        V0 = np.outer(x, x.conj())
        sub = _cov_sub(scenario, channels, state, V0, gamma0=gamma0)
        if sub.deficit(V0) / sub.sinr_deficit_scale <= TOL_FEAS:
            pytest.skip("random start happened to be feasible")
        V = solve_covariance_subproblem(sub)
        assert sub.deficit(V) / sub.sinr_deficit_scale <= TOL_FEAS

    def test_unreachable_target_from_an_infeasible_start_raises(self, scenario, channels,
                                                                lp_state):
        # the deficit offset, linear in gamma0, is set to twice ||g||^2, the
        # most g^H V g reaches on the trace ball: the start is infeasible,
        # and no point meets the constraint
        V0 = np.outer(lp_state.v, lp_state.v.conj())
        unit = _cov_sub(scenario, channels, lp_state, V0, gamma0=1.0)
        gamma0 = 2.0 * float(np.real(np.vdot(unit.g, unit.g))) / unit._deficit_offset
        sub = _cov_sub(scenario, channels, lp_state, V0, gamma0=gamma0)
        assert sub.deficit(V0) / sub.sinr_deficit_scale > TOL_FEAS
        with pytest.raises(InfeasibleSubproblemError):
            solve_covariance_subproblem(sub)


def _binding_cov_sub(scenario, channels, state, mode, zf_state):
    """The conftest covariance subproblem at V0 = v v^H with gamma0 where its
    sensing constraint binds at V0: the deficit offset is linear in gamma0,
    so gamma0 = |g^H v|^2 / offset(1)."""
    st = state if mode == "lp" else zf_state
    V0 = np.outer(st.v, st.v.conj())
    unit = _cov_sub(scenario, channels, state, V0, gamma0=1.0, mode=mode,
                    zf_state=zf_state)
    gamma0 = abs(np.vdot(unit.g, st.v)) ** 2 / unit._deficit_offset
    return _cov_sub(scenario, channels, state, V0, gamma0=gamma0, mode=mode,
                    zf_state=zf_state)


def _fw_target(sub):
    """The sensing target c of the covariance solve's FW oracle."""
    return sub._deficit_offset - 0.5 * TOL_FEAS * sub.sinr_deficit_scale


def _parent_fw_oracle(V, G):
    """The FW oracle the sensing-aware one replaced: the best extreme point
    of {V >= 0, Tr <= 1} for the linearized gain, minus V."""
    vals, vecs = metrics.eigh(0.5 * (G + G.conj().T))
    if vals[-1] > 0.0:
        x = vecs[:, -1]
        return x[:, None] * x.conj() - V
    return -V if float(np.real(np.trace(V))) > 0.0 else None


def _random_sensing_feasible(rng, g, c, count):
    """Random PSD matrices of trace <= 1, each blended toward g g^H / ||g||^2
    until g^H X g >= c."""
    n = len(g)
    P = np.outer(g, g.conj()) / np.vdot(g, g).real
    out = []
    for X in _random_psd(rng, n, count):
        gx = (g.conj() @ X @ g).real
        if gx < c:
            # g^H X g is affine in the blend weight t: (1 - t) gx + t ||g||^2
            t = (c - gx) / (np.vdot(g, g).real - gx)
            t = min(1.0, t * (1.0 + 1e-12))
            X = (1.0 - t) * X + t * P
        out.append(X)
    return out


class TestSensingFwOracle:
    """`_sensing_fw_direction` returns the best point of the whole feasible
    set {S >= 0, Tr S <= 1, g^H S g >= c} for the linearized gain."""

    @staticmethod
    def _subs(scenario, channels, lp_state, zf_state):
        for mode in ("lp", "zf"):
            st = lp_state if mode == "lp" else zf_state
            V0 = np.outer(st.v, st.v.conj())
            yield _cov_sub(scenario, channels, lp_state, V0, mode=mode,
                           zf_state=zf_state)
            yield _binding_cov_sub(scenario, channels, lp_state, mode, zf_state)

    @staticmethod
    def _point(sub, G=None):
        V = sub.V0
        G = sub.objective_and_grad(V)[1]() if G is None else G
        return G, V + subsolver._sensing_fw_direction(V, G, sub.g, _fw_target(sub))

    def test_rank_one_and_feasible(self, scenario, channels, lp_state, zf_state):
        traces = []
        for sub in self._subs(scenario, channels, lp_state, zf_state):
            c = _fw_target(sub)
            _, S = self._point(sub)
            vals = np.linalg.eigvalsh(S)
            assert abs(vals[:-1]).max() <= 1e-12 and vals[-1] <= 1.0 + 1e-12
            gsg = (sub.g.conj() @ S @ sub.g).real
            assert gsg >= c * (1.0 - 1e-12)
            # the trace bound binds, or else the sensing constraint does
            assert vals[-1] == pytest.approx(1.0, rel=1e-12) \
                or gsg == pytest.approx(c, rel=1e-12)
            traces.append(vals[-1])
        # both cases occur: the LP one at the binding gamma0 has Tr S < 1
        assert max(traces) == pytest.approx(1.0, rel=1e-12) and min(traces) < 0.9

    def test_no_random_feasible_point_gains_more(self, scenario, channels, lp_state,
                                                 zf_state):
        rng = np.random.Generator(np.random.Philox(key=[71, 0]))
        for sub in self._subs(scenario, channels, lp_state, zf_state):
            c = _fw_target(sub)
            G, S = self._point(sub)
            best = np.real(np.vdot(G, S))
            for X in _random_sensing_feasible(rng, sub.g, c, 500):
                assert (sub.g.conj() @ X @ sub.g).real >= c * (1.0 - 1e-12)
                assert np.real(np.vdot(G, X)) <= best + 1e-12 * abs(best)

    def test_parent_oracle_where_the_top_eigenvector_is_feasible(
            self, scenario, channels, lp_state, zf_state):
        cases = 0
        for sub in self._subs(scenario, channels, lp_state, zf_state):
            G0 = sub.objective_and_grad(sub.V0)[1]()
            # the surrogate gradient is negative definite here; a shift by
            # 2 I gives a top eigenvalue > 0
            for G in (G0, G0 + 2.0 * np.eye(len(G0))):
                vals, vecs = np.linalg.eigh(G)
                top = abs(np.vdot(vecs[:, -1], sub.g)) ** 2
                # no sensing constraint (c <= 0), and one the top
                # eigenvector meets where its eigenvalue is positive
                targets = [0.0, -1.0] + ([0.5 * top] if vals[-1] > 0.0 else [])
                for c in targets:
                    d = subsolver._sensing_fw_direction(sub.V0, G, sub.g, c)
                    want = _parent_fw_oracle(sub.V0, G)
                    assert np.array_equal(d, want)
                    cases += 1
        assert cases == 20

    def test_unreachable_target_raises(self, scenario, channels, lp_state, zf_state):
        for sub in self._subs(scenario, channels, lp_state, zf_state):
            G = sub.objective_and_grad(sub.V0)[1]()
            c = 1.01 * np.vdot(sub.g, sub.g).real
            with pytest.raises(InfeasibleSubproblemError):
                subsolver._sensing_fw_direction(sub.V0, G, sub.g, c)

    def test_slack_trace_where_the_shifted_matrix_is_negative(self):
        # G = -diag(1, 2, 3): every shifted matrix G + lam g g^H whose top
        # eigenvalue is <= 0 gives S = c y y^H / |g^H y|^2 at y = -G^-1 g;
        # a target past r(0) = |g^H y|^2 / ||y||^2 makes the trace bind
        G = -np.diag([1.0, 2.0, 3.0]).astype(complex)
        g = np.array([1.0, 1.0j, 1.0 - 1.0j])
        V = np.zeros((3, 3), dtype=complex)
        y = -np.linalg.solve(G, g)
        r0 = abs(np.vdot(g, y)) ** 2 / np.vdot(y, y).real
        for c in (0.2 * r0, r0):
            S = subsolver._sensing_fw_direction(V, G, g, c)
            want = c * np.outer(y, y.conj()) / abs(np.vdot(g, y)) ** 2
            np.testing.assert_allclose(S, want, rtol=0, atol=1e-14)
            assert np.real(np.trace(S)) == pytest.approx(c / r0, rel=1e-12)
        S = subsolver._sensing_fw_direction(V, G, g, 1.1 * r0)
        vals = np.linalg.eigvalsh(S)
        assert vals[-1] == pytest.approx(1.0, rel=1e-12)
        assert (g.conj() @ S @ g).real == pytest.approx(1.1 * r0, rel=1e-12)
        # G = a I, a < 0: the least trace that meets c, along g
        S = subsolver._sensing_fw_direction(V, -np.eye(3, dtype=complex), g, 0.5)
        gn = np.vdot(g, g).real
        np.testing.assert_allclose(S, 0.5 * np.outer(g, g.conj()) / gn ** 2,
                                   rtol=0, atol=1e-15)
        rng = np.random.Generator(np.random.Philox(key=[71, 1]))
        for c in (0.2 * r0, 1.1 * r0):
            S = subsolver._sensing_fw_direction(V, G, g, c)
            best = np.real(np.vdot(G, S))
            for X in _random_sensing_feasible(rng, g, c, 500):
                assert np.real(np.vdot(G, X)) <= best + 1e-12 * abs(best)


def _sequential_pga_ascent(x0, value_grad, project, step0, max_iters, tau,
                           armijo, rel_tol, max_backtracks, on_accept=None,
                           fw_oracle=None):
    """Reference for `_pga_ascent`: the same step and stop rules, one
    candidate at a time.  ``value_grad(x)`` returns (objective, gradient,
    *aux) of one point; ``on_accept`` sees that whole tuple."""
    x = np.array(x0, copy=True)
    val = value_grad(x)
    L, g = val[0], val[1]
    if on_accept is not None:
        on_accept(x, val)
    step = step0
    fw_step = 1.0
    last = np.inf
    for it in range(max_iters):
        accepted = False
        improve = 0.0
        directions = [("grad", g, step, max_backtracks)]
        if fw_oracle is not None and it % 2 == 0:
            d_fw = fw_oracle(x, g)
            if d_fw is not None:
                directions.insert(0, ("fw", d_fw, fw_step, 16))
        for kind, d, s, tries in directions:
            for _bt in range(tries):
                xn = project(x + s * d)
                dn2 = float(np.sum(np.abs(xn - x) ** 2))
                if dn2 == 0.0:
                    break
                valn = value_grad(xn)
                if valn[0] - L >= armijo * dn2:
                    improve = valn[0] - L
                    x, L, g = xn, valn[0], valn[1]
                    if on_accept is not None:
                        on_accept(x, valn)
                    if kind == "grad":
                        step = s * 2.0
                    else:
                        fw_step = min(1.0, s * 2.0)
                    accepted = True
                    break
                s *= tau
            if accepted:
                break
        if not accepted:
            break
        if last + improve <= rel_tol * (1.0 + abs(L)):
            break
        last = improve
    return x, L, step


def _sequential_with_stacked_callbacks(x0, value_grad, project, *args,
                                       on_accept=None, fw_oracle=None):
    """Run the sequential reference on `_pga_ascent`'s stacked callbacks,
    each called with a stack of one point."""
    def vg(x):
        vals, grad, *aux = value_grad(x[None])
        return (vals[0], grad(0), *(a[0] for a in aux))

    def on_acc(x, val):
        on_accept(x, (val[0], *val[2:]))

    return _sequential_pga_ascent(
        x0, vg, lambda z: project(z[None])[0], *args,
        on_accept=None if on_accept is None else on_acc, fw_oracle=fw_oracle)


class _BoxQuadratic:
    """A concave quadratic on the box [-1, 1]^2, with `_pga_ascent`'s
    stacked callbacks.

    ``fw_oracle`` returns the box vertex that maximizes the linearized gain,
    minus x; every third call returns the reverse, a descent direction whose
    try must fail.
    """

    center = np.array([0.3, -0.2])
    curv = np.array([1.0, 4.0])

    def __init__(self):
        self.fw_calls = 0

    def gradient(self, x):
        return -2.0 * self.curv * (x - self.center)

    def value_grad(self, X):
        R = X - self.center
        vals = np.array([-float(np.sum(self.curv * r * r)) for r in R])
        return vals, lambda i: self.gradient(X[i])

    def fw_oracle(self, x, g):
        self.fw_calls += 1
        d = np.where(g >= 0.0, 1.0, -1.0) - x
        return -d if self.fw_calls % 3 == 0 else d

    def project(self, Z):
        return np.clip(Z, -1.0, 1.0)


class _StepRecorder(_BoxQuadratic):
    """The box quadratic, recording every step size tried.

    ``project`` sees each candidate x + s d before clipping, so it recovers
    s and which direction d (FW or gradient) was tried.  `_pga_ascent` asks
    for the gradient only at the start point and at each adopted candidate,
    so ``value_grad``'s gradient names the adopted one, which need not be
    the last one projected: a try evaluates its candidates in stacks.  The
    rounding of x + s d bounds how well a candidate gives s back (``slack``):
    a stack of 32 trials projects steps near 1e-11, whose s is then known
    only to about 1e-5 relative.
    """

    def __init__(self):
        super().__init__()
        self.events = []
        self.stacks = []                # the size of every projected stack
        self.x = self.g = self.d_fw = None

    def fw_oracle(self, x, g):
        self.d_fw = super().fw_oracle(x, g)
        return self.d_fw

    def value_grad(self, X):
        vals, _ = super().value_grad(X)
        return vals, lambda i: self._accept(X[i])

    def _accept(self, x):
        self.x, self.g, self.d_fw = x.copy(), self.gradient(x), None
        if self.events:
            self.events.append(("accept", x.copy()))
        return self.g

    def project(self, Z):
        out = super().project(Z)
        self.stacks.append(len(Z))
        for z, xn in zip(Z, out):
            delta = z - self.x
            # the rounding of z = x + s d and of z - x
            slack = 4.0 * np.finfo(float).eps * (np.linalg.norm(self.x) + np.linalg.norm(z))
            kinds = []
            for kind, d in (("fw", self.d_fw), ("grad", self.g)):
                if d is None:
                    continue
                s = float(d @ delta) / float(d @ d)
                if np.linalg.norm(delta - s * d) <= 1e-8 * np.linalg.norm(delta) + slack:
                    kinds.append((kind, s, slack / np.linalg.norm(d)))
            assert len(kinds) == 1, "candidate direction is ambiguous"
            self.events.append(kinds[0] + (xn,))
        return out

    def tries(self):
        """Group the candidates into tries: (kind, [steps], accepted); an
        accepted try ends at its adopted candidate."""
        out = []
        for ev in self.events:
            if ev[0] == "accept":
                kind, steps, _, points = out[-1]
                i = next(j for j, p in enumerate(points) if np.array_equal(p, ev[1]))
                out[-1] = [kind, steps[:i + 1], True, points[:i + 1]]
            elif out and not out[-1][2] and out[-1][0] == ev[0] \
                    and ev[1] == pytest.approx(0.5 * out[-1][1][-1], rel=1e-9,
                                               abs=ev[2]):
                out[-1][1].append(ev[1])
                out[-1][3].append(ev[3])
            else:
                out.append([ev[0], [ev[1]], False, [ev[3]]])
        return [t[:3] for t in out]


class TestLineSearch:
    """`line_search` on a stub stack evaluation: from x = 0 along d = 1 with
    steps 1, 1/2, 1/4, ..., projected onto the grid of 1/``grid`` (1/8 by
    default, where the fifth trial, 1/16, is the first that does not move).
    ``gains`` maps a trial's step to its value (absent: 0, no gain over
    L = 0)."""

    @staticmethod
    def _search(gains, s=1.0, tries=10, per_trial=False, first=2, grid=8.0):
        stacks = []

        def evaluate(X):
            steps = X[:, 0].tolist()
            stacks.append(steps)
            vals = np.array([gains.get(st, 0.0) for st in steps])
            if not per_trial:
                return [(0, vals, lambda m: X[m].copy())]

            def blocks():
                # one block per trial; each step is recorded as it is read
                for i in range(len(steps)):
                    stacks.append(steps[i])
                    yield i, vals[i:i + 1], lambda m, i=i: X[i + m].copy()
            return blocks()

        out = subsolver.line_search(np.zeros(1), 0.0, np.ones(1), s, tries, 0.5,
                                    1e-4, evaluate, lambda X: np.floor(grid * X) / grid,
                                    first=first)
        return out, stacks

    def test_first_trial_vanishes(self):
        assert self._search({}, s=1 / 16) == ((None, None, 0), [])

    def test_vanishing_trial_ends_the_search(self):
        assert self._search({}) == ((None, None, 4), [[1.0, 0.5], [0.25, 0.125]])

    def test_tries_run_out(self):
        assert self._search({}, tries=3) == ((None, None, 3), [[1.0, 0.5], [0.25]])

    def test_first_passing_trial_across_a_stack_boundary(self):
        (s, x, tried), stacks = self._search({0.25: 1.0, 0.125: 1.0})
        assert (s, x.tolist(), tried) == (0.25, [0.25], 3)
        assert stacks == [[1.0, 0.5], [0.25, 0.125]]

    def test_nan_is_never_adopted(self):
        (s, x, tried), _ = self._search({1.0: np.nan, 0.5: np.nan, 0.125: 1.0})
        assert (s, x.tolist(), tried) == (0.125, [0.125], 4)
        assert self._search({0.5: np.nan})[0] == (None, None, 4)

    def test_blocks_are_read_lazily_in_step_order(self):
        (s, _, tried), stacks = self._search({0.25: 1.0, 0.125: 1.0}, per_trial=True)
        assert (s, tried) == (0.25, 3)
        # the second stack's blocks stop at its first, adopted, trial
        assert stacks == [[1.0, 0.5], 1.0, 0.5, [0.25, 0.125], 0.25]

    @pytest.mark.parametrize("first", [1, 2, 3, 4])
    @pytest.mark.parametrize("gains, s, tries", [
        ({}, 1.0, 10),                                  # the step vanishes
        ({}, 1 / 16, 10),                               # ... at the first trial
        ({}, 1.0, 3),                                   # the tries run out
        ({0.25: 1.0, 0.125: 1.0}, 1.0, 10),
        ({1.0: np.nan, 0.5: np.nan, 0.125: 1.0}, 1.0, 10),
        ({0.5: np.nan}, 1.0, 10),
    ])
    def test_first_stack_size_changes_no_result(self, gains, s, tries, first):
        (s_ref, x_ref, tried_ref), _ = self._search(gains, s, tries)
        made = [s * 0.5 ** j for j in range(tried_ref)]
        for per_trial in (False, True):
            (s_j, x, tried), stacks = self._search(gains, s, tries, per_trial, first)
            assert (s_j, tried) == (s_ref, tried_ref)
            assert (x is None) == (x_ref is None)
            if x is not None:
                assert x.tolist() == x_ref.tolist()
            evaluated = [st for stack in stacks if isinstance(stack, list) for st in stack]
            assert evaluated[:tried] == made
            sizes = [len(stack) for stack in stacks if isinstance(stack, list)]
            assert all(n <= first * 2 ** j for j, n in enumerate(sizes))
            if per_trial:
                # the blocks are read lazily: exactly the trials up to adoption
                assert [st for st in stacks if not isinstance(st, list)] == made

    @pytest.mark.parametrize("seed", range(8))
    def test_cold_stack_sizes_change_no_result(self, seed):
        # on the grid of 2^-40 the first 41 trials move, so stacks of 24 and
        # 32 are cut by the adopted trial, the tries or the vanishing one;
        # each trial passes (1), fails the Armijo test by a hair, is NaN or
        # has no gain, at random
        rng = np.random.Generator(np.random.Philox(key=[67, seed]))
        steps = [0.5 ** j for j in range(42)]
        kinds = rng.choice(4, size=len(steps), p=[0.04, 0.16, 0.2, 0.6])
        values = [1.0, 0.5e-4, np.nan, 0.0]
        gains = {st: values[k] * (st * st if k == 1 else 1.0)
                 for st, k in zip(steps, kinds)}
        tries = int(rng.choice([10, 30, 60]))
        out = {}
        for first in (1, 2, 3, 24, 32):
            for per_trial in (False, True):
                (s_j, x, tried), _ = self._search(gains, tries=tries,
                                                  per_trial=per_trial, first=first,
                                                  grid=2.0 ** 40)
                out[first, per_trial] = (s_j, None if x is None else x.tolist(), tried)
        assert len(set(map(repr, out.values()))) == 1
        # the one-at-a-time search: the first trial in step order that gains
        # at least 1e-4 times its squared step, or none through the tries and
        # the 42nd trial, the first that does not move
        passing = [j for j in range(min(tries, 41))
                   if gains[steps[j]] - 0.0 >= 1e-4 * steps[j] ** 2]
        want = ((steps[passing[0]], [steps[passing[0]]], passing[0] + 1) if passing
                else (None, None, min(tries, 41)))
        assert out[2, False] == want

    def test_pga_ascent_searches_through_it(self, monkeypatch):
        searches = []

        def counting(*args, _real=subsolver.line_search):
            searches.append(_real(*args))
            return searches[-1]

        monkeypatch.setattr(subsolver, "line_search", counting)
        box = _BoxQuadratic()
        x = _pga_ascent(np.array([-0.9, 0.8]), box.value_grad, box.project,
                        0.05, 40, 0.5, 1e-4, 0.0, 80, fw_oracle=box.fw_oracle)
        assert len(searches) >= 3
        assert any(np.array_equal(x, found[1][0]) for found in searches
                   if found[1] is not None)


class TestPgaStepRule:
    """`_pga_ascent` warm-starts both the gradient and the FW step, with the
    first gradient try's first stack at the default 2 or at a cold stack of
    BOUNDARY_STACK (``value_grad.cold_stack``)."""

    step0 = 0.05

    def _run(self, cold_stack=None):
        rec = _StepRecorder()

        def value_grad(X):
            return rec.value_grad(X)

        if cold_stack is not None:
            value_grad.cold_stack = lambda x: cold_stack
        _pga_ascent(np.array([-0.9, 0.8]), value_grad, rec.project,
                    self.step0, max_iters=20, tau=0.5, armijo=1e-4,
                    rel_tol=0.0, max_backtracks=80, fw_oracle=rec.fw_oracle)
        return rec

    def test_cold_stack_changes_no_try(self):
        cold, warm = self._run(subsolver.BOUNDARY_STACK), self._run()
        assert cold.tries() == warm.tries()
        assert subsolver.BOUNDARY_STACK in cold.stacks
        assert max(warm.stacks) < subsolver.BOUNDARY_STACK

    def test_fw_step_warm_start(self):
        for cold_stack in (None, subsolver.BOUNDARY_STACK):
            self._check_fw_step_rule(cold_stack)

    def _check_fw_step_rule(self, cold_stack):
        fw = [t for t in self._run(cold_stack).tries() if t[0] == "fw"]
        assert len(fw) >= 5
        assert fw[0][1][0] == 1.0
        last = None
        for _kind, steps, accepted in fw:
            assert len(steps) <= 16
            expect = 1.0 if last is None else min(1.0, 2.0 * last)
            assert steps[0] == pytest.approx(expect, rel=1e-9)
            assert steps[0] <= 1.0 + 1e-12
            if accepted:
                last = steps[-1]
        # the rule is exercised: some try starts below 1, some is capped,
        # and some fails after 16 steps without moving the start
        assert any(t[1][0] < 0.5 for t in fw)
        assert any(t[2] and t[1][-1] >= 0.5 for t in fw[:-1])
        assert any(not t[2] and len(t[1]) == 16 for t in fw[:-1])

    def test_grad_step_rule_unchanged(self):
        for cold_stack in (None, subsolver.BOUNDARY_STACK):
            self._check_grad_step_rule(cold_stack)

    def _check_grad_step_rule(self, cold_stack):
        grad = [t for t in self._run(cold_stack).tries() if t[0] == "grad"]
        assert len(grad) >= 5
        assert grad[0][1][0] == pytest.approx(self.step0, rel=1e-9)
        for prev, cur in zip(grad, grad[1:]):
            assert prev[2]
            assert cur[1][0] == pytest.approx(2.0 * prev[1][-1], rel=1e-9)
        assert all(len(t[1]) <= 80 for t in grad)


def _recording(ascent, calls):
    def run(*args, **kwargs):
        out = ascent(*args, **kwargs)
        calls.append(out)
        return out
    return run


def _sequential_x(*args, **kwargs):
    """The sequential reference's x alone, as `_pga_ascent` returns it."""
    return _sequential_with_stacked_callbacks(*args, **kwargs)[0]


def _same_ascents(a, b):
    assert len(a) == len(b)
    for xa, xb in zip(a, b):
        assert np.array_equal(xa, xb)


class TestSequentialReference:
    """The stacked line search takes exactly the steps of the sequential one."""

    @pytest.mark.parametrize("veto", [False, True])
    def test_box_quadratic(self, veto):
        # the veto (x[0] <= 0.2, as a NaN objective elsewhere) rejects some
        # Armijo-passing candidates, so the adopted one is not always the
        # first to pass the Armijo test
        def vetoed(value_grad):
            def vg(X):
                vals, grad = value_grad(X)
                return np.where(X[:, 0] <= 0.2, vals, np.nan), grad
            return vg

        outs = []
        for ascent in (_pga_ascent, _sequential_x):
            box = _BoxQuadratic()
            vg = vetoed(box.value_grad) if veto else box.value_grad
            outs.append([ascent(np.array([-0.9, 0.8]), vg,
                                box.project, 0.05, 40, 0.5, 1e-4, 0.0, 80,
                                fw_oracle=box.fw_oracle)])
        _same_ascents(*outs)
        # the unconstrained maximum lies at x[0] = 0.3
        x = outs[0][0]
        assert (x[0] <= 0.2) == veto
        values = _BoxQuadratic().value_grad(np.array([x, [-0.9, 0.8]]))[0]
        assert values[0] > values[1]

    def _compare_solves(self, monkeypatch, sub):
        from nfisac import subsolver
        results = []
        for ascent in (_pga_ascent, _sequential_x):
            calls = []
            monkeypatch.setattr(subsolver, "_pga_ascent", _recording(ascent, calls))
            results.append((solve_covariance_subproblem(sub), calls))
        (V, calls), (V_ref, calls_ref) = results
        assert len(calls) == 1
        _same_ascents(calls, calls_ref)
        assert np.array_equal(V, V_ref)

    def test_lp_covariance_solve(self, monkeypatch, scenario, channels, lp_state):
        V0 = np.outer(lp_state.v, lp_state.v.conj())
        self._compare_solves(monkeypatch, _cov_sub(scenario, channels, lp_state, V0))

    def test_zf_covariance_solve(self, monkeypatch, scenario, channels, zf_state):
        V0 = np.outer(zf_state.v, zf_state.v.conj())
        self._compare_solves(monkeypatch, _cov_sub(scenario, channels, None, V0,
                                                   mode="zf", zf_state=zf_state))


def _solve_sub(scenario, channels, lp_state, zf_state, mode, sensing):
    """The conftest covariance subproblem of a stack at V0 = v v^H: at the
    scenario's gamma0 ("default"), with the constraint binding at V0
    (``_binding_cov_sub``), or without sensing (gamma0 = 0, "none")."""
    if sensing == "binding":
        return _binding_cov_sub(scenario, channels, lp_state, mode, zf_state)
    st = lp_state if mode == "lp" else zf_state
    return _cov_sub(scenario, channels, lp_state, np.outer(st.v, st.v.conj()),
                    gamma0=0.0 if sensing == "none" else None, mode=mode,
                    zf_state=zf_state)


class TestVetoBeforeObjective:
    """The covariance solve takes the deficit of a trial stack first and
    hands the objective only the feasible trials, with the V of a solve
    that evaluates every trial and then rejects the infeasible ones."""

    @staticmethod
    def _stacks_seen(monkeypatch, sub, solve):
        """V of ``solve(sub)`` and the scaled deficits of every stack the
        objective received (a 2-D point is no stack)."""
        seen = []
        objective = CovarianceSubproblem.objective_and_grad

        def spy(self, V):
            if V.ndim == 3:
                seen.append(self.deficit(V) / self.sinr_deficit_scale)
            return objective(self, V)

        with monkeypatch.context() as m:
            m.setattr(CovarianceSubproblem, "objective_and_grad", spy)
            V = solve(sub)
        return V, seen

    @staticmethod
    def _no_veto_solve(monkeypatch, sub, cold=True):
        """The solve with the objective on every trial, NaN where vetoed:
        with the same trial stacks, or (``cold`` False) with a first stack
        of 2 in every try."""
        def ascent(x0, value_grad, *args, **kwargs):
            def all_trials(X):
                f, grad = sub.objective_and_grad(X)
                kap = sub.deficit(X) / sub.sinr_deficit_scale
                return np.where(kap <= TOL_FEAS, f, np.nan), grad
            if cold:
                all_trials.cold_stack = value_grad.cold_stack
            return _pga_ascent(x0, all_trials, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(subsolver, "_pga_ascent", ascent)
            return solve_covariance_subproblem(sub)

    @pytest.mark.parametrize("sensing", ["default", "binding"])
    @pytest.mark.parametrize("mode", ["lp", "zf"])
    def test_objective_sees_only_feasible_stacks(self, monkeypatch, scenario, channels,
                                                 lp_state, zf_state, mode, sensing):
        sub = _solve_sub(scenario, channels, lp_state, zf_state, mode, sensing)
        V, seen = self._stacks_seen(monkeypatch, sub, solve_covariance_subproblem)
        V_ref, seen_ref = self._stacks_seen(
            monkeypatch, sub, lambda sub: self._no_veto_solve(monkeypatch, sub))
        assert V.tobytes() == V_ref.tobytes()
        assert V.tobytes() == self._no_veto_solve(monkeypatch, sub, cold=False).tobytes()
        assert seen and all(np.all(kap <= TOL_FEAS) for kap in seen)
        # the reference evaluates infeasible trials, so the veto skips some
        vetoed = sum(int(np.sum(kap > TOL_FEAS)) for kap in seen_ref)
        assert vetoed > 0
        assert sum(map(len, seen)) == sum(map(len, seen_ref)) - vetoed

    def test_gradient_of_a_vetoed_point_is_its_own(self, monkeypatch, scenario,
                                                   channels, lp_state):
        # the value_grad the ascent gets answers grad(i) on every trial of a
        # stack, the vetoed ones too
        sub = _solve_sub(scenario, channels, lp_state, None, "lp", "binding")
        got = []

        def ascent(x0, value_grad, *args, **kwargs):
            got.append(value_grad)
            return x0

        monkeypatch.setattr(subsolver, "_pga_ascent", ascent)
        solve_covariance_subproblem(sub)
        V0 = psd_trace_project(sub.V0)
        X = np.stack([V0, 0.5 * V0, V0 + 0.1 * np.eye(len(V0)), 0.25 * V0])
        kap = sub.deficit(X) / sub.sinr_deficit_scale
        assert (kap <= TOL_FEAS).any() and (kap > TOL_FEAS).any()
        vals, grad = got[0](X)
        for i, Xi in enumerate(X):
            val, grad_i = sub.objective_and_grad(Xi)
            assert vals[i] == val if kap[i] <= TOL_FEAS else np.isnan(vals[i])
            assert np.array_equal(grad(i), grad_i())


class TestColdGradientStack:
    """The first gradient try of a covariance ascent starts at the fixed
    PGA_STEP0: its first stack holds BOUNDARY_STACK trials from a point on
    the sensing boundary (scaled deficit > 0), 2 from a slack one, and every
    other try's first stack holds 2."""

    @pytest.mark.parametrize("mode", ["lp", "zf"])
    @pytest.mark.parametrize("sensing, boundary", [("default", True), ("none", False)])
    def test_first_stack_of_the_first_gradient_try(self, monkeypatch, scenario,
                                                   channels, lp_state, zf_state,
                                                   mode, sensing, boundary):
        sub = _solve_sub(scenario, channels, lp_state, zf_state, mode, sensing)
        searches = []

        def spy(x, L, d, s, tries, *args, _real=subsolver.line_search):
            searches.append((tries, args[-1], sub.deficit(x) / sub.sinr_deficit_scale))
            return _real(x, L, d, s, tries, *args)

        monkeypatch.setattr(subsolver, "line_search", spy)
        solve_covariance_subproblem(sub)
        grad = [i for i, (tries, _, _) in enumerate(searches) if tries == MAX_BACKTRACKS]
        _, first, kap = searches[grad[0]]
        assert (kap > 0.0) == boundary
        assert first == (subsolver.BOUNDARY_STACK if boundary else 2)
        assert len(searches) >= 2
        assert all(f == 2 for i, (_, f, _) in enumerate(searches) if i != grad[0])


def _stack_sizes(seed, count=50):
    rng = np.random.Generator(np.random.Philox(key=[61, seed]))
    return rng, [int(m) for m in rng.integers(1, 17, size=count)]


class TestStackedKernels:
    """Every stacked evaluation equals the 2-D call on each of its slices."""

    def _check_covariance(self, sub, n, seed):
        rng, sizes = _stack_sizes(seed)
        for m in sizes:
            Vs = np.stack(_random_psd(rng, n, m))
            vals, grad = sub.objective_and_grad(Vs)
            deficits = sub.deficit(Vs)
            assert vals.shape == deficits.shape == (m,)
            for i, V in enumerate(Vs):
                val, grad2 = sub.objective_and_grad(V)
                assert vals[i] == val
                assert np.array_equal(grad(i), grad2())
                assert deficits[i] == sub.deficit(V)

    def test_lp_covariance(self, scenario, channels, lp_state):
        V0 = np.outer(lp_state.v, lp_state.v.conj())
        self._check_covariance(_cov_sub(scenario, channels, lp_state, V0),
                               scenario.n_t, 0)

    def test_zf_covariance(self, scenario, channels, zf_state):
        V0 = np.outer(zf_state.v, zf_state.v.conj())
        sub = _cov_sub(scenario, channels, None, V0, mode="zf", zf_state=zf_state)
        self._check_covariance(sub, scenario.n_t, 1)

    @staticmethod
    def _desk():
        """The conftest fixtures rebuilt at desk scale (N_t = 8)."""
        from nfisac import geometry, harness

        sc = harness.build_scenario(
            harness.apply_profile(harness.ExperimentConfig(), "desk"))
        assert sc.n_t == 8
        ch = geometry.build_channels(
            sc, harness.initial_placement(sc, harness.trial_rng(11, 0)))
        lp = verify.random_lp_state(sc, ch, np.random.Generator(np.random.Philox(key=[5, 0])))
        rng = np.random.Generator(np.random.Philox(key=[5, 1]))
        v, u = verify._random_unit(rng, sc.n_t), verify._random_unit(rng, sc.n_r)
        return sc, ch, lp, metrics.make_zf_state(ch, v, u, sc.p_max)

    def test_lp_covariance_desk(self):
        sc, ch, lp, _ = self._desk()
        V0 = np.outer(lp.v, lp.v.conj())
        self._check_covariance(_cov_sub(sc, ch, lp, V0), sc.n_t, 4)

    def test_zf_covariance_desk(self):
        sc, ch, _, zst = self._desk()
        V0 = np.outer(zst.v, zst.v.conj())
        sub = _cov_sub(sc, ch, None, V0, mode="zf", zf_state=zst)
        self._check_covariance(sub, sc.n_t, 5)

    def test_psd_trace_project(self):
        # traces below and above 1, so both the clipped-only and the
        # rescaled branches run
        rng, sizes = _stack_sizes(2)
        traces = []
        for m in sizes:
            Vs = np.stack([rng.uniform(0.05, 2.0) * _random_hermitian(rng, 4)
                           for _ in range(m)])
            P = psd_trace_project(Vs)
            traces.extend(np.real(np.trace(P, axis1=1, axis2=2)))
            for i, V in enumerate(Vs):
                assert np.array_equal(P[i], psd_trace_project(V))
        assert min(traces) < 0.9 and max(traces) == pytest.approx(1.0, abs=1e-12)

    def test_precoder(self, scenario, channels, lp_state):
        state = lp_state.copy()
        state.v = channels.f_t / math.sqrt(scenario.n_t)
        sub = _precoder_sub(scenario, channels, state)
        rng, sizes = _stack_sizes(3)
        for m in sizes:
            Ws = (rng.normal(size=(m,) + sub.W0.shape)
                  + 1j * rng.normal(size=(m,) + sub.W0.shape))
            Ws *= rng.uniform(0.2, 2.0, size=(m, 1, 1, 1)) * math.sqrt(scenario.p_max) \
                / np.linalg.norm(Ws.reshape(m, -1), axis=1)[:, None, None, None]
            vals, grad = sub.surrogate_and_grad(Ws)
            deficits = sub.deficit(Ws)
            for i, W in enumerate(Ws):
                val, grad2 = sub.surrogate_and_grad(W)
                assert vals[i] == val
                assert np.array_equal(grad(i), grad2())
                assert deficits[i] == sub.deficit(W)


class TestInterferenceModel:
    """A stack's interference model plus the beam term gives that stack's
    own rates and SINR deficit, so the covariance subproblem's model cannot
    drift from the rate model."""

    @pytest.mark.parametrize("scale", ["trend", "desk"])
    @pytest.mark.parametrize("stack", ["lp", "zf"])
    def test_model_gives_rates(self, request, stack, scale):
        if scale == "desk":
            sc, ch, lp_st, zf_st = TestStackedKernels._desk()
        else:
            sc, ch, lp_st, zf_st = (request.getfixturevalue(name) for name in
                                    ("scenario", "channels", "lp_state", "zf_state"))
        module, state, rates_of = {"lp": (lp, lp_st, metrics.lp_rates),
                                   "zf": (zf, zf_st, metrics.zf_rates)}[stack]
        C, C_own, offset = module.interference_model(ch, state, sc.gamma0)
        hv = np.stack(ch.H) @ state.v
        beam = hv[:, :, None] * hv.conj()[:, None, :]
        rates = metrics.logdet_hpd(C_own + beam)[0] - metrics.logdet_hpd(C + beam)[0]
        np.testing.assert_allclose(rates, rates_of(ch, state), rtol=0, atol=1e-12)
        g = ch.G.conj().T @ state.u
        deficit = offset - abs(np.vdot(g, state.v)) ** 2
        want = metrics.sinr_deficit(ch, state.precoders, state.v, state.u, sc.gamma0)
        assert deficit == pytest.approx(want, rel=1e-12)


class TestCovarianceSolveCost:
    """One covariance solve on the conftest fixtures stays cheap and feasible.

    A stacked objective call evaluates many candidates at once, so both the
    calls (the per-call overhead) and the candidates (the work, including
    the candidates a stack evaluates past the adopted one) are bounded.
    """

    MAX_CALLS = 250
    MAX_CANDIDATES = 540

    def _solve_counted(self, sub):
        calls, candidates = [0], [0]
        inner = sub.objective_and_grad

        def counted(V):
            calls[0] += 1
            candidates[0] += 1 if V.ndim == 2 else len(V)
            return inner(V)

        sub.objective_and_grad = counted
        V = solve_covariance_subproblem(sub)
        assert calls[0] <= self.MAX_CALLS
        assert candidates[0] <= self.MAX_CANDIDATES
        assert sub.deficit(V) / sub.sinr_deficit_scale <= TOL_FEAS
        vals = np.linalg.eigvalsh(V)
        assert vals.min() >= -1e-12
        assert vals.sum() <= 1.0 + 1e-12
        return calls[0], candidates[0]

    def test_lp_eval_count(self, scenario, channels, lp_state):
        V0 = np.outer(lp_state.v, lp_state.v.conj())
        self._solve_counted(_cov_sub(scenario, channels, lp_state, V0))

    def test_zf_eval_count(self, scenario, channels, zf_state):
        V0 = np.outer(zf_state.v, zf_state.v.conj())
        self._solve_counted(_cov_sub(scenario, channels, None, V0, mode="zf",
                                     zf_state=zf_state))


class TestCovarianceTolerance:
    """The covariance ascents stop at COV_REL_TOL, not at the tight 3e-10:
    on the conftest subproblems, at the scenario's gamma0 and without a
    sensing constraint, the solve stays feasible, its surrogate stays within
    EPS_S / 10 of a solve run to 3e-10, and it makes fewer objective
    calls."""

    TIGHT_REL_TOL = 3e-10

    def _solve(self, monkeypatch, sub, rel_tol):
        """(V, surrogate at V, stacked objective calls) of one solve."""
        calls = [0]
        inner = sub.objective_and_grad

        def counted(V):
            calls[0] += 1
            return inner(V)

        monkeypatch.setattr(subsolver, "COV_REL_TOL", rel_tol)
        sub.objective_and_grad = counted
        try:
            V = solve_covariance_subproblem(sub)
        finally:
            del sub.objective_and_grad
        return V, sub.objective_and_grad(V)[0], calls[0]

    @pytest.mark.parametrize("gamma0", [None, 0.0])
    @pytest.mark.parametrize("mode", ["lp", "zf"])
    def test_close_to_the_tight_solve_in_fewer_calls(self, monkeypatch, scenario,
                                                     channels, lp_state, zf_state,
                                                     mode, gamma0):
        state = lp_state if mode == "lp" else zf_state
        V0 = np.outer(state.v, state.v.conj())
        sub = _cov_sub(scenario, channels, lp_state, V0, gamma0=gamma0, mode=mode,
                       zf_state=zf_state)
        V_tight, f_tight, calls_tight = self._solve(monkeypatch, sub, self.TIGHT_REL_TOL)
        V, f, calls = self._solve(monkeypatch, sub, COV_REL_TOL)
        for X in (V, V_tight):
            assert sub.deficit(X) / sub.sinr_deficit_scale <= TOL_FEAS
            vals = np.linalg.eigvalsh(X)
            assert vals.min() >= -1e-12 and vals.sum() <= 1.0 + 1e-12
        assert f >= f_tight - EPS_S / 10
        assert calls < calls_tight

    def test_precoder_solve_keeps_the_tight_tolerance(self, monkeypatch, scenario,
                                                      channels, lp_state):
        # the covariance tolerance does not reach the precoder subproblem
        state = lp_state.copy()
        state.v = channels.f_t / math.sqrt(scenario.n_t)
        sub = _precoder_sub(scenario, channels, state)
        W = solve_precoder_subproblem(sub)
        monkeypatch.setattr(subsolver, "COV_REL_TOL", 1e-1)
        W_loose_cov = solve_precoder_subproblem(sub)
        assert all(np.array_equal(a, b) for a, b in zip(W, W_loose_cov))
