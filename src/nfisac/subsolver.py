"""First-order solver for the two SCA convex subproblems.

Both subproblems (precoder update, sensing-covariance update) are smooth
concave maximizations over a simple convex set with one extra scalar
inequality (the SINR deficit) <= 0.  They are solved with projected
gradient ascent wrapped in an augmented-Lagrangian loop on the constraint,
followed by a polish pass
that only accepts feasible iterates.  The best feasible point seen is
returned, so the output never loses surrogate objective relative to a
feasible expansion point.

The deficit carries physical power units; all feasibility logic here
operates on its value divided by the natural scale
(see metrics.sinr_deficit_scale).
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation, InfeasibleSubproblemError
from . import metrics
from .params import AlgoParams


def leading_eigpair(V):
    """Largest eigenvalue and a unit eigenvector of a Hermitian matrix."""
    V = np.asarray(V)
    nrm = np.linalg.norm(V)
    if np.linalg.norm(V - V.conj().T) > 1e-10 * max(1.0, nrm):
        raise ContractViolation("leading_eigpair requires a Hermitian matrix")
    vals, vecs = np.linalg.eigh(0.5 * (V + V.conj().T))
    return float(vals[-1]), vecs[:, -1]


def psd_trace_project(V):
    """Project onto {V >= 0} by eigenvalue clipping, then rescale if Tr > 1.

    This two-step map is not the exact Euclidean projection onto the
    intersection, but it always lands inside the set and is the identity on
    it, which is all the backtracked ascent needs.  A stack of matrices
    (leading axes) is projected matrix by matrix with one stacked ``eigh``.
    """
    V = 0.5 * (V + V.conj().swapaxes(-1, -2))
    vals, vecs = np.linalg.eigh(V)
    vals = np.maximum(vals, 0.0)
    # 1 / max(Tr, 1) is exactly 1 where Tr <= 1, so those matrices keep
    # their clipped eigenvalues unscaled
    vals = vals * (1.0 / np.maximum(vals.sum(axis=-1, keepdims=True), 1.0))
    return (vecs * vals[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def power_project(Ws, p_max):
    """Radial scaling onto the total-power ball (exact Euclidean projection).

    ``Ws`` is one (K, n_t, n_u) precoder set or a stack of them (leading
    axes); each set is scaled on its own.
    """
    tr = np.sum(np.abs(Ws).reshape(Ws.shape[:-3] + (-1,)) ** 2, axis=-1)
    scale = np.sqrt(p_max / np.maximum(tr, p_max))[..., None, None, None]
    return np.where((tr > p_max)[..., None, None, None], Ws * scale, Ws)


def _line_search(x, L, d, s, tries, tau, armijo, value_grad, project, accept_ok):
    """One backtracking try along d from x: candidates project(x + s_j d)
    with s_j = s tau^j, j < tries, evaluated in stacks of 2, 4, 8, ...

    Returns the first candidate, in step order, that passes the Armijo test
    and ``accept_ok``, as (x_new, s_j, entries, grad) with ``entries`` its
    (objective, *aux) values and ``grad`` its conjugate gradient; None if
    no step passes or a candidate equals x.
    """
    lo, size = 0, 2
    while lo < tries:
        chunk = []
        for _ in range(min(size, tries - lo)):
            chunk.append(s)
            s *= tau
        lo += size
        size *= 2
        S = np.array(chunk).reshape((-1,) + (1,) * d.ndim)
        Xn = project(x + S * d)
        dn2 = (np.abs(Xn - x).reshape(len(chunk), -1) ** 2).sum(axis=1)
        moved = dn2.all()
        n = len(chunk) if moved else int(np.argmin(dn2 != 0.0))
        if n:
            vals, grad, *aux = value_grad(Xn[:n])
            for i in (vals - L >= armijo * dn2[:n]).nonzero()[0]:
                entries = (vals[i], *(a[i] for a in aux))
                if accept_ok is None or accept_ok(Xn[i], entries):
                    return Xn[i], chunk[i], entries, grad(i)
        if not moved:
            return None
    return None


def _pga_ascent(x0, value_grad, project, step0, max_iters, tau, armijo,
                rel_tol, max_backtracks, accept_ok=None, on_accept=None,
                fw_oracle=None):
    """Projected gradient ascent with an Armijo-Goldstein backtracked step.

    ``value_grad(X)`` evaluates a stack X of points (one per leading index)
    and returns (objectives, grad, *aux): the objectives and each aux hold
    one entry per point, and ``grad(i)`` gives the conjugate gradient at
    point i.  ``project`` maps a stack of points to a stack.
    ``accept_ok(x, entries)``, when given, can veto a candidate (used to
    reject constraint-violating polish steps); it and ``on_accept(x,
    entries)`` receive one point with its (objective, *aux) entries.

    Each try backtracks by ``tau`` from its start step; an accepted gradient
    step s starts the next gradient try at 2 s.  A try's step sizes are
    fixed before it starts, so its candidates are projected and evaluated
    in stacks of 2, then 4, 8, ... up to the try's step limit, and the
    first one in step order that passes the Armijo test (and
    ``accept_ok``) is adopted: the iterates and steps are those of trying
    one candidate at a time, while most tries (the doubled step rejected,
    the next accepted) cost one stacked evaluation.  The gradient is taken
    only at the adopted candidate.  A candidate equal to x ends its try.

    ``fw_oracle(x, g)``, when given, returns a feasible-direction candidate
    (an in-set extreme point minus x), tried on every other iteration before
    the gradient step, with at most 16 step sizes.  On the PSD trace ball,
    plain projected steps rotate the leading eigenspace very slowly because
    eigenvalue clipping absorbs most of the movement; the conditional-
    gradient direction fixes that.  Its step is warm-started the same way
    within one call: the first try starts at 1, and an accepted step s
    starts the next try at min(1, 2 s).  The cap keeps every candidate
    x + s d on the segment from x to the extreme point.  The FW step is not
    carried across calls (ALM rounds, polish): that variant lowered the
    mean ZF-MA WSR over the mc-trend benchmark pool by about 5%.
    Returns (x, objective, step).
    """
    x = np.array(x0, copy=True)
    vals, grad, *aux = value_grad(x[None])
    L, g = vals[0], grad(0)
    if on_accept is not None:
        on_accept(x, (L, *(a[0] for a in aux)))
    step = step0
    fw_step = 1.0
    for it in range(max_iters):
        directions = [("grad", g, step, max_backtracks)]
        if fw_oracle is not None and it % 2 == 0:
            d_fw = fw_oracle(x, g)
            if d_fw is not None:
                directions.insert(0, ("fw", d_fw, fw_step, 16))
        for kind, d, s, tries in directions:
            found = _line_search(x, L, d, s, tries, tau, armijo, value_grad,
                                 project, accept_ok)
            if found is not None:
                break
        else:
            break
        xn, s, entries, g = found
        improve = entries[0] - L
        x, L = xn, entries[0]
        if on_accept is not None:
            on_accept(x, entries)
        if kind == "grad":
            step = s * 2.0
        else:
            fw_step = min(1.0, s * 2.0)
        if improve <= rel_tol * (1.0 + abs(L)):
            break
    return x, L, step


def _constrained_ascent(x0, f_grad, kap, kap_grad, project, restore, params,
                        fw_oracle=None):
    """Maximize f over the projection set subject to the scaled SINR deficit <= 0.

    ALM on the scaled constraint with the paper-style penalty rule
    (p = 0 while feasible with zero multiplier), then a feasibility-
    preserving polish.  Returns the best feasible point encountered.
    ``f_grad`` and ``kap`` take one point or a stack of them and return
    per-point values, ``f_grad`` with the lazy gradient of ``_pga_ascent``;
    ``kap_grad`` takes one point.
    """
    tol = params.tol_feas
    best = [None, None]

    def consider(x, f, kv):
        if kv <= tol and (best[0] is None or f > best[0]):
            best[0], best[1] = f, x.copy()

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
    p0 = params.p0
    step = params.pga_step0
    for _rnd in range(params.alm_rounds):
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

        def on_acc(z, val):
            consider(z, val[1], val[2])

        x, _, step = _pga_ascent(
            x, vg, project, step, params.pga_iters, params.tau, params.armijo,
            params.pga_rel_tol, params.max_backtracks, on_accept=on_acc,
            fw_oracle=fw_oracle,
        )
        kv = kap(x)
        if eta == 0.0 and p == 0.0 and kv <= tol:
            break  # optimum of the relaxation is feasible: done
        eta = max(0.0, eta + p0 * kv)
        p0 = min(p0 * params.theta, params.p_cap)

    # Polish: ascend f itself from the best feasible point, rejecting any
    # step that would leave the feasible set.
    x = best[1].copy()

    def vg2(z):
        f, grad_f = f_grad(z)
        return f, grad_f, f, kap(z)

    def ok(z, val):
        return val[2] <= tol

    def on_acc2(z, val):
        consider(z, val[1], val[2])

    _pga_ascent(
        x, vg2, project, step, params.polish_iters, params.tau, params.armijo,
        params.pga_rel_tol, params.max_backtracks, accept_ok=ok, on_accept=on_acc2,
        fw_oracle=fw_oracle,
    )
    return best[1]


class PrecoderSubproblem:
    """Concave surrogate for the precoder update, frozen at an expansion point.

    Caches the surrogate coefficients (linear term, quadratic form, constants)
    so repeated evaluations during the inner solve are cheap.
    """

    def __init__(self, channels, W0, v, u, weights, p_max, gamma0):
        self.K = len(channels.H)
        if len(W0) != self.K:
            raise ContractViolation("one expansion precoder per user required")
        self.W0 = np.stack([np.asarray(Wk, dtype=complex) for Wk in W0])
        self.v = np.asarray(v, dtype=complex)
        self.u = np.asarray(u, dtype=complex)
        self.weights = np.asarray(weights, dtype=float)
        self.p_max = float(p_max)
        self.gamma0 = float(gamma0)
        self.sinr_deficit_scale = metrics.sinr_deficit_scale(channels, gamma0)
        self.g = channels.G.conj().T @ self.u
        self._deficit_offset = gamma0 * channels.noise_radar * float(
            np.real(np.vdot(self.u, self.u))
        ) - float(np.abs(np.vdot(self.g, self.v)) ** 2)

        self.lin = []        # linear-term coefficients, one (n_t, n_u) per user
        self.quad = []       # per-user quadratic forms (n_t, n_t)
        self.base = np.zeros(self.K)
        for k in range(self.K):
            Hk = channels.H[k]
            n_u = Hk.shape[0]
            S0 = [Hk @ self.W0[j] for j in range(self.K)]
            hv = Hk @ self.v
            F = channels.noise_user[k] * np.eye(n_u, dtype=complex) + np.outer(hv, hv.conj())
            for j in range(self.K):
                if j != k:
                    F += S0[j] @ S0[j].conj().T
            M = F + S0[k] @ S0[k].conj().T
            Fi = np.linalg.inv(F)
            A = Fi - np.linalg.inv(M)       # equals M^-1 S S^H F^-1, but Hermitian by construction
            FiS = Fi @ S0[k]
            c0, _ = metrics.logdet_hpd(
                np.eye(self.W0[k].shape[1], dtype=complex) + S0[k].conj().T @ FiS
            )
            c0 -= float(np.real(np.trace(S0[k].conj().T @ FiS)))
            d = float(np.real(hv.conj() @ A @ hv)) + channels.noise_user[k] * float(
                np.real(np.trace(A))
            )
            self.lin.append(Hk.conj().T @ FiS)
            self.quad.append(Hk.conj().T @ A @ Hk)
            self.base[k] = c0 - d
        self.quad_sum = sum(w * Qk for w, Qk in zip(self.weights, self.quad))
        # lin_k^H of every user, kept as transposed views (the layout of
        # lin[k].conj().T) so a stacked product rounds like each user's 2-D
        # one, and the weighted linear term of the gradient
        self._lin_h = np.stack([Lk.conj() for Lk in self.lin]).swapaxes(-1, -2)
        self._grad_lin = np.stack([w * Lk for w, Lk in zip(self.weights, self.lin)])

    def per_user_bound(self, W):
        """Surrogate rate of every user at the candidate precoders W."""
        W = [np.asarray(Wk, dtype=complex) for Wk in W]
        if len(W) != self.K or any(Wk.shape != self.W0[k].shape for k, Wk in enumerate(W)):
            raise ContractViolation("candidate precoder shapes do not match the cache")
        out = np.zeros(self.K)
        for k in range(self.K):
            val = self.base[k] + 2.0 * float(np.real(np.trace(self.lin[k].conj().T @ W[k])))
            for j in range(self.K):
                val -= float(np.real(np.trace(W[j].conj().T @ self.quad[k] @ W[j])))
            out[k] = val
        return out

    def surrogate_wsr(self, Ws):
        Ws = np.asarray(Ws)
        val = float(self.weights @ self.base)
        for j in range(self.K):
            val += 2.0 * self.weights[j] * float(np.real(np.trace(self.lin[j].conj().T @ Ws[j])))
            val -= float(np.real(np.trace(Ws[j].conj().T @ self.quad_sum @ Ws[j])))
        return val

    def surrogate_and_grad(self, Ws):
        """Surrogate WSR at one precoder set (K, n_t, n_u) or a stack of
        them (leading axes), and the conjugate gradient of one on demand.

        Returns (value, grad): value has the leading shape (a scalar for
        one set), and grad(i) is the gradient at Ws[i] (grad() for one set).
        """
        Ws = np.asarray(Ws)
        QW = self.quad_sum @ Ws
        lin = np.real(np.trace(self._lin_h @ Ws, axis1=-2, axis2=-1))
        quad = np.real(np.trace(Ws.conj().swapaxes(-1, -2) @ QW, axis1=-2, axis2=-1))
        val = float(self.weights @ self.base)
        for j in range(self.K):
            val = val + 2.0 * self.weights[j] * lin[..., j]
            val = val - quad[..., j]

        def grad(i=()):
            return self._grad_lin - QW[i]
        return val, grad

    def deficit(self, Ws):
        """SINR deficit at one precoder set or at each set of a stack."""
        Wg = Ws.conj().swapaxes(-1, -2) @ self.g          # W_j^H g per set and user
        sq = metrics.per_row(lambda r: np.linalg.norm(r) ** 2,
                             Wg.reshape(-1, Wg.shape[-1]))
        sq = sq.reshape(Wg.shape[:-1])
        val = self._deficit_offset
        for j in range(self.K):
            val = val + self.gamma0 * sq[..., j]
        return val

    def deficit_grad(self, Ws):
        g = np.empty_like(Ws)
        for j in range(self.K):
            g[j] = self.gamma0 * np.outer(self.g, self.g.conj() @ Ws[j])
        return g


def solve_precoder_subproblem(sub, params=None):
    """Maximize the surrogate WSR over the power ball with the SINR deficit <= 0."""
    params = params or AlgoParams()
    scale = sub.sinr_deficit_scale
    tol = params.tol_feas

    def kap(Ws):
        return sub.deficit(Ws) / scale

    def kap_grad(Ws):
        return sub.deficit_grad(Ws) / scale

    def project(Ws):
        return power_project(Ws, sub.p_max)

    def restore(Ws):
        # deficit(c W) = c^2 a + b: shrink toward zero if that can help.
        b = sub._deficit_offset
        if b > tol * scale:
            return None
        a = sub.deficit(Ws) - b
        if a <= 0.0:
            return Ws
        c2 = max(0.0, (tol * scale - b)) / a
        return Ws * min(1.0, np.sqrt(c2) * (1.0 - 1e-12))

    Ws = _constrained_ascent(sub.W0, sub.surrogate_and_grad, kap, kap_grad, project,
                             restore, params)
    return [Ws[k] for k in range(sub.K)]


class CovarianceSubproblem:
    """Concave surrogate for the sensing-covariance update (LP or ZF form).

    ``mode`` selects which rate bound is linearized; the rank-1 penalty uses
    the leading eigenpair of the expansion covariance.
    """

    def __init__(self, mode, channels, V0, weights, gamma0, u, zeta,
                 W=None, gain=None, P=None):
        if mode not in ("lp", "zf"):
            raise ContractViolation(f"unknown covariance mode {mode!r}")
        self.mode = mode
        self.K = len(channels.H)
        self.V0 = 0.5 * (np.asarray(V0, dtype=complex) + np.asarray(V0, dtype=complex).conj().T)
        ev = np.linalg.eigvalsh(self.V0)
        if ev.min() < -1e-10:
            raise ContractViolation("expansion covariance must be PSD")
        self.weights = np.asarray(weights, dtype=float)
        self.gamma0 = float(gamma0)
        self.u = np.asarray(u, dtype=complex)
        self.zeta = float(zeta)
        self.sinr_deficit_scale = metrics.sinr_deficit_scale(channels, gamma0)
        self.g = channels.G.conj().T @ self.u
        _, self.lead_vec = leading_eigpair(self.V0)

        if mode == "lp":
            if W is None:
                raise ContractViolation("LP covariance subproblem needs the precoders")
            self.W = [np.asarray(Wk, dtype=complex) for Wk in W]
            off = self.gamma0 * channels.noise_radar * float(np.real(np.vdot(self.u, self.u)))
            for Wk in self.W:
                off += self.gamma0 * float(np.linalg.norm(Wk.conj().T @ self.g) ** 2)
            self._deficit_offset = off
        else:
            if gain is None or P is None:
                raise ContractViolation("ZF covariance subproblem needs the precoder and gain")
            self.gain = float(gain)
            self._deficit_offset = self.gamma0 * (
                channels.noise_radar * float(np.real(np.vdot(self.u, self.u)))
                + float(np.linalg.norm(np.asarray(P).conj().T @ self.g) ** 2)
            )

        # Per-user pieces, stacked over the users (every user has n_u
        # antennas): a V-independent offset inside the log-det and the Taylor
        # coefficient of the subtracted term at V0.
        self.H = np.stack(channels.H)
        self.HH = self.H.conj().transpose(0, 2, 1)
        eye = np.eye(self.H.shape[1], dtype=complex)
        offs, base = [], []
        for k in range(self.K):
            Hk = channels.H[k]
            sig = channels.noise_user[k]
            if mode == "lp":
                C = sig * eye
                for j in range(self.K):
                    if j != k:
                        S = Hk @ self.W[j]
                        C += S @ S.conj().T
                Sk = Hk @ self.W[k]
                offs.append(C + Sk @ Sk.conj().T)
                base.append(C)
            else:
                offs.append((self.gain**2 + sig) * eye)
                base.append(sig * eye)
        self.offs = np.stack(offs)
        B0 = np.stack(base) + self.H @ self.V0 @ self.HH
        self.c0, _ = metrics.logdet_hpd(B0)
        self.taylor = self.HH @ np.linalg.solve(B0, self.H)
        self._pen_grad = self.zeta * (np.outer(self.lead_vec, self.lead_vec.conj())
                                      - np.eye(self.V0.shape[0], dtype=complex))
        self._kap_grad = -np.outer(self.g, self.g.conj()) / self.sinr_deficit_scale

    def _bounds(self, V):
        """Per-user bounds and the stacked B_k = offs_k + H_k V H_k^H, with
        the users on the last axis before the matrices; V may be a stack."""
        Vk = V[..., None, :, :]
        B = self.offs + self.H @ Vk @ self.HH
        ld, _ = metrics.logdet_hpd(B)
        tr = np.real(np.trace(self.taylor @ (Vk - self.V0), axis1=-2, axis2=-1))
        return ld - self.c0 - tr, B

    def bound_values(self, V):
        """Per-user rate lower bounds at covariance V."""
        return self._bounds(np.asarray(V, dtype=complex))[0]

    def penalty(self, V):
        """Linearized rank-1 reward: beta_max lower bound minus the trace."""
        lead = metrics.per_row(lambda r: r @ self.lead_vec, self.lead_vec.conj() @ V)
        return np.real(lead) - np.real(np.trace(V, axis1=-2, axis2=-1))

    def objective(self, V):
        return float(self.weights @ self.bound_values(V)) + self.zeta * self.penalty(V)

    def objective_and_grad(self, V):
        """Value at a covariance or a stack of them (leading axes), and the
        conjugate gradient of one on demand.

        Returns (value, grad): value has the leading shape (a scalar for
        one matrix), and grad(i) is the gradient at V[i] (grad() for one
        matrix).  One stacked Cholesky (the log-dets) covers every matrix
        and user; the stacked solve (H_k^H B_k^-1 H_k) over the users runs
        only when a gradient is asked for.  The weighted K-term sums run
        per user, in user order.
        """
        bounds, B = self._bounds(V)
        val = self.zeta * self.penalty(V)
        for k in range(self.K):
            val = val + self.weights[k] * bounds[..., k]

        def grad(i=()):
            dgrad = self.HH @ np.linalg.solve(B[i], self.H) - self.taylor
            g = np.array(self._pen_grad, copy=True)
            for k in range(self.K):
                g += self.weights[k] * dgrad[k]
            return 0.5 * (g + g.conj().T)
        return val, grad

    def deficit(self, V):
        """SINR deficit at one covariance or at each matrix of a stack."""
        gVg = metrics.per_row(lambda r: r @ self.g, self.g.conj() @ V)
        return self._deficit_offset - np.real(gVg)


def solve_covariance_subproblem(sub, params=None):
    """Maximize the penalized covariance surrogate over {V>=0, Tr<=1, deficit<=0}."""
    params = params or AlgoParams()
    scale = sub.sinr_deficit_scale
    tol = params.tol_feas
    gnorm2 = float(np.real(np.vdot(sub.g, sub.g)))

    def kap(V):
        return sub.deficit(V) / scale

    def kap_grad(V):
        return sub._kap_grad

    def restore(V):
        # Blend toward the aligned rank-1 direction; the deficit is monotone in
        # the blend weight, so bisection finds the smallest feasible push.
        if gnorm2 <= 0.0 or sub._deficit_offset - gnorm2 > tol * scale:
            return None
        P = np.outer(sub.g, sub.g.conj()) / gnorm2

        def blended(alpha):
            Vb = V + alpha * P
            tr = float(np.real(np.trace(Vb)))
            if tr > 1.0:
                Vb = Vb / tr
            return Vb

        lo, hi = 0.0, 1.0
        for _ in range(200):
            if kap(blended(hi)) <= tol * 0.5:
                break
            hi *= 2.0
            if hi > 1e12:
                return None
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if kap(blended(mid)) <= tol * 0.5:
                hi = mid
            else:
                lo = mid
        return psd_trace_project(blended(hi))

    def fw_oracle(V, g):
        # best extreme point of {V >= 0, Tr <= 1} for the linearized gain
        vals, vecs = np.linalg.eigh(0.5 * (g + g.conj().T))
        if vals[-1] > 0.0:
            x = vecs[:, -1]
            return np.outer(x, x.conj()) - V
        return -V if float(np.real(np.trace(V))) > 0.0 else None

    V = _constrained_ascent(sub.V0, sub.objective_and_grad, kap, kap_grad,
                            psd_trace_project, restore, params, fw_oracle=fw_oracle)
    return V
