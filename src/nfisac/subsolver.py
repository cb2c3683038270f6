"""Solvers for the two SCA convex subproblems.

Both subproblems (precoder update, sensing-covariance update) are smooth
concave maximizations over a simple convex set with one extra scalar
inequality (the SINR deficit) <= 0.  The precoder surrogate is a concave
quadratic under two quadratic constraints, power and deficit, and is solved
in closed form from its KKT conditions (``solve_precoder_subproblem``).
The covariance subproblem is solved by one projected gradient ascent that
only ever adopts feasible points, with no multiplier: its Frank-Wolfe
oracle returns the best point of the whole feasible set, rank one since
the sensing constraint is affine in V (``_sensing_fw_direction``), so the
ascent moves along the sensing boundary.  The output never loses surrogate
objective relative to a feasible expansion point, which is all the one SCA
round of a sensing-beam visit needs to be an ascent step.  Neither solver
runs an augmented-Lagrangian loop.

The deficit carries physical power units; all feasibility logic here
operates on its value divided by the natural scale
(see metrics.sinr_deficit_scale).
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation, InfeasibleSubproblemError
from . import metrics
from .params import (
    ARMIJO, COV_REL_TOL, MAX_BACKTRACKS, PGA_ITERS, PGA_STEP0, PGA_TAU, TOL_FEAS,
)


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
    vals, vecs = metrics.eigh(V)
    vals = np.maximum(vals, 0.0)
    # 1 / max(Tr, 1) is exactly 1 where Tr <= 1, so those matrices keep
    # their clipped eigenvalues unscaled
    vals = vals * (1.0 / np.maximum(vals.sum(axis=-1, keepdims=True), 1.0))
    return (vecs * vals[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def line_search(x, L, d, s, tries, tau, armijo, evaluate, project, first=2):
    """One backtracking Armijo try along d from x, for a maximum.

    The trials are project(x + s_j d) with s_j = s tau^j, j < tries, taken
    in stacks of ``first``, then twice the last (2, 4, 8, ... by default);
    a trial that projects to x ends the search, and no trial from it on is
    evaluated.  The stack sizes change only how many trials are evaluated
    together, never which trial is adopted.  ``evaluate(X)`` takes a stack X
    of trials and gives their values in blocks (i, values, take), in step
    order: values[m] is the value of trial i + m, and ``take(m)`` the
    caller's record of that trial, asked for only for the adopted one.  A
    caller that evaluates the stack at once gives one block; trials it
    leaves out are rejected.  The adopted trial is the first in step order
    whose value exceeds L by at least armijo ||x_j - x||^2; NaN never does.

    Returns (s_j, take(m), tried) of the adopted trial, or (None, None,
    tried); tried counts the trials made: through the adopted one, before
    the one that did not move, or all ``tries``.
    """
    made, size = 0, first
    while made < tries:
        steps = []
        for _ in range(min(size, tries - made)):
            steps.append(s)
            s *= tau
        size *= 2
        S = np.array(steps).reshape((-1,) + (1,) * d.ndim)
        X = project(x + S * d)
        dn2 = (np.abs(X - x).reshape(len(steps), -1) ** 2).sum(axis=1)
        moved = dn2.all()
        n = len(steps) if moved else int(np.argmin(dn2 != 0.0))
        if n:
            for i, vals, take in evaluate(X[:n]):
                ok = (vals - L >= armijo * dn2[i:i + vals.size]).nonzero()[0]
                if ok.size:
                    m = ok[0]
                    return steps[i + m], take(m), made + i + m + 1
        if not moved:
            return None, None, made + n
        made += len(steps)
    return None, None, made


def _pga_ascent(x0, value_grad, project, step0, max_iters, tau, armijo,
                rel_tol, max_backtracks, fw_oracle=None):
    """Projected gradient ascent with an Armijo-Goldstein backtracked step.

    ``value_grad(X)`` evaluates a stack X of points (one per leading index)
    and returns (objectives, grad): one objective per point, and
    ``grad(i)`` gives the conjugate gradient at point i.  A NaN objective
    rejects its point (the covariance solve's infeasible candidates).
    ``project`` maps a stack of points to a stack.

    Each try is one ``line_search``, backtracking by ``tau`` from its start
    step, and each of its stacks is evaluated by one ``value_grad`` call;
    the gradient is taken only at the start point and at each adopted
    candidate.  A try's first stack holds 2 trials, except the first
    gradient try's, which starts at the fixed step0: where ``value_grad``
    has a ``cold_stack`` attribute, that try's first stack is
    ``value_grad.cold_stack(x)`` trials, x the point it starts from.  The
    stack sizes never change which trial is adopted.  An accepted gradient
    step s starts the next gradient try at 2 s.  The ascent stops when no
    try finds a step, or when two consecutive iterations together gain at
    most ``rel_tol`` (relative): one quiet iteration is not enough, since a
    gradient step that meets the boundary of the feasible set gains almost
    nothing while the FW try of the next iteration may still gain.

    ``fw_oracle(x, g)``, when given, returns a feasible-direction candidate
    (an in-set extreme point minus x), tried on every other iteration before
    the gradient step, with at most 16 step sizes.  On the PSD trace ball,
    plain projected steps rotate the leading eigenspace very slowly because
    eigenvalue clipping absorbs most of the movement; the conditional-
    gradient direction fixes that.  Its step is warm-started the same way
    within one call: the first try starts at 1, and an accepted step s
    starts the next try at min(1, 2 s).  The cap keeps every candidate
    x + s d on the segment from x to the extreme point.  Returns x.
    """
    def evaluate(X):
        vals, grad = value_grad(X)
        return [(0, vals, lambda i: (X[i], vals[i], grad(i)))]

    x = np.array(x0, copy=True)
    vals, grad = value_grad(x[None])
    L, g = vals[0], grad(0)
    step = step0
    fw_step = 1.0
    cold_stack = getattr(value_grad, "cold_stack", None)
    last = np.inf                   # the previous iteration's gain
    for it in range(max_iters):
        directions = [("grad", g, step, max_backtracks)]
        if fw_oracle is not None and it % 2 == 0:
            d_fw = fw_oracle(x, g)
            if d_fw is not None:
                directions.insert(0, ("fw", d_fw, fw_step, 16))
        for kind, d, s, tries in directions:
            first = 2
            if kind == "grad" and cold_stack is not None:
                # a failed gradient try ends the ascent, so only the first is cold
                first, cold_stack = cold_stack(x), None
            s, found, _ = line_search(x, L, d, s, tries, tau, armijo, evaluate,
                                      project, first)
            if found is not None:
                break
        else:
            break
        x, value, g = found
        improve, L = value - L, value
        if kind == "grad":
            step = s * 2.0
        else:
            fw_step = min(1.0, s * 2.0)
        if last + improve <= rel_tol * (1.0 + abs(L)):
            break
        last = improve
    return x


class PrecoderSubproblem:
    """Concave surrogate for the precoder update, frozen at an expansion point.

    Caches the surrogate coefficients (linear term, quadratic form, constants):
    the closed-form solve reads them, and evaluations stay cheap.
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
        sq = metrics.row_norm2(Wg)
        val = self._deficit_offset
        for j in range(self.K):
            val = val + self.gamma0 * sq[..., j]
        return val


def _power_multiplier(a, c, p_max):
    """The power multiplier mu >= 0 of the precoder KKT point.

    ``a`` are the ascending eigenvalues of the quadratic form, clipped at 0,
    and ``c`` the squared weight of the linear term on each eigenvector, so
    the power at mu is P(mu) = sum_i c_i / (a_i + mu)^2.  mu = 0 when every
    a_i > 0 and P(0) fits the budget; otherwise mu is the root of
    P(mu) = p_max.  P falls on mu > 0, and the root lies in
    [max(0, r - a_max), r] with r = sqrt(sum c / p_max).  Newton steps on
    1/sqrt(P), which is nearly linear in mu, are kept in that bracket (a
    step that leaves it is a bisection), so the root is found even where
    rounding-level eigenvalues make P steep near 0.
    """
    total = float(c.sum())
    if total == 0.0 or (a[0] > 0.0 and float((c / (a * a)).sum()) <= p_max):
        return 0.0
    r = np.sqrt(total / p_max)
    lo, hi = max(0.0, r - a[-1]), r
    mu = hi
    for _ in range(100):
        d = a + mu
        w = c / (d * d)
        P = float(w.sum())
        if P > p_max:
            lo = mu
        else:
            hi = mu
        if abs(P - p_max) <= 1e-14 * p_max or hi - lo <= 4e-16 * hi:
            break
        # h(mu) = P^-1/2 - p_max^-1/2 has h' = P^-3/2 sum_i c_i / (a_i + mu)^3
        mu -= (1.0 / np.sqrt(P) - 1.0 / np.sqrt(p_max)) * P * np.sqrt(P) / float((w / d).sum())
        if not lo < mu < hi:
            mu = 0.5 * (lo + hi)
    return mu


def _sensing_multiplier(point, deficit0, target, offset, lam):
    """The precoders of the smallest lam > 0 whose KKT point ``point(lam)``
    has deficit <= target, given the deficit0 > target at lam = 0; None
    when no lam up to 4^200 times the start ``lam`` meets it.

    The bracket grows by 4 from ``lam`` until its top meets the target.
    The deficit minus ``offset``, S(lam), falls as lam grows, and 1/sqrt(S)
    is nearly linear in lam (the g-component of each W_j falls like 1/lam),
    so the bracket is then cut at the secant root of 1/sqrt(S) =
    1/sqrt(target - offset), with the Illinois rule against a stuck end, or
    at its midpoint when that root is not inside.
    """
    def y(deficit):
        s = deficit - offset
        return 1.0 / np.sqrt(s) if s > 0.0 else np.inf

    lo, y_lo = 0.0, y(deficit0)
    for _ in range(200):
        W, deficit, _ = point(lam)
        if deficit <= target:
            break
        lo, y_lo, lam = lam, y(deficit), 4.0 * lam
    else:
        return None
    if target <= offset:
        return W
    hi, y_star = lam, y(target)
    f_lo, f_hi = y_lo - y_star, y(deficit) - y_star
    side = 0
    for _ in range(100):
        if f_hi <= 1e-12 * y_star or hi - lo <= 1e-12 * hi:
            break
        mid = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < mid < hi:
            mid = 0.5 * (lo + hi)
        W_mid, deficit, _ = point(mid)
        f = y(deficit) - y_star
        if deficit <= target:
            hi, f_hi, W = mid, f, W_mid
            if side == 1:
                f_lo *= 0.5
            side = 1
        else:
            lo, f_lo = mid, f
            if side == -1:
                f_hi *= 0.5
            side = -1
    return W


def solve_precoder_subproblem(sub):
    """Maximize the surrogate WSR over the power ball with the SINR deficit
    <= 0, in closed form (KKT).

    The maximizer is W_j = (Q + mu I + lam gamma0 g g^H)^-1 w_j L_j, with
    Q = ``sub.quad_sum`` and w_j L_j = ``sub._grad_lin[j]``.  At a given lam
    one ``eigh`` of Q + lam gamma0 g g^H gives the power multiplier mu
    (``_power_multiplier``).  lam = 0 unless that point's scaled deficit
    exceeds TOL_FEAS / 2; the deficit then falls as lam grows, and
    ``_sensing_multiplier`` finds the smallest lam that meets TOL_FEAS / 2.
    Aiming at half the tolerance leaves the other half to the rounding of
    other evaluations of the deficit, such as the AO block gate's.  If the
    result's surrogate is below that of a feasible expansion point
    (rounding, near a stationary point), the expansion point is returned
    instead, so the SCA loop around the solve stays monotone.
    """
    tol = TOL_FEAS * sub.sinr_deficit_scale
    if sub._deficit_offset > tol:
        raise InfeasibleSubproblemError("sensing constraint infeasible at zero precoder power")
    K, n_t, n_u = sub.W0.shape
    lin = sub._grad_lin.transpose(1, 0, 2).reshape(n_t, K * n_u)
    gg = sub.gamma0 * np.outer(sub.g, sub.g.conj())

    def point(lam):
        """(W, deficit, a_max + mu) of the KKT point at lam."""
        a, U = metrics.eigh(sub.quad_sum + lam * gg)
        a = np.maximum(a, 0.0)
        Y = U.conj().T @ lin
        c = (Y.real * Y.real + Y.imag * Y.imag).sum(axis=1)
        d = a + _power_multiplier(a, c, sub.p_max)
        inv = np.divide(1.0, d, out=np.zeros_like(d), where=d > 0.0)
        W = np.ascontiguousarray(
            (U @ (Y * inv[:, None])).reshape(n_t, K, n_u).transpose(1, 0, 2))
        return W, sub.deficit(W), d[-1]

    W, deficit, curv = point(0.0)
    if deficit > 0.5 * tol:
        # start lam where its term matches the curvature of the lam = 0 point
        W = _sensing_multiplier(point, deficit, 0.5 * tol, sub._deficit_offset,
                                curv / float(np.real(np.trace(gg))))
    W0 = sub.W0
    # a previous solve's power can exceed p_max by rounding
    if sub.deficit(W0) <= tol and np.sum(np.abs(W0) ** 2) <= sub.p_max * (1.0 + 1e-12):
        if W is None:
            W = W0
        else:
            f_new, f_old = sub.surrogate_and_grad(np.stack((W, W0)))[0]
            if f_new < f_old:
                W = W0
    if W is None:
        raise InfeasibleSubproblemError("no feasible precoder found")
    return [W[k] for k in range(K)]


class CovarianceSubproblem:
    """Concave surrogate for the sensing-covariance update.

    ``model`` is a stack's interference model at its current precoders:
    (C, C_own, deficit_offset), C the users' stacked beam-free interference
    plus noise, C_own that plus each user's own signal, and the V-independent
    part of the SINR deficit.  The rate bounds linearize the subtracted
    log-det at V0; the rank-1 penalty uses the leading eigenpair of V0.
    """

    def __init__(self, channels, V0, weights, gamma0, u, zeta, model):
        self.K = len(channels.H)
        self.V0 = 0.5 * (np.asarray(V0, dtype=complex) + np.asarray(V0, dtype=complex).conj().T)
        ev, vecs = metrics.eigh(self.V0)
        if ev[0] < -1e-10:
            raise ContractViolation("expansion covariance must be PSD")
        self.weights = np.asarray(weights, dtype=float)
        self.zeta = float(zeta)
        self.sinr_deficit_scale = metrics.sinr_deficit_scale(channels, gamma0)
        self.g = channels.G.conj().T @ np.asarray(u, dtype=complex)
        self._g_conj = self.g.conj()
        self.lead_vec = vecs[:, -1]
        self._lead_conj = self.lead_vec.conj()
        base, self.offs, self._deficit_offset = model

        # the Taylor coefficient of the subtracted log-det at V0, per user
        self.H = np.stack(channels.H)
        self.HH = self.H.conj().transpose(0, 2, 1)
        B0 = base + self.H @ self.V0 @ self.HH
        self.c0, _ = metrics.logdet_hpd(B0)
        self.taylor = self.HH @ np.linalg.solve(B0, self.H)
        self._pen_grad = self.zeta * (np.outer(self.lead_vec, self._lead_conj)
                                      - np.eye(self.V0.shape[0], dtype=complex))

    def _bounds(self, V):
        """Per-user bounds and the stacked B_k = offs_k + H_k V H_k^H, with
        the users on the last axis before the matrices; V may be a stack."""
        Vk = V[..., None, :, :]
        B = self.offs + self.H @ Vk @ self.HH
        ld, _ = metrics.logdet_hpd(B)
        tr = (self.taylor @ (Vk - self.V0)).trace(0, -2, -1).real
        return ld - self.c0 - tr, B

    def bound_values(self, V):
        """Per-user rate lower bounds at covariance V."""
        return self._bounds(np.asarray(V, dtype=complex))[0]

    def penalty(self, V):
        """Linearized rank-1 reward: beta_max lower bound minus the trace."""
        lead = metrics.row_dot(self._lead_conj @ V, self.lead_vec)
        return lead.real - V.trace(0, -2, -1).real

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
        weighted = bounds * self.weights
        val = self.zeta * self.penalty(V)
        for k in range(self.K):
            val = val + weighted[..., k]

        def grad(i=()):
            dgrad = self.HH @ metrics.solve(B[i], self.H) - self.taylor
            g = self._pen_grad + self.weights[0] * dgrad[0]
            for k in range(1, self.K):
                g += self.weights[k] * dgrad[k]
            return 0.5 * (g + g.conj().T)
        return val, grad

    def deficit(self, V):
        """SINR deficit at one covariance or at each matrix of a stack."""
        gVg = metrics.row_dot(self._g_conj @ V, self.g)
        return self._deficit_offset - gVg.real


def _sensing_fw_direction(V, G, g, c):
    """The FW direction S - V of the covariance solve: S maximizes <G, S>
    over {S >= 0, Tr S <= 1, g^H S g >= c}.

    With c <= 0 the constraint is void: S = x x^H for the top eigenpair
    (a_max, x) of G, or 0 where a_max <= 0 (None if V = 0 too).  Otherwise
    the constraint is affine in S, so a rank-one S solves the linear
    program (Pataki, 1998): x x^H where a_max >= 0 and |g^H x|^2 >= c; else
    y y^H with y = (theta I - G)^-1 g, the top eigenvector of G + lam g g^H
    for a multiplier lam > 0, and theta > a_max the root of r(theta) =
    |g^H y|^2 / ||y||^2 = c.  r rises from the weight of g on the top
    eigenspace of G toward ||g||^2; Newton steps in t = theta - a_max are
    kept in a bracket (a step that leaves it is a bisection).  Where a_max
    < 0 and r(0) >= c, the root is at theta <= 0 and the trace bound is
    slack: S = (c / r(0)) y y^H with y at theta = 0.  Raises
    InfeasibleSubproblemError where ||g||^2 <= c.
    """
    vals, vecs = metrics.eigh(0.5 * (G + G.conj().T))
    x = vecs[:, -1]
    a_max = vals[-1]
    if c <= 0.0:
        if a_max > 0.0:
            return x[:, None] * x.conj() - V
        return -V if float(np.real(np.trace(V))) > 0.0 else None
    if a_max >= 0.0 and abs(np.vdot(x, g)) ** 2 >= c:
        return x[:, None] * x.conj() - V
    b = vecs.conj().T @ g
    w = b.real * b.real + b.imag * b.imag
    total = float(w.sum())
    if total <= c:
        raise InfeasibleSubproblemError("sensing constraint unreachable on the trace ball")
    d = a_max - vals

    def ratio(t):
        """(r, dr/dt, e) at theta = a_max + t; y = U (e * U^H g) up to scale."""
        e = t / (t + d)
        we = w * e
        A, B, C = float(we.sum()), float(we @ e), float((we * e) @ e)
        return A * A / B, 2.0 * A * (A * C - B * B) / (t * B * B), e

    lo, trace = max(0.0, -a_max), 1.0
    r, _, e = ratio(lo) if lo > 0.0 else (0.0, None, None)
    if r >= c:
        trace = c / r
    else:
        # r >= total t / (t + d_max), so r(hi) >= c
        t = hi = max(lo, d[0] * c / (total - c)) if d[0] > 0.0 else 1.0
        for _ in range(100):
            r, dr, e = ratio(t)
            if r >= c:
                hi = t
            else:
                lo = t
            if abs(r - c) <= 1e-13 * c or hi - lo <= 1e-13 * hi:
                break
            t = t - (r - c) / dr if dr > 0.0 else lo
            if not lo < t < hi:
                t = 0.5 * (lo + hi)
    y = vecs @ (b * e)
    y = y / np.linalg.norm(y)
    return trace * (y[:, None] * y.conj()) - V


# trials in the first stack of a covariance ascent's first gradient try
# when it starts on the sensing boundary.  That try starts at the fixed
# PGA_STEP0; over the mc-trend pool (tools/ls_trials.py) 1,354 of the 1,559
# such tries adopt past trial 2, mostly at trials 30-32 (743), while 407 of
# the 417 tries from a slack point adopt at trial 1 and keep a first stack
# of 2, as every other try does
BOUNDARY_STACK = 32


def solve_covariance_subproblem(sub):
    """Maximize the penalized covariance surrogate over {V>=0, Tr<=1, deficit<=0}.

    One feasible ascent (``_pga_ascent``) on the surrogate itself; a
    candidate whose scaled deficit exceeds TOL_FEAS has the objective NaN,
    which rejects it.  The deficit is taken first, so the objective is
    evaluated on the stack of the feasible candidates only, and not at all
    when none is; a vetoed candidate's gradient, if asked for, is taken on
    its own.  The first gradient try evaluates its first BOUNDARY_STACK
    trials together where the ascent point is on the sensing boundary
    (scaled deficit > 0), 2 from a slack point.  The FW oracle
    (``_sensing_fw_direction``) returns the best point of the whole
    feasible set at half the tolerance, the other half left to rounding as
    in the precoder solve, so its candidates are convex combinations of
    feasible points and the ascent slides along the sensing boundary.  The
    ascent starts at the projected expansion point, or at the oracle's
    point there if that breaks the constraint; the oracle raises
    InfeasibleSubproblemError where no point meets it.  Every iterate is
    feasible and none lowers the surrogate, so the one SCA round of a
    sensing-beam visit (``ao.sense_beam``) is an ascent step.
    """
    scale = sub.sinr_deficit_scale
    c = sub._deficit_offset - 0.5 * TOL_FEAS * scale

    def kap(V):
        return sub.deficit(V) / scale

    def fw_oracle(V, G):
        return _sensing_fw_direction(V, G, sub.g, c)

    V = psd_trace_project(sub.V0)
    if kap(V) > TOL_FEAS:
        V = V + fw_oracle(V, sub.objective_and_grad(V)[1]())
        if kap(V) > TOL_FEAS:
            raise InfeasibleSubproblemError("the oracle's start point is infeasible")

    def value_grad(X):
        ok = (kap(X) <= TOL_FEAS).nonzero()[0]
        if ok.size == len(X):
            return sub.objective_and_grad(X)
        f = np.full(len(X), np.nan)
        if ok.size:
            f[ok], grad_ok = sub.objective_and_grad(X[ok])

        def grad(i):
            j = ok.searchsorted(i)
            if j < ok.size and ok[j] == i:
                return grad_ok(j)
            return sub.objective_and_grad(X[i])[1]()
        return f, grad

    value_grad.cold_stack = lambda V: BOUNDARY_STACK if kap(V) > 0.0 else 2
    return _pga_ascent(V, value_grad, psd_trace_project, PGA_STEP0, PGA_ITERS, PGA_TAU,
                       ARMIJO, COV_REL_TOL, MAX_BACKTRACKS, fw_oracle=fw_oracle)
