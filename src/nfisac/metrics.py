"""Closed-form performance metrics for both precoding schemes.

Rates are computed and stored in nats; the experiment harness divides by
ln(2) when emitting figure-style outputs in bits.

The rates, the ZF precoder and the sensing SINR also take channels that
hold a stack of candidates (a leading axis, see ``geometry.move_array``)
and give one entry per candidate, each exactly the value of its own 2-D
call: matrix products and factorizations run per matrix of the stack, and
scalar products run per row (``row_dot``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# the LAPACK gufuncs behind np.linalg, called by eigh, cholesky and solve below
from numpy.linalg import _umath_linalg

from .errors import NumericalError, RankDeficiencyError

COND_LIMIT = 1e12


@dataclass
class LpState:
    """Linear-precoding optimization variables.

    W holds one (n_t, n_u) precoder per user; v and u are the unit-norm
    sensing transmit beamformer and receive combiner.
    """

    W: list
    v: np.ndarray
    u: np.ndarray

    @property
    def precoders(self):
        """The precoder list ``sinr`` and ``sinr_deficit`` take: W."""
        return self.W

    def at(self, channels, p_max):
        """The state on ``channels``: nothing in it depends on them."""
        return self

    def candidate(self, i, channels):
        """The state of candidate i of a stack: the same state."""
        return self

    def power(self):
        return float(sum(np.sum(np.abs(Wk) ** 2) for Wk in self.W))

    def copy(self):
        return LpState([Wk.copy() for Wk in self.W], self.v.copy(), self.u.copy())


@dataclass
class ZfState:
    """Zero-forcing optimization variables plus the derived precoder.

    ``channel_tag`` records which ChannelSet the precoder and gain were derived
    from; any antenna move invalidates them.  ``gram_inv`` is the refined
    inverse of the stacked Gram matrix H_e H_e^H they were built from, which
    the position gradients reuse.

    ``at`` on a stack of candidates' channels gives a state whose ``P``,
    ``gain`` and ``gram_inv`` carry the candidate axis.  Such a state only
    measures the stack (``precoders`` for the SINR, the rates); ``power``
    and ``copy`` are for one candidate, which ``candidate(i, channels)``
    takes out.
    """

    v: np.ndarray
    u: np.ndarray
    P: np.ndarray
    gain: float
    channel_tag: int
    gram_inv: np.ndarray

    @property
    def precoders(self):
        """The precoder list ``sinr`` and ``sinr_deficit`` take: (P,)."""
        return (self.P,)

    def at(self, channels, p_max):
        """The state on ``channels``, the precoder rebuilt if stale."""
        if self.channel_tag == channels.tag:
            return self
        return make_zf_state(channels, self.v, self.u, p_max)

    def candidate(self, i, channels):
        """Candidate i of a state built on a stack of channels, on that
        candidate's own ``channels``."""
        return ZfState(self.v, self.u, self.P[i], float(self.gain[i]), channels.tag,
                       self.gram_inv[i])

    def power(self):
        return float(np.sum(np.abs(self.P) ** 2))

    def copy(self):
        return ZfState(self.v.copy(), self.u.copy(), self.P.copy(),
                       self.gain, self.channel_tag, self.gram_inv)


@dataclass
class TraceRecord:
    """Per-block convergence bookkeeping."""

    iteration: int
    block: str
    wsr: float                  # nats
    gamma_s: float
    deficit: float
    power: float
    rates: tuple
    flags: tuple = ()


def row_dot(a, b):
    """a_i . b_i (no conjugation) over the last axis: for 1-D a and b the
    numpy scalar ``a @ b``, for a stack of rows one entry per row.

    Each row is its own (1, n) @ (n, 1) product, which numpy evaluates with
    the dot kernel of the 1-D ``a @ b``, so every entry has its bytes.
    ``b`` is one vector or a stack of rows like ``a``.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def row_norm2(r):
    """||r||^2 of a complex vector, or of each row of a stack, by the
    arithmetic of ``np.linalg.norm(r) ** 2`` (``np.float_power`` is libm
    pow, as ``** 2`` on a scalar takes it; x * x rounds differently)."""
    re, im = r.real, r.imag
    return np.float_power(np.sqrt(row_dot(re, re) + row_dot(im, im)), 2.0)


def _float(x):
    """A 0-d result as a float, a stacked one as it is."""
    return float(x) if np.ndim(x) == 0 else x


def _raiser(message):
    """An ``np.errstate`` call handler raising LinAlgError(message): a
    gufunc flags a failed matrix as an invalid value, and np.linalg turns
    that flag into its error the same way, so no NaN check is needed and no
    RuntimeWarning is emitted."""
    def handler(err, flag):
        raise np.linalg.LinAlgError(message)
    return handler


_NOT_PD = _raiser("Matrix is not positive definite")
_SINGULAR = _raiser("Singular matrix")


def eigh(a):
    """(eigenvalues, eigenvectors) of a complex Hermitian matrix or stack:
    the bytes of ``np.linalg.eigh(a)``, from the gufunc it calls, without
    its per-call wrapper (dtype checks, result conversion).

    It raises LinAlgError where ``np.linalg.eigh`` does, and also on a NaN
    eigenvalue, which a NaN input gives (``np.linalg.eigh`` returns it).
    """
    # a failed matrix comes back as NaN, which the check below catches
    with np.errstate(invalid="ignore"):
        vals, vecs = _umath_linalg.eigh_lo(a, signature="D->dD")
    if np.isnan(vals).any():
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return vals, vecs


def cholesky(a):
    """Lower Cholesky factor of a complex Hermitian matrix or stack, as
    ``np.linalg.cholesky(a)`` gives it (see ``eigh``); LinAlgError if a
    matrix is not positive definite."""
    with np.errstate(call=_NOT_PD, invalid="call"):
        return _umath_linalg.cholesky_lo(a, signature="D->D")


def solve(a, b):
    """``np.linalg.solve(a, b)`` for complex matrices (or stacks) a and b
    (see ``eigh``); LinAlgError if a matrix of a is singular."""
    with np.errstate(call=_SINGULAR, invalid="call"):
        return _umath_linalg.solve(a, b, signature="DD->D")


def logdet_hpd(m):
    """log-determinant of a Hermitian positive-definite matrix via Cholesky.

    Roundoff can push a theoretically PD argument slightly indefinite; in
    that case a symmetric 1e-14*trace/n jitter is added once and the result
    is flagged.  Returns (value, was_regularized).

    A (..., n, n) stack is factorized in one call and gives an array of
    values of shape (...), with the flag set if any slice was regularized.
    If any slice fails the stacked factorization, every slice is redone on
    its own, so each gets exactly the value and jitter of a 2-D call.
    """
    m = np.asarray(m)
    regularized = False
    try:
        chol = cholesky(m)
    except np.linalg.LinAlgError:
        if m.ndim > 2:
            parts = [logdet_hpd(mi) for mi in m.reshape((-1,) + m.shape[-2:])]
            vals = np.array([p[0] for p in parts]).reshape(m.shape[:-2])
            return vals, any(p[1] for p in parts)
        n = m.shape[0]
        jitter = 1e-14 * float(np.real(np.trace(m))) / n
        try:
            chol = cholesky(m + jitter * np.eye(n))
        except np.linalg.LinAlgError as exc:
            raise NumericalError("matrix not positive definite even after jitter") from exc
        regularized = True
    ld = 2.0 * np.log(chol.diagonal(0, -2, -1).real).sum(axis=-1)
    return (float(ld) if m.ndim == 2 else ld), regularized


def _users(k):
    """(users, one): the user indices of k, an index or a sequence of them."""
    one = np.ndim(k) == 0
    return ([k] if one else list(k)), one


def _stack(mats):
    """Matrices stacked on a new third-to-last axis, each broadcast over the
    candidate axis if any of them has one."""
    shape = max((m.shape for m in mats), key=len)
    out = np.empty(shape[:-2] + (len(mats),) + shape[-2:], dtype=complex)
    for i, m in enumerate(mats):
        out[..., i, :, :] = m
    return out


def _rates(num, den, one, what):
    """Rates num - den from one log-det over the per-user (num, den) matrix
    pairs: the users on the last axis, a float for one user of one
    candidate."""
    ld, _ = logdet_hpd(_stack(num + den))
    rate = ld[..., :len(num)] - ld[..., len(num):]
    if not np.all(np.isfinite(rate)):
        raise NumericalError(f"non-finite {what} rate")
    if one:
        rate = rate[..., 0]
    return float(rate) if rate.ndim == 0 else rate


def rate_lp_w(channels, W, v, k):
    """Achievable rate (nats) of user k under linear precoding.

    A sequence k gives those users' rates, from one log-det over users and
    candidates.
    """
    users, one = _users(k)
    num, den = [], []
    for j in users:
        Hk = channels.H[j]
        C = channels.noise_user[j] * np.eye(Hk.shape[-2], dtype=complex)
        for u_idx, Wu in enumerate(W):
            S = Hk @ Wu
            SS = S @ S.conj().swapaxes(-1, -2)
            if u_idx == j:
                own = SS
            else:
                C = C + SS
        hv = Hk @ v
        C = C + hv[..., :, None] * hv.conj()[..., None, :]
        num.append(C + own)
        den.append(C)
    return _rates(num, den, one, "LP")


def rate_lp(channels, lp_state, k):
    return rate_lp_w(channels, lp_state.W, lp_state.v, k)


def rate_lp_cov(channels, W, V, k):
    """LP rate with the sensing covariance V in place of v v^H."""
    Hk = channels.H[k]
    n_u = Hk.shape[0]
    C = channels.noise_user[k] * np.eye(n_u, dtype=complex)
    for u_idx, Wu in enumerate(W):
        if u_idx != k:
            S = Hk @ Wu
            C += S @ S.conj().T
    C += Hk @ V @ Hk.conj().T
    S = Hk @ W[k]
    num, _ = logdet_hpd(C + S @ S.conj().T)
    den, _ = logdet_hpd(C)
    return num - den


def sinr_parts(channels, precoders, v, u):
    """(numerator, denominator) of the sensing SINR.

    ``precoders`` is the LP list W or the ZF (P,); each precoder adds its
    echo leakage ||P^H G^H u||^2 to the denominator.  A stack of candidates
    (a leading axis on G or on a precoder) gives arrays; their scalar
    products and norms run per candidate (``row_dot``).
    """
    g = channels.G.conj().swapaxes(-1, -2) @ u          # G^H u
    # |g^H v|^2 by the arithmetic of np.abs(np.vdot(g, v)) ** 2
    num = np.float_power(np.abs(row_dot(g.conj(), v)), 2.0)
    den = channels.noise_radar * float(np.real(np.vdot(u, u)))
    for Wu in precoders:
        leak = (Wu.conj().swapaxes(-1, -2) @ g[..., None])[..., 0]
        den = den + row_norm2(leak)
    return _float(num), _float(den)


def sinr(channels, precoders, v, u):
    """Sensing SINR after receive combining (``sinr_parts``)."""
    num, den = sinr_parts(channels, precoders, v, u)
    val = num / den
    if not np.isfinite(val):
        raise NumericalError("non-finite sensing SINR")
    return val


def sensing_power(channels, v, u):
    """Echo power P_s = |u^H G v|^2."""
    return float(np.abs(u.conj() @ channels.G @ v) ** 2)


def refined_hermitian_inverse(A):
    """Inverse of a Hermitian matrix with one Newton-Schulz refinement step.

    The correction residual is accumulated in extended precision, which
    drops the forward error from cond(A)*eps to roughly machine epsilon.
    The ZF gain and precoder inherit that accuracy, which the
    finite-difference gradient checks (noise amplified by 1/2h) depend on.
    """
    X = np.linalg.inv(A)
    Al = A.astype(np.clongdouble)
    Xl = X.astype(np.clongdouble)
    E = np.eye(A.shape[-1], dtype=np.clongdouble) - Al @ Xl
    return np.asarray(Xl + Xl @ E, dtype=complex)


def zf_precoder(channels, p_max):
    """Zero-forcing precoder, its power-normalizing gain, and the refined
    inverse of the stacked Gram matrix H_e H_e^H both are built from.

    Raises RankDeficiencyError when cond(H_e H_e^H) exceeds 1e12; beyond
    that the gain is meaningless and silent regularization would hide it.
    On a stack of candidates the condition number is taken per candidate,
    and any one beyond the limit raises.
    """
    H = _stack(channels.H)                           # every user has n_u antennas
    H_e = H.reshape(H.shape[:-3] + (-1, H.shape[-1]))
    kn, n_t = H_e.shape[-2:]
    if kn > n_t:
        raise RankDeficiencyError(np.inf)
    A = H_e @ H_e.conj().swapaxes(-1, -2)
    sv = np.linalg.svd(A, compute_uv=False)
    with np.errstate(all="ignore"):
        cond = sv[..., 0] / sv[..., -1]              # np.linalg.cond, per candidate
    bad = ~(cond <= COND_LIMIT)
    if np.any(bad):
        raise RankDeficiencyError(float(cond[bad][0]))
    A_inv = refined_hermitian_inverse(A)
    T = np.real(np.trace(A_inv, axis1=-2, axis2=-1))
    gain = np.asarray(np.sqrt(p_max / T))
    P = gain[..., None, None] * (H_e.conj().swapaxes(-1, -2) @ A_inv)
    return P, (float(gain) if gain.ndim == 0 else gain), A_inv


def make_zf_state(channels, v, u, p_max):
    P, gain, gram_inv = zf_precoder(channels, p_max)
    return ZfState(v=np.asarray(v, dtype=complex), u=np.asarray(u, dtype=complex),
                   P=P, gain=gain, channel_tag=channels.tag, gram_inv=gram_inv)


def rate_zf(channels, zf_state, k):
    """ZF rate of user k: a function of its own channel, the common
    zero-forcing gain, the sensing beam, and its noise power only.

    A sequence k gives those users' rates, from one log-det over users and
    candidates.
    """
    users, one = _users(k)
    # libm pow, as a float gain ** 2 takes it: np.square (x * x) rounds
    # differently on about 1 in 1,200 uniform doubles in [0, 1)
    g2 = np.float_power(zf_state.gain, 2.0)[..., None, None]
    num, den = [], []
    for j in users:
        Hk = channels.H[j]
        eye = np.eye(Hk.shape[-2], dtype=complex)
        hv = Hk @ zf_state.v
        E = hv[..., :, None] * hv.conj()[..., None, :] + channels.noise_user[j] * eye
        num.append(E + g2 * eye)
        den.append(E)
    return _rates(num, den, one, "ZF")


def rate_zf_cov(channels, gain, V, k):
    """ZF rate with sensing covariance V in place of v v^H."""
    Hk = channels.H[k]
    n_u = Hk.shape[0]
    sigma = channels.noise_user[k]
    E = Hk @ V @ Hk.conj().T + sigma * np.eye(n_u, dtype=complex)
    num, _ = logdet_hpd(E + gain**2 * np.eye(n_u, dtype=complex))
    den, _ = logdet_hpd(E)
    return num - den


def sinr_deficit(channels, precoders, v, u, gamma0):
    """Reformulated sensing constraint gamma0 * den - num; it is <= 0 iff
    the sensing SINR is >= gamma0."""
    num, den = sinr_parts(channels, precoders, v, u)
    return gamma0 * den - num


def sinr_deficit_cov(channels, precoders, V, u, gamma0):
    """sinr_deficit with covariance V replacing v v^H (linear in V)."""
    g = channels.G.conj().T @ u
    val = gamma0 * channels.noise_radar * float(np.real(np.vdot(u, u)))
    for Wu in precoders:
        val += gamma0 * float(np.linalg.norm(Wu.conj().T @ g) ** 2)
    return val - float(np.real(g.conj() @ V @ g))


def sinr_deficit_scale(channels, gamma0):
    """Natural magnitude of the SINR deficit, making feasibility unit-free.

    The deficit carries physical power units (its additive term is
    gamma0 * sigma_z^2 * ||u||^2, often ~1e-24 W), so absolute tolerances
    and ALM penalties are applied to deficit / sinr_deficit_scale.
    """
    s = gamma0 * channels.noise_radar
    return s if s > 0 else 1.0


def lp_rates(channels, lp_state):
    return rate_lp_w(channels, lp_state.W, lp_state.v, range(len(channels.H)))


def zf_rates(channels, zf_state):
    return rate_zf(channels, zf_state, range(len(channels.H)))
