"""Closed-form performance metrics for both precoding schemes.

Rates are computed and stored in nats; the experiment harness divides by
ln(2) when emitting figure-style outputs in bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        if m.ndim > 2:
            parts = [logdet_hpd(mi) for mi in m.reshape((-1,) + m.shape[-2:])]
            vals = np.array([p[0] for p in parts]).reshape(m.shape[:-2])
            return vals, any(p[1] for p in parts)
        n = m.shape[0]
        jitter = 1e-14 * float(np.real(np.trace(m))) / n
        try:
            chol = np.linalg.cholesky(m + jitter * np.eye(n))
        except np.linalg.LinAlgError as exc:
            raise NumericalError("matrix not positive definite even after jitter") from exc
        regularized = True
    ld = 2.0 * np.sum(np.log(np.real(np.diagonal(chol, axis1=-2, axis2=-1))), axis=-1)
    return (float(ld) if m.ndim == 2 else ld), regularized


def rate_lp_w(channels, W, v, k):
    """Achievable rate (nats) of user k under linear precoding."""
    Hk = channels.H[k]
    n_u = Hk.shape[0]
    C = channels.noise_user[k] * np.eye(n_u, dtype=complex)
    for u_idx, Wu in enumerate(W):
        if u_idx != k:
            S = Hk @ Wu
            C += S @ S.conj().T
    hv = Hk @ v
    C += np.outer(hv, hv.conj())
    S = Hk @ W[k]
    num, _ = logdet_hpd(C + S @ S.conj().T)
    den, _ = logdet_hpd(C)
    rate = num - den
    if not np.isfinite(rate):
        raise NumericalError(f"non-finite LP rate for user {k}")
    return rate


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
    echo leakage ||P^H G^H u||^2 to the denominator.
    """
    g = channels.G.conj().T @ u          # G^H u
    num = float(np.abs(np.vdot(g, v)) ** 2)
    den = channels.noise_radar * float(np.real(np.vdot(u, u)))
    for Wu in precoders:
        den += float(np.linalg.norm(Wu.conj().T @ g) ** 2)
    return num, den


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
    E = np.eye(A.shape[0], dtype=np.clongdouble) - Al @ Xl
    return np.asarray(Xl + Xl @ E, dtype=complex)


def zf_precoder(channels, p_max):
    """Zero-forcing precoder, its power-normalizing gain, and the refined
    inverse of the stacked Gram matrix H_e H_e^H both are built from.

    Raises RankDeficiencyError when cond(H_e H_e^H) exceeds 1e12; beyond
    that the gain is meaningless and silent regularization would hide it.
    """
    H_e = np.vstack(channels.H)
    kn, n_t = H_e.shape
    if kn > n_t:
        raise RankDeficiencyError(np.inf)
    A = H_e @ H_e.conj().T
    cond = float(np.linalg.cond(A))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise RankDeficiencyError(cond)
    A_inv = refined_hermitian_inverse(A)
    T = float(np.real(np.trace(A_inv)))
    gain = float(np.sqrt(p_max / T))
    P = gain * (H_e.conj().T @ A_inv)
    return P, gain, A_inv


def make_zf_state(channels, v, u, p_max):
    P, gain, gram_inv = zf_precoder(channels, p_max)
    return ZfState(v=np.asarray(v, dtype=complex), u=np.asarray(u, dtype=complex),
                   P=P, gain=gain, channel_tag=channels.tag, gram_inv=gram_inv)


def rate_zf(channels, zf_state, k):
    """ZF rate of user k: a function of its own channel, the common
    zero-forcing gain, the sensing beam, and its noise power only."""
    Hk = channels.H[k]
    n_u = Hk.shape[0]
    sigma = channels.noise_user[k]
    hv = Hk @ zf_state.v
    E = np.outer(hv, hv.conj()) + sigma * np.eye(n_u, dtype=complex)
    num, _ = logdet_hpd(E + zf_state.gain**2 * np.eye(n_u, dtype=complex))
    den, _ = logdet_hpd(E)
    rate = num - den
    if not np.isfinite(rate):
        raise NumericalError(f"non-finite ZF rate for user {k}")
    return rate


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
    return np.array([rate_lp(channels, lp_state, k) for k in range(len(channels.H))])


def zf_rates(channels, zf_state):
    return np.array([rate_zf(channels, zf_state, k) for k in range(len(channels.H))])
