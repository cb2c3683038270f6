"""Geometric entities and near-field channel construction.

All positions are 3-vectors in meters in a global Cartesian frame.  The base
station transmit array lives in the z=0 plane inside a square region, the
receive array is a fixed ULA parallel to the x-axis, and each user's movable
antennas live in a square region parallel to the xy-plane at fixed z.

Channel entries are spherical-wave phase factors scaled by a path-loss
amplitude: phases depend only on exact point-to-point distances, so every
function here is a pure function of coordinates.

The channel builders and ``move_array`` also take a stack of candidate
positions (a leading candidate axis); every channel the moved array enters
then carries that axis, and each candidate's entries are exactly those of
its own 2-D call.  ``candidate`` takes one candidate out of such a stack.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, ScenarioError

TWO_PI = 2.0 * np.pi
FOUR_PI = 4.0 * np.pi

_channel_tag = itertools.count(1)


def vec3(x, y, z):
    """Build a 3-vector position (meters)."""
    p = np.array([x, y, z], dtype=float)
    if not np.all(np.isfinite(p)):
        raise GeometryError(f"non-finite position {p}")
    return p


def unit_phase(dist, lam):
    """exp(j*2*pi*dist/lam) with the phase reduced mod 2*pi first.

    Distances run to thousands of wavelengths here, so the fractional part
    of d/lam is extracted in extended precision before exponentiation:
    phase accuracy is what bounds the finite-difference agreement of every
    position gradient, and a double-rounded d loses ~4e-12 rad at 30 m.
    """
    frac = np.mod(np.asarray(dist, dtype=np.longdouble) / np.longdouble(lam), 1.0)
    return np.exp(1j * TWO_PI * frac.astype(float))


def _extended_distances(a, b):
    diff = (a[..., :, None, :].astype(np.longdouble)
            - b[..., None, :, :].astype(np.longdouble))
    return np.sqrt(np.sum(diff * diff, axis=-1))


def pairwise_distances(a, b):
    """Distances between every row of ``a`` (..., n, 3) and every row of
    ``b`` (..., m, 3), shape (..., n, m)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    diff = a[..., :, None, :] - b[..., None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))      # np.linalg.norm(diff, axis=-1)


def chain_xy(core, diff):
    """Chain-rule tail of a position gradient: Im sum_j core[i, j] * diff[i, j, a]
    for a = x, y, shape (n, 2).

    ``core`` (n, m) is the complex sensitivity to each distance divided by
    it, ``diff`` (n, m, 2) the xy offsets of the moving points from their
    counterparts.
    """
    # C order keeps each sum on a contiguous axis, in numpy's pairwise
    # order; a sum over a strided axis rounds differently from m = 8 on
    prod = np.multiply(core[:, None, :], diff.transpose(0, 2, 1), order="C")
    return prod.sum(axis=-1).imag


def target_term(scenario, placement, channels, u, M):
    """xy gradient over the BS transmit antennas of u^H G M G^H u through
    the transmit response f_t of G, shape (n_t, 2): the sensing-channel
    term of a BS SINR-deficit gradient, M the stack's precoder covariance
    term minus the beam's."""
    e = np.vdot(channels.f_r, u) * (u.conj() @ channels.G @ M)   # (n_t,)
    t = placement.t
    s = scenario.target
    d_s = np.linalg.norm(t - s[None, :], axis=1)
    diff = t[:, :2] - s[None, :2]
    core = e * channels.f_t / d_s
    pref = -FOUR_PI * channels.rho_s / scenario.lam
    return pref * np.imag(core[:, None] * diff)


def user_geometry(placement, channels, k):
    """User k's channel phases, distances (user by BS) and xy offsets of its
    antennas from the BS antennas: the ``geo`` of user k's gradients."""
    phases = channels.H[k] / channels.rho[k]
    dist = pairwise_distances(placement.q[k], placement.t)
    diff_user = placement.q[k][:, None, :2] - placement.t[None, :, :2]
    return phases, dist, diff_user


def bs_geometry(placement, channels):
    """Per user: the stacked-channel columns, phases, distances (both BS by
    user) and xy offsets of the BS antennas from the user's: the ``geo`` of
    the BS gradients."""
    t = placement.t
    # every user's distances from one call; each entry is elementwise
    dist = pairwise_distances(np.concatenate(placement.q), t).T
    geo = []
    for k, Hk in enumerate(channels.H):
        n_u = Hk.shape[0]
        cols = slice(k * n_u, (k + 1) * n_u)
        phases = Hk / channels.rho[k]
        diff = t[:, None, :2] - placement.q[k][None, :, :2]
        geo.append((cols, phases.T, dist[:, cols], diff))
    return geo


@dataclass(frozen=True)
class SquareRegion:
    """Axis-aligned square movement region parallel to the xy-plane.

    ``center`` is the region center; ``side`` the edge length.  z is fixed at
    ``center[2]`` for every point of the region.
    """

    center: np.ndarray
    side: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if not self.side > 0:
            raise ScenarioError(f"region side must be positive, got {self.side}")

    @property
    def z(self):
        return float(self.center[2])

    def bounds(self):
        """(x_min, x_max, y_min, y_max)."""
        cx, cy = self.center[0], self.center[1]
        h = self.side / 2.0
        return cx - h, cx + h, cy - h, cy + h

    def contains(self, p, tol=1e-12):
        x_min, x_max, y_min, y_max = self.bounds()
        return (
            x_min - tol <= p[0] <= x_max + tol
            and y_min - tol <= p[1] <= y_max + tol
            and abs(p[2] - self.z) <= tol
        )


@dataclass(frozen=True)
class Scenario:
    """Immutable system geometry and physics."""

    lam: float                      # wavelength (m)
    n_t: int                        # BS transmit movable antennas
    n_r: int                        # BS receive ULA elements
    n_users: int
    n_u: int                        # movable antennas per user
    tx_region: SquareRegion
    rx_mid: np.ndarray              # ULA midpoint
    rx_len: float                   # ULA end-to-end length (m)
    user_regions: tuple
    target: np.ndarray
    noise_user: np.ndarray          # per-user noise power sigma_k^2 (W)
    noise_radar: float              # radar receive noise power sigma_z^2 (W)
    p_max: float                    # transmit power budget (W)
    gamma0: float                   # minimum sensing SINR
    d_min: float                    # minimum inter-antenna spacing (m)
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rx_mid", np.asarray(self.rx_mid, dtype=float))
        object.__setattr__(self, "target", np.asarray(self.target, dtype=float))
        object.__setattr__(self, "user_regions", tuple(self.user_regions))
        object.__setattr__(
            self, "noise_user", np.broadcast_to(
                np.asarray(self.noise_user, dtype=float), (self.n_users,)
            ).copy()
        )
        object.__setattr__(
            self, "weights", np.broadcast_to(
                np.asarray(self.weights, dtype=float), (self.n_users,)
            ).copy()
        )
        self.validate()

    def validate(self):
        if self.n_t < 1:
            raise ScenarioError("need at least one transmit antenna")
        if self.n_r < 2:
            raise ScenarioError("ULA spacing formula needs n_r >= 2")
        if len(self.user_regions) != self.n_users:
            raise ScenarioError("one movement region per user required")
        if np.any(self.weights < 0):
            raise ScenarioError("rate weights must be non-negative")
        if not self.gamma0 >= 0:
            raise ScenarioError("gamma0 must be non-negative")
        if not self.d_min > 0:
            raise ScenarioError("d_min must be positive")
        if np.any(self.noise_user <= 0) or self.noise_radar <= 0:
            raise ScenarioError("noise powers must be positive")
        if not self.p_max > 0:
            raise ScenarioError("p_max must be positive")


@dataclass(frozen=True)
class Placement:
    """Current movable-antenna coordinates.

    ``t`` is the (n_t, 3) BS transmit array (z = 0); ``q`` holds one
    (n_u, 3) array per user, each at the fixed z of its region.
    """

    t: np.ndarray
    q: tuple

    def __post_init__(self):
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
        object.__setattr__(self, "q", tuple(np.asarray(qk, dtype=float) for qk in self.q))

    def with_t(self, t):
        return Placement(t, self.q)

    def with_q(self, k, qk):
        q = list(self.q)
        q[k] = qk
        return Placement(self.t, q)

    def array(self, k):
        """Positions of the BS transmit array (``k`` None) or of user k."""
        return self.t if k is None else self.q[k]

    def validate(self, scenario, tol=1e-9):
        if self.t.shape != (scenario.n_t, 3):
            raise ScenarioError(f"t has shape {self.t.shape}")
        for m in range(scenario.n_t):
            if not scenario.tx_region.contains(self.t[m], tol):
                raise ScenarioError(f"transmit antenna {m} outside its region")
        if not min_spacing_ok(self.t, scenario.d_min * (1 - 1e-9)):
            raise ScenarioError("transmit antennas violate minimum spacing")
        if len(self.q) != scenario.n_users:
            raise ScenarioError("placement user count mismatch")
        for k, qk in enumerate(self.q):
            if qk.shape != (scenario.n_u, 3):
                raise ScenarioError(f"q[{k}] has shape {qk.shape}")
            for b in range(scenario.n_u):
                if not scenario.user_regions[k].contains(qk[b], tol):
                    raise ScenarioError(f"user {k} antenna {b} outside its region")
            if not min_spacing_ok(qk, scenario.d_min * (1 - 1e-9)):
                raise ScenarioError(f"user {k} antennas violate minimum spacing")


@dataclass(frozen=True)
class ChannelSet:
    """Channel matrices derived from a placement.

    ``tag`` increases monotonically with every build; consumers that cache
    derived quantities (e.g. the ZF precoder) compare tags to detect staleness.
    """

    H: tuple                    # per-user (n_u, n_t) complex channels
    G: np.ndarray               # (n_r, n_t) rank-1 sensing channel
    f_t: np.ndarray             # transmit near-field response (n_t,)
    f_r: np.ndarray             # receive near-field response (n_r,)
    rho: np.ndarray             # per-user path-loss amplitudes
    rho_s: float                # round-trip sensing amplitude
    noise_user: np.ndarray      # carried along for metric evaluation
    noise_radar: float
    tag: int = field(default_factory=lambda: next(_channel_tag))

    def moved(self, H, G=None, f_t=None):
        """These channels with H (and G and f_t, if given) replaced and a
        fresh tag.  Built directly: ``dataclasses.replace`` costs about three
        times as much, and every line search stack and adopted candidate
        makes one."""
        return ChannelSet(H, self.G if G is None else G, self.f_t if f_t is None else f_t,
                          self.f_r, self.rho, self.rho_s, self.noise_user, self.noise_radar)


def receive_ula_positions(scenario):
    """Positions of the fixed receive ULA elements.

    Elements are equally spaced on a line parallel to the x-axis through the
    ULA midpoint, spanning ``rx_len`` end to end.
    """
    if scenario.n_r < 2:
        raise ScenarioError("ULA needs at least two elements")
    n = np.arange(scenario.n_r, dtype=float)
    x = scenario.rx_mid[0] - scenario.rx_len / 2.0 + n * scenario.rx_len / (scenario.n_r - 1)
    out = np.tile(scenario.rx_mid, (scenario.n_r, 1))
    out[:, 0] = x
    return out


def path_loss_comm(o_t, o_k, lam):
    """Free-space path-loss amplitude lam^2 / (4*pi*d)^2 between array centers."""
    d = float(np.linalg.norm(np.asarray(o_t, dtype=float) - np.asarray(o_k, dtype=float)))
    if d == 0.0:
        raise GeometryError("BS and user centers coincide")
    return lam**2 / (4.0 * np.pi * d) ** 2


def path_loss_sense(o_t, o_r, s, lam):
    """Round-trip sensing amplitude lam^2 / ((4*pi)^3 R_t^2 R_r^2)."""
    r_t = float(np.linalg.norm(np.asarray(o_t, dtype=float) - np.asarray(s, dtype=float)))
    r_r = float(np.linalg.norm(np.asarray(o_r, dtype=float) - np.asarray(s, dtype=float)))
    if r_t == 0.0 or r_r == 0.0:
        raise GeometryError("target coincides with an array center")
    return lam**2 / ((4.0 * np.pi) ** 3 * r_t**2 * r_r**2)


def build_user_channel(t, q_k, rho_k, lam):
    """Spherical-wave channel H_k with H_k[b, m] = rho_k * e^{j 2 pi |t_m - q_kb| / lam};
    a stack of t or q_k gives a stack of channels."""
    if not rho_k > 0:
        raise GeometryError(f"path loss must be positive, got {rho_k}")
    d = _extended_distances(np.asarray(q_k, dtype=float), np.asarray(t, dtype=float))
    if np.any(d == 0.0):
        raise GeometryError("transmit antenna coincides with a user antenna")
    return rho_k * unit_phase(d, lam)


def _response(points, s, lam):
    """Near-field response of an array (..., n, 3) toward the point s, (..., n)."""
    d = _extended_distances(np.asarray(points, dtype=float),
                            np.asarray(s, dtype=float).reshape(1, 3))[..., 0]
    if np.any(d == 0.0):
        raise GeometryError("target coincides with an antenna")
    return unit_phase(d, lam)


def _echo(f_r, f_t, rho_s):
    """Rank-1 echo channel rho_s f_r f_t^H, stacked along f_t's leading axes."""
    return rho_s * (f_r[:, None] * f_t.conj()[..., None, :])


def build_sensing_channel(t, rx_positions, s, rho_s, lam):
    """Near-field response vectors f_t, f_r and the rank-1 echo channel G."""
    f_r = _response(rx_positions, s, lam)
    f_t = _response(t, s, lam)
    return f_t, f_r, _echo(f_r, f_t, rho_s)


def _transmit_side(scenario, placement, rho):
    """Every user's H_k and the transmit response f_t of the placement's BS
    array (a stack if it is one), from one distance and one phase call over
    all user antennas and the target.  Both are elementwise, so each entry
    is exactly that of ``build_user_channel`` or ``_response``."""
    for rho_k in rho:
        if not rho_k > 0:
            raise GeometryError(f"path loss must be positive, got {rho_k}")
    points = np.concatenate(placement.q + (scenario.target[None, :],))
    d = _extended_distances(points, placement.t)
    zero = d == 0.0
    if zero.any():
        if zero[..., :-1, :].any():
            raise GeometryError("transmit antenna coincides with a user antenna")
        raise GeometryError("target coincides with an antenna")
    phases = unit_phase(d, scenario.lam)
    H, start = [], 0
    for q_k, rho_k in zip(placement.q, rho):
        H.append(rho_k * phases[..., start:start + len(q_k), :])
        start += len(q_k)
    return tuple(H), phases[..., -1, :]


def build_channels(scenario, placement):
    """Assemble the full ChannelSet for a placement.

    Path-loss amplitudes use the region-center distances, so they are
    constants of the scenario; antenna moves only change phases.  A
    placement whose BS array is a stack of candidates (c, n_t, 3) gives
    stacked channels.
    """
    lam = scenario.lam
    o_t = scenario.tx_region.center
    rho = np.array([
        path_loss_comm(o_t, region.center, lam) for region in scenario.user_regions
    ])
    rho_s = path_loss_sense(o_t, scenario.rx_mid, scenario.target, lam)
    H, f_t = _transmit_side(scenario, placement, rho)
    f_r = _response(receive_ula_positions(scenario), scenario.target, lam)
    return ChannelSet(
        H=H, G=_echo(f_r, f_t, rho_s), f_t=f_t, f_r=f_r, rho=rho, rho_s=rho_s,
        noise_user=scenario.noise_user.copy(), noise_radar=scenario.noise_radar,
    )


def rebuild_user_channel(scenario, channels, placement, k):
    """ChannelSet with only user k's matrix refreshed (BS antennas unchanged)."""
    H = list(channels.H)
    H[k] = build_user_channel(placement.t, placement.q[k], channels.rho[k], scenario.lam)
    return channels.moved(tuple(H))


def move_array(scenario, placement, channels, k, positions):
    """(placement, channels) with one array moved to ``positions``: the BS
    transmit array (``k`` None) rebuilds H, f_t and G, taking f_r, the path
    losses and the noise powers from ``channels``; user k's array only H_k.

    A stack of positions (c, n, 3) moves c candidates at once: the moved
    array and the channels rebuilt from it carry the leading axis, and
    ``candidate`` takes one out.
    """
    if k is not None:
        placement = placement.with_q(k, positions)
        return placement, rebuild_user_channel(scenario, channels, placement, k)
    placement = placement.with_t(positions)
    H, f_t = _transmit_side(scenario, placement, channels.rho)
    return placement, channels.moved(H, _echo(channels.f_r, f_t, channels.rho_s), f_t)


def candidate(placement, channels, k, i):
    """Candidate i of a stack from ``move_array`` on array ``k``: its own
    Placement and a ChannelSet with a fresh tag."""
    pos = placement.array(k)[i]
    if k is None:
        return placement.with_t(pos), channels.moved(
            tuple(Hj[i] for Hj in channels.H), channels.G[i], channels.f_t[i])
    H = list(channels.H)
    H[k] = H[k][i]
    return placement.with_q(k, pos), channels.moved(tuple(H))


def project_points_to_region(points, region):
    """Clamp each row's x and y independently to the region box; z is left
    unchanged.  A stack of point sets (..., n, 3) is clamped alike."""
    x_min, x_max, y_min, y_max = region.bounds()
    out = np.array(points, dtype=float)
    out[..., 0] = np.clip(out[..., 0], x_min, x_max)
    out[..., 1] = np.clip(out[..., 1], y_min, y_max)
    return out


def min_spacing_ok(positions, d_min):
    """True iff all pairwise distances within the array are >= d_min; a
    stack of arrays (c, n, 3) gives one bool per array."""
    pos = np.asarray(positions, dtype=float)
    d = pairwise_distances(pos, pos)
    # d is exactly symmetric (|a - b| and |b - a| round alike), so the
    # off-diagonal minimum is the minimum over the pairs
    n = pos.shape[-2]
    d.reshape(d.shape[:-2] + (n * n,))[..., ::n + 1] = np.inf      # the diagonals
    ok = d.min(axis=-1).min(axis=-1) >= d_min
    return bool(ok) if pos.ndim == 2 else ok
