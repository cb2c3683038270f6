"""Experiment orchestration: scenario construction, Monte-Carlo trials,
figure-style presets, and CSV/JSON emission.

Reproducibility policy: every trial draws from a Philox counter-based
generator keyed by (seed, trial index), so results are independent of
execution order and worker count, and FIX/MA variants of the same trial
share the identical initial placement.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import geometry, lp, metrics, verify, zf
from .errors import ConfigError, NfIsacError, PlacementError
from .params import AlgoParams

LN2 = math.log(2.0)

SCHEMES = ("LP-MA", "ZF-MA", "LP-FIX", "ZF-FIX")
# preset -> (the ExperimentConfig field a sweep point sets, the default grid
# of a config); gradcheck sweeps nothing
SWEEPS = {
    "convergence": ("dtk", lambda cfg: [10.0, 20.0, 30.0]),
    "weights": ("w1", lambda cfg: [0.1, 0.3, 0.5, 0.7, 0.9]),
    "power": ("p_max", lambda cfg: [0.1, 0.25, 0.5, 1.0]),
    "nk": ("n_u", lambda cfg: [1, 2, 3, 4]),
    "gamma0": ("gamma0", lambda cfg: [cfg.gamma0, 10.0 * cfg.gamma0]),
    "gradcheck": (None, lambda cfg: [0.0]),
}
PRESETS = tuple(SWEEPS)

CSV_HEADER = "preset,scheme,sweep,trial,seed,wsr_bits,gamma_s,ps_db,iters,wall_ms"
TRACE_HEADER = "preset,scheme,sweep,trial,seed,iteration,block,wsr_bits,gamma_s,sinr_deficit,power"
GRADCHECK_HEADER = "check,config,coord,analytic,fd,abs_err,rel_err,passed"

# Scale profiles.  "full" is the full-size reference setup; "desk" and
# "trend" shrink the arrays and move the noise floor so the sensing
# constraint is feasible and binding at desk runtimes (with the published
# -100 dB noise the echo is ~10 orders of magnitude below gamma0 * sigma_z^2
# under this channel-amplitude convention, so gamma_s >= gamma0 would be
# unreachable).  "trend" additionally uses N_t = K * N_u so the sensing
# beamformer cannot hide in the users' null space, which keeps the SINR
# constraint active and the gamma0 sweep informative.
PROFILES = {
    "full": dict(n_t=16, n_r=8, n_u=4, noise_user=1e-10,
                  noise_radar=1e-10, gamma0=1e-2, trials=50),
    "desk": dict(n_t=8, n_r=4, n_u=2, noise_user=1e-19,
                 noise_radar=1e-19, gamma0=1e-5, trials=20),
    "trend": dict(n_t=4, n_r=4, n_u=2, noise_user=1e-19,
                  noise_radar=1e-19, gamma0=1e-5, trials=20),
}

@dataclass
class ExperimentConfig:
    profile: str = "desk"
    preset: str = "convergence"
    schemes: tuple = ("LP-MA", "ZF-MA")
    trials: int = 20
    seed: int = 1
    out: str = "results.csv"
    format: str = "csv"
    workers: int = 0                    # 0 = auto
    n_t: int = 8
    n_r: int = 4
    n_u: int = 2
    lam: float = 0.01
    dtk: float = 30.0
    l_t: float = 1.0
    l_r: float = 1.0
    a_k: float = 0.15
    d_min: float = 0.005
    p_max: float = 1.0
    gamma0: float = 1e-5
    noise_user: float = 1e-19
    noise_radar: float = 1e-19
    w1: float = 0.5
    zeta: float = 1.0
    sweep: tuple = ()                   # empty = preset default grid
    gradcheck_configs: int = 5

    def validate(self):
        if self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}")
        if self.profile not in PROFILES:
            raise ConfigError(f"unknown profile {self.profile!r}")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ConfigError(f"unknown scheme {s!r}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.workers < 0:
            raise ConfigError("workers must be >= 0 (0 = auto)")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown output format {self.format!r}")
        if self.gradcheck_configs < 1:
            raise ConfigError("gradcheck_configs must be >= 1")
        if not 0.0 <= self.zeta < math.inf:
            raise ConfigError("zeta must be finite and >= 0")
        grid = self.sweep_grid()
        if not grid:
            raise ConfigError("sweep grid is empty")
        zf_scheme = any(s.startswith("ZF") for s in self.schemes)
        for point in (_at_sweep(self, s) for s in grid):
            if point.n_t < 1:
                raise ConfigError("n_t must be >= 1")
            if point.n_u < 1:
                raise ConfigError("n_u must be >= 1")
            if not 0.0 < point.lam < math.inf:
                raise ConfigError("lam must be finite and positive")
            if not 0.0 < point.p_max < math.inf:
                raise ConfigError("p_max must be finite and positive")
            if not 0.0 <= point.w1 <= 1.0:
                raise ConfigError("w1 must lie in [0, 1]")
            if not 0.0 < point.dtk < math.inf:
                raise ConfigError("dtk must be finite and positive")
            if not 0.0 <= point.gamma0 < math.inf:
                raise ConfigError("gamma0 must be finite and >= 0")
            if not 0.0 < point.d_min < math.inf:
                raise ConfigError("d_min must be finite and positive")
            # build_scenario places two users
            if zf_scheme and 2 * point.n_u > point.n_t:
                raise ConfigError(
                    f"ZF needs K*N_u <= N_t (got 2*{point.n_u} > {point.n_t})")

    def sweep_grid(self):
        if self.sweep:
            return list(self.sweep)
        return SWEEPS[self.preset][1](self)


# config-file key -> type of its value, read off the ExperimentConfig defaults
_CONFIG_FIELDS = {f.name: type(f.default) for f in fields(ExperimentConfig)}


def apply_profile(cfg, profile):
    values = PROFILES[profile]
    return replace(cfg, profile=profile, **values)


def parse_config_text(text):
    """Flat key = value lines; '#' starts a comment; unknown keys rejected."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        kind = _CONFIG_FIELDS[key]
        if kind is tuple:
            items = [v.strip() for v in value.split(",") if v.strip()]
            if key == "sweep":
                out[key] = tuple(float(v) for v in items)
            else:
                out[key] = tuple(items)
        elif kind is int:
            out[key] = int(value)
        elif kind is float:
            out[key] = float(value)
        else:
            out[key] = value
    return out


def load_config(path=None, overrides=None):
    """Resolve profile defaults, then config-file values, then CLI overrides."""
    values = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            values.update(parse_config_text(fh.read()))
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    profile = values.pop("profile", "desk")
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}")
    cfg = apply_profile(ExperimentConfig(), profile)
    try:
        cfg = replace(cfg, **values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    cfg.validate()
    return cfg


def build_scenario(cfg):
    """Deterministic Scenario from a config.

    The two users sit at distance dtk from the BS transmit region center in
    the +-pi/4 directions of the xz-plane, with their movement regions
    parallel to the xy-plane.
    """
    dtk, gamma0 = cfg.dtk, cfg.gamma0
    if not 0.0 < dtk < math.inf:
        raise ConfigError("dtk must be finite and positive")
    o_t = geometry.vec3(-3.0, 10.0, 0.0)
    o_r = geometry.vec3(3.0, 10.0, 0.0)
    centers = [
        geometry.vec3(-3.0 + dtk * math.sin(-math.pi / 4), 1.5,
                      dtk * math.cos(-math.pi / 4)),
        geometry.vec3(-3.0 + dtk * math.sin(math.pi / 4), 1.5,
                      dtk * math.cos(math.pi / 4)),
    ]
    target = geometry.vec3(10.0, 1.5, 10.0)
    # With G = rho_s f_r f_t^H, unit-modulus responses and unit u, v, the
    # sensing SINR is at most rho_s^2 n_r n_t / sigma_z^2 (all echo, no
    # interference); rho_s depends only on the region centres.
    rho_s = geometry.path_loss_sense(o_t, o_r, target, cfg.lam)
    echo_max = rho_s**2 * cfg.n_r * cfg.n_t
    if gamma0 * cfg.noise_radar > echo_max:
        raise ConfigError(
            f"gamma0={gamma0:g} is unreachable: the highest reachable gamma0 "
            f"is {echo_max / cfg.noise_radar:.3g} (rho_s^2 n_r n_t / sigma_z^2)")
    return geometry.Scenario(
        lam=cfg.lam, n_t=cfg.n_t, n_r=cfg.n_r, n_users=len(centers), n_u=cfg.n_u,
        tx_region=geometry.SquareRegion(center=o_t, side=cfg.l_t),
        rx_mid=o_r, rx_len=cfg.l_r,
        user_regions=tuple(geometry.SquareRegion(center=c, side=cfg.a_k)
                           for c in centers),
        target=target,
        noise_user=cfg.noise_user, noise_radar=cfg.noise_radar,
        p_max=cfg.p_max, gamma0=gamma0, d_min=cfg.d_min,
        weights=np.array([cfg.w1, 1.0 - cfg.w1]),
    )


def trial_rng(seed, trial):
    """Counter-based per-trial substream; independent of execution order."""
    return np.random.Generator(np.random.Philox(key=[seed, trial]))


def _sample_array(rng, region, n, d_min, max_attempts=100):
    x_min, x_max, y_min, y_max = region.bounds()
    for _ in range(max_attempts):
        pts = np.empty((n, 3))
        pts[:, 0] = rng.uniform(x_min, x_max, n)
        pts[:, 1] = rng.uniform(y_min, y_max, n)
        pts[:, 2] = region.z
        if geometry.min_spacing_ok(pts, d_min):
            return pts
    raise PlacementError(
        f"could not place {n} antennas at spacing {d_min} in side {region.side}")


def initial_placement(scenario, rng):
    """Uniform random placement, resampled until the spacing constraint holds."""
    for region, n in [(scenario.tx_region, scenario.n_t)] + [
            (r, scenario.n_u) for r in scenario.user_regions]:
        if n * scenario.d_min**2 > region.side**2:
            raise PlacementError(
                f"region side {region.side} too small for {n} antennas")
    t = _sample_array(rng, scenario.tx_region, scenario.n_t, scenario.d_min)
    q = tuple(_sample_array(rng, region, scenario.n_u, scenario.d_min)
              for region in scenario.user_regions)
    return geometry.Placement(t=t, q=q)


@dataclass
class TrialSpec:
    cfg: ExperimentConfig
    scheme: str
    sweep: float
    trial: int


def _at_sweep(cfg, sweep):
    """The config of one sweep point of the preset: its field set to
    ``sweep`` in the field's type, a ConfigError if that changes the value."""
    name = SWEEPS[cfg.preset][0]
    if name is None:
        return cfg
    kind = _CONFIG_FIELDS[name]
    try:
        value = kind(sweep)
    except (ValueError, OverflowError):       # int() of nan or inf
        value = None
    if value != sweep:
        raise ConfigError(
            f"sweep value {sweep!r} is not a valid {name} ({kind.__name__})")
    return replace(cfg, **{name: value})


def run_trial(spec):
    """One (scheme, sweep value, trial) cell; returns (row, trace_rows).

    A trial that fails with a package error keeps "<class>: <message>" in
    the row under ``"error"``, a key outside the CSV schema.
    """
    cfg = spec.cfg
    scenario = build_scenario(_at_sweep(cfg, spec.sweep))
    rng = trial_rng(cfg.seed, spec.trial)
    row = {"preset": cfg.preset, "scheme": spec.scheme, "sweep": spec.sweep,
           "trial": spec.trial, "seed": cfg.seed, "wsr_bits": float("nan"),
           "gamma_s": float("nan"), "ps_db": float("nan"), "iters": -1,
           "wall_ms": 0.0}
    trace_rows = []
    t0 = time.perf_counter()
    try:
        placement = initial_placement(scenario, rng)
        fixed = spec.scheme.endswith("FIX")
        runner = lp.run_lp if spec.scheme.startswith("LP") else zf.run_zf
        result = runner(scenario, placement, AlgoParams(), cfg.zeta,
                        fixed_positions=fixed)
        ps = metrics.sensing_power(result.channels, result.state.v,
                                   result.state.u)
        row.update(
            wsr_bits=result.wsr / LN2,
            gamma_s=result.gamma_s,
            ps_db=10.0 * math.log10(max(ps, 1e-300)),
            iters=result.outer_iters,
        )
        if cfg.preset == "convergence":
            for rec in result.trace:
                trace_rows.append({
                    "preset": cfg.preset, "scheme": spec.scheme,
                    "sweep": spec.sweep, "trial": spec.trial, "seed": cfg.seed,
                    "iteration": rec.iteration, "block": rec.block,
                    "wsr_bits": rec.wsr / LN2, "gamma_s": rec.gamma_s,
                    "sinr_deficit": rec.deficit, "power": rec.power,
                })
    except NfIsacError as exc:
        # the row stays marked failed (iters == -1, nan metrics); the reason
        # rides along outside the CSV schema, which ``emit`` never writes
        row["error"] = f"{type(exc).__name__}: {exc}"
    row["wall_ms"] = (time.perf_counter() - t0) * 1e3
    return row, trace_rows


def _run_gradcheck(cfg):
    def factory():
        return build_scenario(replace(cfg, n_t=4, n_r=4, n_u=2))

    rows, _ = verify.gradient_suite(factory, n_configs=cfg.gradcheck_configs,
                                    seed=cfg.seed)
    return [{"check": r[0], "config": r[1], "coord": r[2], "analytic": r[3],
             "fd": r[4], "abs_err": r[5], "rel_err": r[6], "passed": r[7]}
            for r in rows]


def run_preset(cfg):
    """Execute the configured preset.

    Returns (rows, trace_rows, n_failed), n_failed counting failed trials,
    or for gradcheck the rows of failed checks.  Rows come back in the
    deterministic (sweep, scheme, trial) grid order regardless of worker
    count.  The pool starts at most one process per trial.
    """
    cfg.validate()
    if cfg.preset == "gradcheck":
        rows = _run_gradcheck(cfg)
        return rows, [], sum(1 for r in rows if not r["passed"])
    for sweep in cfg.sweep_grid():
        build_scenario(_at_sweep(cfg, sweep))   # reject unreachable gamma0 before any trial
    specs = [TrialSpec(cfg, scheme, sweep, trial)
             for sweep in cfg.sweep_grid()
             for scheme in cfg.schemes
             for trial in range(cfg.trials)]
    workers = min(cfg.workers or min(8, os.cpu_count() or 1), len(specs))
    if workers > 1:
        import multiprocessing as mp

        with mp.Pool(processes=workers) as pool:
            results = pool.map(run_trial, specs)
    else:
        results = [run_trial(spec) for spec in specs]
    rows = [r for r, _ in results]
    trace_rows = [tr for _, trs in results for tr in trs]
    n_failed = sum(1 for r in rows if r["iters"] < 0)
    return rows, trace_rows, n_failed


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit(rows, path, fmt="csv", columns=None):
    """Write result rows with a stable column order.

    CSV uses the canonical result header unless ``columns`` names another
    schema (trace or gradcheck rows).  JSON writes the row dicts as an
    array.
    """
    if columns is None:
        columns = CSV_HEADER.split(",")
    header = ",".join(columns)
    if fmt == "json":
        payload = [{c: row[c] for c in columns} for row in rows]
        text = json.dumps(payload, indent=1, default=float)
    elif fmt == "csv":
        lines = [header]
        for row in rows:
            lines.append(",".join(_fmt(row[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def parse_csv(path):
    """Inverse of emit(..., fmt='csv') for round-trip checks."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line]
    columns = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        row = {}
        for col, part in zip(columns, parts):
            if col in ("preset", "scheme", "block", "check"):
                row[col] = part
            elif col in ("trial", "seed", "iters", "iteration", "config", "coord"):
                row[col] = int(part)
            elif col == "passed":
                row[col] = part == "True"
            else:
                row[col] = float(part)
        rows.append(row)
    return rows


def trace_path_for(out_path):
    base, ext = os.path.splitext(out_path)
    return f"{base}.trace{ext or '.csv'}"
