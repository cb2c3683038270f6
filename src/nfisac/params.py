"""Algorithm parameters of the LP and ZF stacks and the subproblem solver."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class AlgoParams:
    """Convergence thresholds, line-search constants, and iteration caps.

    Defaults follow the evaluation setup: Armijo constant delta = 1e-2 with
    backtrack factor tau = 1/2, unit initial step, ALM seed p0 = 1
    with growth theta = 10, eps_L = 1e-3 (relative, inner loop),
    eps_f = 1e-2 (outer WSR), eps_s = 1e-2 (SCA surrogate improvement).
    tau, p0, theta, p_cap and tol_feas also drive the subproblem solver.
    """

    eps_s: float = 1e-2
    eps_l: float = 1e-3
    eps_f: float = 1e-2
    delta: float = 1e-2          # Armijo-Goldstein constant
    tau: float = 0.5             # backtrack factor
    step0: float = 1.0           # initial PGM step of every position block
    p0: float = 1.0              # ALM penalty seed
    theta: float = 10.0          # ALM penalty growth
    p_cap: float = 1e6
    max_outer: int = 30          # AO iterations
    max_ls: int = 60             # line-search trials
    sca_max: int = 30            # SCA rounds per block
    pgm_max_steps: int = 60      # accepted steps per position block
    pgm_tol: float = 1e-6        # relative improvement stop for position blocks
    alm_max_outer: int = 8       # multiplier updates per position-ALM block
    inner_pgm_max: int = 120     # PGM steps per ALM round
    tol_feas: float = 1e-8       # on the scaled SINR deficit
    wsr_slack: float = 1e-9      # allowed per-block WSR loss before rejection
    pga_step0: float = 1.0       # initial subsolver step (covariance or precoder units)
    armijo: float = 1e-4         # subsolver Armijo constant
    pga_iters: int = 200         # ascent iterations per ALM round
    pga_rel_tol: float = 3e-10   # relative improvement stop of one ascent
    max_backtracks: int = 80     # gradient-step trials per ascent iteration
    alm_rounds: int = 5          # multiplier updates per subproblem
    polish_iters: int = 150      # feasibility-preserving ascent iterations

    def __post_init__(self):
        if not (0.0 < self.tau < 1.0):
            raise ValueError("tau must lie in (0, 1)")
        if not self.theta > 1.0:
            raise ValueError("theta must exceed 1")
        for name in ("eps_s", "eps_l", "eps_f", "delta", "step0", "p0"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
