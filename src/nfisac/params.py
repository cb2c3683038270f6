"""Algorithm parameters of the LP and ZF stacks and the subproblem solver.

``AlgoParams`` holds the values a caller sets; the module constants are the
fixed ones of the evaluation setup: ALM seed p0 = 1 with growth theta = 10,
eps_L = 1e-3 (relative, inner loop), eps_f = 1e-2 (outer WSR), eps_s = 1e-2
(surrogate improvement of the precoder SCA).  P0, THETA, P_CAP and EPS_ALM
serve only the position ALM (``ao.alm_positions``): neither subproblem
solver has a multiplier loop.  EPS_ALM, the ALM's WSR stop, has eps_f's
value but is its own name, so the AO stop can be moved alone.
TOL_FEAS bounds the scaled SINR deficit of both subproblem solvers.  An LP
user-position visit takes at most PGM_MAX_STEPS = 5 descent steps and stops
earlier once a step gains less than PGM_TOL (relative): each adopted step
is an Armijo descent and the AO loop revisits the block on every loop, so
a capped visit is an inexact block update that still descends.  The
precoder subproblem is solved in closed form; the covariance subproblem by
one feasible projected gradient ascent, with the subsolver constants from
PGA_STEP0 on, stopped when two consecutive iterations gain less than
COV_REL_TOL = 1e-6 (relative).  EPS_S and sca_max serve only the LP
precoder SCA: a sensing-beam visit is one SCA round, one covariance solve,
whose output never has less surrogate than the expansion point at any
tolerance, since every iterate of the ascent is feasible and none loses.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

EPS_S = 1e-2
EPS_L = 1e-3
EPS_F = 1e-2
EPS_ALM = 1e-2               # WSR stop of the position ALM's multiplier loop
P0 = 1.0                     # position ALM penalty seed
THETA = 10.0                 # position ALM penalty growth
P_CAP = 1e6
MAX_OUTER = 30               # AO iterations
PGM_MAX_STEPS = 5            # accepted steps per visit of an LP user block:
                             # the AO loop revisits every block each loop
PGM_TOL = 1e-6               # relative improvement stop of an LP user block
TOL_FEAS = 1e-8              # on the scaled SINR deficit
WSR_SLACK = 1e-9             # allowed per-block WSR loss before rejection
PGA_STEP0 = 1.0              # initial subsolver step (covariance units)
PGA_TAU = 0.5                # subsolver backtrack factor
ARMIJO = 1e-4                # subsolver Armijo constant
PGA_ITERS = 200              # iterations per covariance ascent
COV_REL_TOL = 1e-6           # relative improvement stop of the covariance
                             # ascent, the one solve of a sensing-beam visit
MAX_BACKTRACKS = 80          # gradient-step trials per ascent iteration


@dataclass
class AlgoParams:
    """Line-search constants and iteration caps.

    Defaults follow the evaluation setup: Armijo constant delta = 1e-2 with
    backtrack factor tau = 1/2 and unit initial step.  The four caps are
    integers >= 1.
    """

    delta: float = 1e-2          # Armijo-Goldstein constant
    tau: float = 0.5             # backtrack factor
    step0: float = 1.0           # initial PGM step of every position block
    max_ls: int = 60             # line-search trials
    sca_max: int = 30            # SCA rounds per precoder block
    alm_max_outer: int = 8       # multiplier updates per position-ALM block
    inner_pgm_max: int = 120     # PGM steps per ALM round

    def __post_init__(self):
        if not (0.0 < self.tau < 1.0):
            raise ValueError("tau must lie in (0, 1)")
        for name in ("delta", "step0"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("max_ls", "sca_max", "alm_max_outer", "inner_pgm_max"):
            cap = getattr(self, name)
            if isinstance(cap, bool) or not isinstance(cap, Integral) or cap < 1:
                raise ValueError(f"{name} must be an int >= 1")
