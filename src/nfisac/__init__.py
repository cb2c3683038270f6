"""Near-field ISAC simulator with movable-antenna position optimization.

Weighted-sum-rate maximization under a minimum sensing-SINR constraint, for
linear and zero-forcing precoding, via alternating optimization: closed-form
receive combiner, SCA precoder/beamformer updates, and projected-gradient /
augmented-Lagrangian antenna-position updates with analytic gradients.
"""

from .errors import (
    ConfigError, ContractViolation, GeometryError, InfeasibleSubproblemError,
    NfIsacError, NumericalError, OptimizationAbort, PlacementError,
    ProbeError, RankDeficiencyError, ScenarioError,
)
from .geometry import (
    ChannelSet, Placement, Scenario, SquareRegion, build_channels,
    build_sensing_channel, build_user_channel, min_spacing_ok,
    path_loss_comm, path_loss_sense, receive_ula_positions, vec3,
)
from .metrics import (
    LpState, TraceRecord, ZfState, make_zf_state, rate_lp, rate_zf, sinr,
    sinr_deficit, zf_precoder,
)
from .params import AlgoParams
from .lp import run_lp
from .zf import run_zf

__version__ = "0.1.0"
