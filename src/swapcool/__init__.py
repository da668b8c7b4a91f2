"""swapcool: swap-interference energy-transfer protocol and cooling networks
over spectral Hamiltonians."""

from .hamiltonian import (
    Spectrum,
    SpectralStats,
    build_model,
    double,
    min_m_bound,
    spectral_stats,
)
from .quantum import (
    DensityOperator,
    LowRankDensity,
    PureState,
    eigendecompose,
    energy_moments,
    evolve_phase,
    survival,
    uniform_state,
)
from .protocol import (
    ProtocolOutput,
    apply_protocol,
    expand_short_time,
    protocol_oracle,
    transfer_first_order,
)
from .flow import (
    FlowResult,
    flow_exact,
    flow_rk4,
    ground_probability,
    logistic_bounds,
    t_c_bounds,
)
from .network import (
    CoefficientMatrix,
    Schedule,
    XiResult,
    build_improved_schedule,
    build_tournament_schedule,
    check_scaling_law,
    m_alpha,
    predict_reduced_state,
    propagate_coefficients,
    rescale_row,
    simulate_network_exact,
    xi_result,
    xi_statistic,
)

__version__ = "0.1.0"
