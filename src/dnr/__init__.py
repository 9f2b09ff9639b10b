"""Distribution network reconfiguration: model, power flow, loss-driven switching."""

from .caseio import (
    ParseError,
    ValidationError,
    parse_case,
    trace_to_json,
    write_native_case,
    write_report,
)
from .exchange import (
    InitialInfeasibleError,
    Move,
    Reconfiguration,
    RejectReason,
    Rejection,
    SearchOptions,
    SearchTrace,
    evaluate_candidate,
    improve,
    reconfigure,
)
from .model import (
    Branch,
    Bus,
    BusKind,
    Configuration,
    ConfigurationError,
    ForestIndex,
    Island,
    NetworkCase,
    NotRadialError,
    SwitchState,
    Violation,
    all_closed_config,
    default_config,
    forest,
    is_radial,
    islands,
    make_config,
    validate_case,
)
from .objective import (
    ConstraintCheck,
    ObjectiveReport,
    evaluate_fo,
    sort_key,
)
from .powerflow import (
    BranchFlow,
    BranchFlows,
    BusValues,
    IslandPart,
    IslandResult,
    NotConvergedError,
    PowerFlowSolution,
    SingularBranchError,
    SolverOptions,
    branch_flows,
    build_admittance,
    solve_all_islands,
    solve_network,
    solve_newton_raphson,
)
from .surrogate import LinearModel, featurize, fit, rank_candidates
from .topology import (
    ForestBuildResult,
    FundamentalLoop,
    UnreachableError,
    build_spanning_forest,
    fundamental_loop,
    weights_from_flow,
)

__version__ = "0.1.0"
