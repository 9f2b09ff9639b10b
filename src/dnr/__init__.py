"""Distribution network reconfiguration: model, power flow, loss-driven switching."""

# the package's public names, imported to be re-exported
from .caseio import (  # noqa: F401
    ParseError,
    ValidationError,
    parse_case,
    trace_to_json,
    write_native_case,
    write_report,
)
from .exchange import (  # noqa: F401
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
from .model import (  # noqa: F401
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
from .objective import (  # noqa: F401
    ConstraintCheck,
    ObjectiveReport,
    evaluate_fo,
    sort_key,
)
from .powerflow import (  # noqa: F401
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
from .surrogate import LinearModel, featurize, fit, rank_candidates  # noqa: F401
from .topology import (  # noqa: F401
    ForestBuildResult,
    FundamentalLoop,
    UnreachableError,
    build_spanning_forest,
    fundamental_loop,
    weights_from_flow,
)

__version__ = "0.1.0"
