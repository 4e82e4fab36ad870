"""qcilab: a numerical laboratory for geodesic admissibility and
eigenfunction restriction decay on surfaces of revolution.

The package answers two linked questions at desk scale:

1. Given a surface of revolution and a pair of commuting classical
   symbols, is a geodesic arc admissible (does the second symbol move
   at a definite rate along the arc on the first symbol's energy
   shell)? See `admissibility`.

2. Do integrals of joint Laplace eigenfunctions over such arcs decay
   like h^{1/2} when the arc is admissible, and stay O(1) when it is
   not? See `sweep` for the experiment harness, `specfun` and
   `eigensolve` for the eigenfunctions, `lineintegral` for the
   oscillation-resolved quadrature.
"""

from .admissibility import (
    AdmissibilityReport,
    EnergyPair,
    FiberError,
    check_admissible,
    check_principal_type,
    fiber_points,
)
from .eigensolve import (
    JointEigenfunction,
    RadialOperator,
    assemble_operator,
    eigenpairs,
    load_modes,
    profile_hash,
    save_modes,
    solve_modes,
    solve_modes_cached,
)
from .geometry import (
    Geodesic,
    GeodesicError,
    ProfileError,
    ProfileFunction,
    latitude_arc,
    longitude_arc,
    make_profile,
)
from .lineintegral import (
    PanelCountError,
    QuadratureSpec,
    integrate_adaptive,
    integrate_restriction,
)
from .specfun import (
    HarmonicIndex,
    assoc_legendre_norm,
    legendre_P,
    legendre_P0,
    szego_main_term,
    turning_points,
)
from .sweep import (
    EXPERIMENTS,
    FitError,
    FitResult,
    ReportFormatError,
    SweepReport,
    SweepRow,
    fit_decay,
    load_report,
    run_tesseral_sweep,
    run_transition_peak_sweep,
    run_zonal_sweep,
    save_report,
)
from .symbol_dsl import (
    BUILTIN_P1_TEXT,
    BUILTIN_P2_TEXT,
    BUILTINS,
    VARIABLES,
    MomentMap,
    SymbolDomainError,
    SymbolNameError,
    SymbolSyntaxError,
    builtin_moment_map,
    eval_expr,
    format_expr,
    moment_map_from_config,
    parse_expr,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "EnergyPair",
    "FiberError",
    "check_admissible",
    "check_principal_type",
    "fiber_points",
    "JointEigenfunction",
    "RadialOperator",
    "assemble_operator",
    "eigenpairs",
    "load_modes",
    "profile_hash",
    "save_modes",
    "solve_modes",
    "solve_modes_cached",
    "Geodesic",
    "GeodesicError",
    "ProfileError",
    "ProfileFunction",
    "latitude_arc",
    "longitude_arc",
    "make_profile",
    "PanelCountError",
    "QuadratureSpec",
    "integrate_adaptive",
    "integrate_restriction",
    "HarmonicIndex",
    "assoc_legendre_norm",
    "legendre_P",
    "legendre_P0",
    "szego_main_term",
    "turning_points",
    "EXPERIMENTS",
    "FitError",
    "FitResult",
    "ReportFormatError",
    "SweepReport",
    "SweepRow",
    "fit_decay",
    "load_report",
    "run_tesseral_sweep",
    "run_transition_peak_sweep",
    "run_zonal_sweep",
    "save_report",
    "BUILTIN_P1_TEXT",
    "BUILTIN_P2_TEXT",
    "BUILTINS",
    "VARIABLES",
    "MomentMap",
    "SymbolDomainError",
    "SymbolNameError",
    "SymbolSyntaxError",
    "builtin_moment_map",
    "eval_expr",
    "format_expr",
    "moment_map_from_config",
    "parse_expr",
]
