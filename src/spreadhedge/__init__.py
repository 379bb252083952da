"""Super-replication pricing under proportional transaction costs on finite scenario trees.

The package builds the primal hedging linear program and the dual
consistent-price-system linear program for a claim on a finite event tree.
Pricing solves the hedging LP with a certified dense simplex kernel, reads an
optimal price system off its multipliers, and certifies that the duality gap
vanishes; the dual LP is the independent oracle.  Strategy and price-system
verification routines make every step of the argument checkable on its own.
"""

from .errors import (
    BadFriction,
    BadFrictionGap,
    CertificateFailure,
    DualInfeasible,
    MismatchedTrees,
    NotAnAntichain,
    NumericalBreakdown,
    ParseError,
    PreconditionViolated,
    ShapeMismatch,
    SpreadHedgeError,
    UnknownNode,
    UnverifiedInput,
    ValidationError,
)
from .scenario_tree import (
    AdmissibilityCap,
    ClaimSpec,
    PriceModel,
    ScenarioTree,
    dumps_tree,
    generate_random_tree,
    is_antichain,
    load_tree,
)
from .strategy import (
    PortfolioPath,
    Strategy,
    check_admissibility,
    is_self_financing,
    lower_friction_transform,
    make_ask_strategy,
    make_bid_strategy,
    portfolio_path,
    random_strategy,
    total_variation,
)
from .cps import (
    ConsistentPriceSystem,
    concatenate_cps,
    expected_claim,
    mix_cps,
    polar_pairing,
    random_cps,
    shadow_price,
    stopped_martingale_check,
    supermartingale_check,
    verify_cps,
)
from .lp import (
    LinearProgram,
    LpSolution,
    solve,
    verify_certificate,
)
from .superhedge import (
    SuperHedgeReport,
    build_dual,
    build_primal,
    dual_cps_from_primal,
    extract_strategy,
    price_curve,
    superhedge_price,
    variation_bound_check,
)

__version__ = "0.1.0"
