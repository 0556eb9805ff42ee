"""q-difference operators, Jackson integrals and the q-hypergeometric
solution families of the degree-two/three equation variants, with a
residual-based verification layer."""

from .errors import (
    AnnulusError,
    BalanceError,
    BudgetExceededError,
    DivergenceError,
    DomainError,
    NonDecayingSumError,
    NonRootError,
    PoleError,
    PreconditionError,
    QhypError,
    ResonanceError,
    UnsupportedCaseError,
    ZeroPolynomialError,
)
from .qcore import (
    QContext,
    jackson_0_to_tau,
    jackson_bilateral,
    qpoch_fin,
    qpoch_inf,
    qpoch_ratio,
    theta,
)
from .qseries import (
    PhiSpec,
    appell_phi1,
    bailey_w87_transform,
    heine_transformation_constant,
    is_balanced_w87,
    phi,
    phi21,
    phi32,
    psi33,
    w87,
    w87_to_phi32_limit,
)
from .opalgebra import Configuration, QDiffOperator, poly_roots
from .equations import (
    BUILDERS,
    H2Params,
    H3Params,
    HeineParams,
    Heun3Params,
    HeunParams,
    Params2,
    Params3,
    build_e2,
    build_e3,
    build_h2,
    build_h3,
    build_heine,
    build_qheun,
    build_qheun3,
    expected_configuration,
    rigidity_reconstruct,
    verify_degeneration,
)
from .solutions import (
    Endpoint,
    SolutionHandle,
    all_labels,
    casoratian,
    check_intcalcu,
    cocycle_check,
    e2_series,
    e3_series,
    heine_extra,
    heine_solution,
    incidence_matrix,
    incidence_rank,
    phi2,
    phi2_tilde,
    phi3,
    phi3_tilde,
    residual,
    sample_points,
    solution_handle,
)
from .groups import (
    GaugeDescriptor,
    check_relations,
    group_action,
    orbit,
    relation_words,
    solution_transport,
)

__version__ = "0.1.0"
