"""Higher-dimensional prepare-and-measure QKD toolkit.

Finite fields GF(p^n), the order-(N+1) basis-cycling unitary with its
action on generalized Pauli (Weyl-Heisenberg) labels and their orbits,
error-rate recursions and tolerance thresholds, and a seeded Pauli-frame
Monte-Carlo simulator of the prepare-and-measure protocol under
configurable channels and eavesdropping attacks.
"""

__version__ = "0.1.0"

from .exceptions import ConfigError, InvariantViolation
from .fields import GF, make_field
from .protocol import (
    ChannelModel,
    ProtocolConfig,
    SimReport,
    estimate_qer,
    locc2_ep_round,
    pec_majority,
    run_protocol,
    run_trials,
    sift,
)
from .rates import (
    AttackReport,
    ErrorDistribution,
    PecBounds,
    ThresholdTable,
    attack_calculus,
    ep_closed_form,
    ep_step,
    eve_ber,
    intercept_resend_sbmer_ceiling,
    make_error_distribution,
    pec_bound_terms,
    qer_estimator,
    thresholds,
    worst_case_distribution,
)
from .toperator import (
    SymplecticParams,
    TOperator,
    VerificationReport,
    build_T,
    choose_M,
    equiv_classes,
    find_char_poly,
    verify_T,
)

__all__ = [
    "GF",
    "make_field",
    "SymplecticParams",
    "TOperator",
    "VerificationReport",
    "find_char_poly",
    "choose_M",
    "build_T",
    "equiv_classes",
    "verify_T",
    "ErrorDistribution",
    "ThresholdTable",
    "PecBounds",
    "AttackReport",
    "make_error_distribution",
    "worst_case_distribution",
    "ep_step",
    "ep_closed_form",
    "pec_bound_terms",
    "thresholds",
    "qer_estimator",
    "eve_ber",
    "intercept_resend_sbmer_ceiling",
    "attack_calculus",
    "ChannelModel",
    "ProtocolConfig",
    "SimReport",
    "sift",
    "estimate_qer",
    "locc2_ep_round",
    "pec_majority",
    "run_protocol",
    "run_trials",
    "ConfigError",
    "InvariantViolation",
]
