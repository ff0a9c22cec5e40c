import importlib.util

import quditqkd

PUBLIC_NAMES = [
    "AttackReport", "ChannelModel", "ConfigError", "ErrorDistribution", "GF",
    "InvariantViolation", "PecBounds", "ProtocolConfig", "SimReport", "SymplecticParams",
    "TOperator", "ThresholdTable", "VerificationReport", "attack_calculus", "build_T",
    "choose_M", "ep_closed_form", "ep_step", "equiv_classes", "estimate_qer", "eve_ber",
    "find_char_poly", "intercept_resend_sbmer_ceiling", "locc2_ep_round",
    "make_error_distribution", "make_field", "pec_bound_terms", "pec_majority",
    "qer_estimator", "run_protocol", "run_trials", "sift", "thresholds", "verify_T",
    "worst_case_distribution",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(quditqkd.__all__) == PUBLIC_NAMES
    for name in quditqkd.__all__:
        assert getattr(quditqkd, name) is not None


def test_no_dense_operator_module_ships():
    # the dense X_a Z_b operators are a test oracle; the package runs on label actions
    assert importlib.util.find_spec("quditqkd.pauli") is None
