"""Verification toolkit for complementarity-constrained programs.

Given a feasible point of a program with complementarity constraints
(g <= 0, h = 0, G >= 0, H >= 0, G.H = 0), the package decides which
constraint qualifications hold there, classifies the point's
stationarity, and cross-checks the closed-form activity structure of
the bilevel SVC hyperparameter-selection family against the generic
machinery.  All indices are 0-based throughout.
"""

from .errors import (ClassificationError, ConvergenceError,
                     InfeasiblePointError, InputError, MpecqError,
                     WitnessVerificationError)
from .kernels import RankResult, numerical_rank
from .model import (ActivePattern, FeasibilityReport, GradientBundle,
                    MpecDimensions, PointEvaluation, Tolerances,
                    canonical_json, check_feasibility, classify_active,
                    digest, gradient_bundle_tnlp)
from .cq import (CQ_NAMES, CqReport, CqVerdict, DEFAULT_BRANCH_CAP,
                 IMPLICATION_EDGES, audit_implications, check_acq_affine,
                 check_mpec_gmfcq, check_mpec_licq, check_mpec_mfcq_r,
                 check_mpec_mfcq_t, check_nnamcq, run_all_checks)
from .stationarity import (CLASS_ORDER, StationarityReport,
                           classify_stationarity, verify_kkt_equivalence,
                           witness_residual, witness_satisfies)
from .bho import (BhoInstance, BhoPoint, Dataset, FoldSplit, GammaMatrix,
                  LambdaPsiPattern, TheoremVerdict, assemble_feasible_point,
                  assemble_gamma, check_licq_theorem, check_mfcq_r_theorem,
                  classify_lambda_psi, fold_knots, gamma_matches_generic,
                  load_dataset_csv, lower_level_solve,
                  misclassification_oracle, solve_all_folds, split_folds,
                  structured_index_sets, to_evaluation, validation_error)
from .fixtures import Fixture, all_fixtures, run_fixture_suite
from .fuzz import FuzzSummary, gen_bho_case, run_fuzz

__version__ = "0.1.0"

__all__ = [
    "ActivePattern", "BhoInstance", "BhoPoint", "CLASS_ORDER", "CQ_NAMES",
    "ClassificationError", "ConvergenceError", "CqReport", "CqVerdict",
    "DEFAULT_BRANCH_CAP", "Dataset", "FeasibilityReport", "Fixture",
    "FoldSplit", "FuzzSummary", "GammaMatrix", "GradientBundle",
    "IMPLICATION_EDGES", "InfeasiblePointError", "InputError",
    "LambdaPsiPattern", "MpecDimensions", "MpecqError", "PointEvaluation",
    "RankResult", "StationarityReport", "TheoremVerdict", "Tolerances",
    "WitnessVerificationError", "all_fixtures", "assemble_feasible_point",
    "assemble_gamma", "audit_implications", "canonical_json",
    "check_acq_affine", "check_feasibility", "check_licq_theorem",
    "check_mfcq_r_theorem", "check_mpec_gmfcq", "check_mpec_licq",
    "check_mpec_mfcq_r", "check_mpec_mfcq_t", "check_nnamcq",
    "classify_active", "classify_lambda_psi", "classify_stationarity",
    "digest", "fold_knots", "gamma_matches_generic", "gen_bho_case",
    "gradient_bundle_tnlp", "load_dataset_csv",
    "lower_level_solve", "misclassification_oracle", "numerical_rank",
    "run_all_checks", "run_fixture_suite", "run_fuzz", "solve_all_folds",
    "split_folds", "structured_index_sets", "to_evaluation",
    "validation_error", "verify_kkt_equivalence", "witness_residual",
    "witness_satisfies",
]
