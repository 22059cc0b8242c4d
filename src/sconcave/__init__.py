"""Shape-constrained density estimation over log-concave and s-concave classes."""

from .concave_fn import PiecewiseConcave, sample_random
from .density import (EnvelopeFn, ReferenceDistribution, TransformedDensity,
                      check_envelope, envelope_for_class, hellinger, l1_distance,
                      member_of_class, reference, sample, upper_bound_f)
from .entropy import (BoundedConcaveClass, Bracket, BracketSet,
                      LipschitzConcaveClass, TailClass, TransformedCompactClass,
                      build_cover, cover_bounded_concave, cover_lipschitz_concave,
                      cover_tail_class, cover_transformed, entropy_curve,
                      sample_members, verify_bracketing)
from .mle import (FitConfig, FitResult, demonstrate_nonexistence, fit,
                  loglik_ratio, objective)
from .rate_harness import (RateStudyConfig, RateStudyResult,
                           consistency_diagnostics, fit_slope,
                           rate_equation_check, run_rate_study)
from .transforms import Transform, check_assumptions, check_s_concavity

__version__ = "0.1.0"

__all__ = [
    "PiecewiseConcave", "sample_random",
    "EnvelopeFn", "ReferenceDistribution", "TransformedDensity",
    "check_envelope", "envelope_for_class", "hellinger", "l1_distance",
    "member_of_class", "reference", "sample", "upper_bound_f",
    "BoundedConcaveClass", "Bracket", "BracketSet", "LipschitzConcaveClass",
    "TailClass", "TransformedCompactClass", "build_cover",
    "cover_bounded_concave", "cover_lipschitz_concave", "cover_tail_class",
    "cover_transformed", "entropy_curve", "sample_members", "verify_bracketing",
    "FitConfig", "FitResult", "demonstrate_nonexistence", "fit",
    "loglik_ratio", "objective",
    "RateStudyConfig", "RateStudyResult", "consistency_diagnostics",
    "fit_slope", "rate_equation_check", "run_rate_study",
    "Transform", "check_assumptions", "check_s_concavity",
]
