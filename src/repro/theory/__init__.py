"""Theory toolkit: squashed sums, lower bounds, guarantee verification."""

from repro.theory.bounds import (
    EDMONDS_EQUI_RATIO,
    job_weighted_span,
    k1_mean_response_ratio,
    lemma2_bound,
    makespan_lower_bound,
    mean_response_lower_bound,
    theorem1_ratio,
    theorem3_ratio,
    theorem5_ratio,
    theorem5_total_rt_bound,
    theorem6_ratio,
    total_response_lower_bound,
    weighted_span,
)
from repro.theory.lemma2_certify import Lemma2Certificate, certify_lemma2
from repro.theory.optimal import optimal_makespan_exact
from repro.theory.regimes import RegimeReport, regime_fractions
from repro.theory.squashed import (
    aggregate_span,
    check_lemma4,
    lemma4_rhs,
    squashed_sum,
    squashed_work_area,
    squashed_work_areas,
)
from repro.theory.fairness import (
    FairnessReport,
    ServiceGap,
    jain_index,
    service_gaps,
    verify_service_bound,
)
from repro.theory.induction import (
    CertificationResult,
    StepCertificate,
    certify_theorem5_induction,
)
from repro.theory.verify import (
    BoundCheck,
    check_lemma2,
    check_makespan_bound,
    check_theorem5,
    check_theorem6,
)

__all__ = [
    "EDMONDS_EQUI_RATIO",
    "job_weighted_span",
    "k1_mean_response_ratio",
    "lemma2_bound",
    "makespan_lower_bound",
    "mean_response_lower_bound",
    "theorem1_ratio",
    "theorem3_ratio",
    "theorem5_ratio",
    "theorem5_total_rt_bound",
    "theorem6_ratio",
    "total_response_lower_bound",
    "weighted_span",
    "aggregate_span",
    "check_lemma4",
    "lemma4_rhs",
    "squashed_sum",
    "squashed_work_area",
    "squashed_work_areas",
    "FairnessReport",
    "ServiceGap",
    "jain_index",
    "service_gaps",
    "verify_service_bound",
    "CertificationResult",
    "StepCertificate",
    "certify_theorem5_induction",
    "Lemma2Certificate",
    "certify_lemma2",
    "optimal_makespan_exact",
    "RegimeReport",
    "regime_fractions",
    "BoundCheck",
    "check_lemma2",
    "check_makespan_bound",
    "check_theorem5",
    "check_theorem6",
]
