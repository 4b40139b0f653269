"""Convexity certificates and non-convexity witnesses for basic closed
semi-algebraic sets {x : g_1(x) >= 0, ..., g_m(x) >= 0}.

The public surface mirrors the pipeline: polynomial primitives, problem
parsing, moment machinery, an embedded SDP solver, sum-of-squares
certification, and moment-relaxation refutation with atom extraction.
The CLI's RunConfig and run stay in convexcert.cli, which this package does
not import: runpy warns when `python -m convexcert.cli` finds it loaded.
"""

from .certify import (
    ArchimedeanCertificate,
    CertificateCheck,
    CertificationFailure,
    PreorderingCertificate,
    QuadraticModuleCertificate,
    archimedean_check,
    certify_stengle,
    closed_form_certificate,
    qmodule_certificate,
    verify_certificate,
)
from .moments import (
    MomentSequence,
    MonomialBasis,
    localizing_matrix,
    moment_matrix,
    monomial_basis,
    riesz_apply,
)
from .polynomials import (
    Polynomial,
    VariableSpace,
    coeff_linf_distance,
    lift,
    midpoint_substitute,
)
from .problemio import (
    ParseError,
    ProblemSpec,
    make_report,
    parse_polynomial,
    parse_problem,
    serialize_report,
    validate_report_payload,
)
from .refute import (
    ExtractionError,
    FlatnessResult,
    NonconvexityWitness,
    RelaxationResult,
    build_moment_sdp,
    extract_atoms,
    rank_flatness_check,
    relaxation_orders,
    sample_witness,
    solve_relaxation,
    validate_witness,
)
from .sdp import SdpProblem, SdpSolution, dump_sdp, solve

__version__ = "0.1.0"


__all__ = [
    "ArchimedeanCertificate",
    "CertificateCheck",
    "CertificationFailure",
    "ExtractionError",
    "FlatnessResult",
    "MomentSequence",
    "MonomialBasis",
    "NonconvexityWitness",
    "ParseError",
    "Polynomial",
    "PreorderingCertificate",
    "ProblemSpec",
    "QuadraticModuleCertificate",
    "RelaxationResult",
    "SdpProblem",
    "SdpSolution",
    "VariableSpace",
    "archimedean_check",
    "build_moment_sdp",
    "certify_stengle",
    "closed_form_certificate",
    "coeff_linf_distance",
    "dump_sdp",
    "extract_atoms",
    "lift",
    "localizing_matrix",
    "make_report",
    "midpoint_substitute",
    "moment_matrix",
    "monomial_basis",
    "parse_polynomial",
    "parse_problem",
    "qmodule_certificate",
    "rank_flatness_check",
    "relaxation_orders",
    "riesz_apply",
    "sample_witness",
    "serialize_report",
    "solve",
    "solve_relaxation",
    "validate_report_payload",
    "validate_witness",
    "verify_certificate",
    "__version__",
]
