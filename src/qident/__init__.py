"""qident: exact-arithmetic verification of terminating q-series identities.

Four layers:

* ``qcore`` — exact rational scalars, parameter points, q-shifted factorials
  and Gaussian binomials;
* ``hyper`` — terminating basic hypergeometric sums and the two well-poised
  contiguous relations as zero-residual checks;
* ``identities`` — a registry of 18 summation/transformation identities with
  exact two-sided evaluators and a random-rational verification harness;
* ``certs`` — mechanical replay of each identity's inductive proof (term
  recurrences, telescoping anti-differences, boundary collapse, and full
  base-case-up inductions);
* ``psers`` — truncated formal power series over exact rationals for the
  limiting infinite-product identities.

The ``qident`` console script drives everything with reproducible seeds.
"""

from .qcore import (QIdentityError, PoleError, DegenerateQ, MissingSymbol,
                    QRational, ParamPoint, qrat, qpoch, qpoch_multi, qbinom)
from .hyper import (PhiSpec, WellPoisedTerm, phi_sum, wp_term,
                    contiguous_alpha, contiguous_beta,
                    contiguous_residual_1, contiguous_residual_2,
                    trivial_identity_residuals, poch_ratio_sum)
from .identities import (IdentityDescriptor, VerificationReport,
                         RetryExhausted, CounterexampleFound,
                         list_identities, identity_ids, get_identity,
                         eval_sides, verify, sample_point, serialize_point,
                         random_rational, random_q, derive_trial_seed,
                         vwp_sum)
from .certs import (ProofCertificate, list_certificates, certificate_ids,
                    get_certificate, term_recurrence_residual,
                    telescoping_residual, boundary_check, inductive_replay,
                    schlosser_split_residual, schlosser_coeff_residual,
                    sample_certificate_point)
from .psers import (QSeries, NonTerminatingExponent, series_product, poch_inf,
                    geometric_inverse, infinite_identity_residual,
                    SERIES_IDENTITIES, jacobi_product_relation_residual,
                    quintuple_product_relation_residual)

__version__ = "0.1.0"

__all__ = [
    "QIdentityError", "PoleError", "DegenerateQ", "MissingSymbol",
    "QRational", "ParamPoint", "qrat", "qpoch", "qpoch_multi", "qbinom",
    "PhiSpec", "WellPoisedTerm", "phi_sum", "wp_term",
    "contiguous_alpha", "contiguous_beta",
    "contiguous_residual_1", "contiguous_residual_2",
    "trivial_identity_residuals", "poch_ratio_sum",
    "IdentityDescriptor", "VerificationReport",
    "RetryExhausted", "CounterexampleFound",
    "list_identities", "identity_ids", "get_identity",
    "eval_sides", "verify", "sample_point", "serialize_point",
    "random_rational", "random_q", "derive_trial_seed",
    "vwp_sum",
    "ProofCertificate", "list_certificates", "certificate_ids",
    "get_certificate", "term_recurrence_residual", "telescoping_residual",
    "boundary_check", "inductive_replay",
    "schlosser_split_residual", "schlosser_coeff_residual",
    "sample_certificate_point",
    "QSeries", "NonTerminatingExponent", "series_product", "poch_inf",
    "geometric_inverse", "infinite_identity_residual", "SERIES_IDENTITIES",
    "jacobi_product_relation_residual", "quintuple_product_relation_residual",
    "__version__",
]
