"""qident: exact-arithmetic verification of terminating q-series identities.

Five layers:

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
The package exports what the README's library example imports; everything
else is read from its module.
"""

from .qcore import ParamPoint
from .identities import eval_sides, verify
from .certs import inductive_replay, sample_certificate_point

__version__ = "0.1.0"

__all__ = ["ParamPoint", "eval_sides", "verify", "inductive_replay",
           "sample_certificate_point", "__version__"]
