"""Lower bounds for projective cubature formulas and isometric embeddings.

Core pieces:

* :mod:`projbound.jacobi` -- the Jacobi polynomial family (one
  three-term recurrence for every value, norms, largest roots, tail weight
  integrals);
* :mod:`projbound.specials` -- log-Gamma, the Gauss hypergeometric value
  used by the closed-form bound, Bessel J and its first positive zero, for
  one order or an array of orders;
* :mod:`projbound.testfn` -- the convolution test function and the bound
  it certifies;
* :mod:`projbound.bounds` -- classical LP bound, the Yudin-type closed
  form, difference tables and asymptotic reports;
* :mod:`projbound.cubature` -- quaternion-capable moment-test verifier
  for weighted point sets on the unit sphere of K^m.
"""

from .bounds import (
    AsymptoticRow,
    BoundReport,
    LogScaled,
    OscillationReport,
    asymptotic_report,
    ceil_snap,
    delta_C,
    delta_H,
    kappa,
    lambda_asym,
    lp_bound,
    oscillation_report,
    real_integral_ratio,
    root_asymptotic_ratio,
    yudin_bound,
)
from .cubature import (
    PointSet,
    VerificationReport,
    circle_design,
    gram_matrix,
    load_point_set,
    moment_test,
    orthonormal_design,
    parse_point_set,
    verify,
)
from .fields import Field, field_params
from .jacobi import (
    JacobiParams,
    NumericalError,
    incomplete_weight_integral,
    jacobi_deriv,
    jacobi_eval,
    jacobi_eval_all,
    largest_root,
    tau,
)
from .specials import (
    BesselZero,
    bessel_first_zero,
    bessel_first_zeros,
    bessel_j,
    hypergeom_F,
    log_gamma,
)
from .testfn import YudinTestFunction, bound_from_test_function, build_test_function, eval_f

__version__ = "0.1.0"

__all__ = [
    "AsymptoticRow",
    "BesselZero",
    "BoundReport",
    "Field",
    "JacobiParams",
    "LogScaled",
    "NumericalError",
    "OscillationReport",
    "PointSet",
    "VerificationReport",
    "YudinTestFunction",
    "asymptotic_report",
    "bessel_first_zero",
    "bessel_first_zeros",
    "bessel_j",
    "bound_from_test_function",
    "build_test_function",
    "ceil_snap",
    "circle_design",
    "delta_C",
    "delta_H",
    "eval_f",
    "field_params",
    "gram_matrix",
    "hypergeom_F",
    "incomplete_weight_integral",
    "jacobi_deriv",
    "jacobi_eval",
    "jacobi_eval_all",
    "kappa",
    "lambda_asym",
    "largest_root",
    "load_point_set",
    "log_gamma",
    "lp_bound",
    "moment_test",
    "orthonormal_design",
    "oscillation_report",
    "parse_point_set",
    "real_integral_ratio",
    "root_asymptotic_ratio",
    "tau",
    "verify",
    "yudin_bound",
    "__version__",
]
