"""Ground fields R, C, H and the Jacobi parameters they induce.

A compact rank-one projective space over K in {R, C, H} is described by the
real dimension delta of a K-scalar (1, 2 or 4) and the number m >= 2 of
K-coordinates.  Zonal analysis on the space reduces to Jacobi polynomials
with parameters alpha = (delta*(m-1)-2)/2, beta = (delta-2)/2.
"""

from __future__ import annotations

import enum

from .jacobi import JacobiParams, NumericalError, _shown


class Field(enum.Enum):
    """Ground field tag; the enum value is delta, the real dimension of a scalar."""

    R = 1
    C = 2
    H = 4

    @property
    def delta(self) -> int:
        return self.value

    @classmethod
    def parse(cls, name: str) -> "Field":
        try:
            return cls[name.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown field {name!r}: expected one of R, C, H") from None


def field_params(field: Field, m: int) -> JacobiParams:
    """Jacobi parameters (alpha, beta) for the projective space over `field` in K^m."""
    if m < 2:
        raise ValueError(f"m must be >= 2, got {_shown(m)}")
    d = field.delta
    try:
        alpha = (d * (m - 1) - 2) / 2.0
    except OverflowError:  # an int m past the float range
        where = f"field={field.name}, m={_shown(m)}"
        raise NumericalError(f"alpha past the float range for {where}") from None
    return JacobiParams(alpha, (d - 2) / 2.0)
