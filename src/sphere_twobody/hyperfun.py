"""Gauss hypergeometric evaluation tuned for the radial eigenfunctions.

2F1 is computed by two independent routes -- the defining series near 0 and
the z -> 1-z connection formulas near 1 -- each valid on an explicit disk,
with the overlap ring used to cross-check one route against the other.
Polynomial cases (nonpositive integer numerator parameter) short-circuit to
the finite term-by-term sum, which loses accuracy at high degree (the
eigenfunctions use their own recurrence); the analytic routes are
exercised by generic parameters.

Nonpositive-integer detection snaps within 1e-9.  Points on the branch cut
[1, oo) are rejected rather than silently picking a side.
"""

import cmath
import math

from .errors import ConvergenceError, ValidationError
from .jets import scaled_residual

__all__ = [
    "gamma_complex",
    "rgamma_complex",
    "digamma_complex",
    "pochhammer",
    "gauss_2f1",
    "gauss_2f1_deriv",
    "hypergeom_ode_residual",
    "limit_near_one",
]

_SNAP = 1e-9
_SERIES_RADIUS = 0.75
_CONNECTION_RADIUS = 0.75
_MAX_TERMS = 1500


# scipy.special is imported on first call: the polynomial 2F1 that every
# quantized eigenfunction uses needs no gamma function.
def gamma_complex(z):
    from scipy.special import gamma

    return complex(gamma(complex(z)))


def rgamma_complex(z):
    """1/Gamma, finite at the poles."""
    from scipy.special import rgamma

    return complex(rgamma(complex(z)))


def digamma_complex(z):
    from scipy.special import digamma

    return complex(digamma(complex(z)))


def pochhammer(a, j):
    """(a)_j for integer j >= 0."""
    if not (isinstance(j, int) and j >= 0):
        raise ValidationError(f"pochhammer order must be a nonnegative integer, got {j}")
    out = complex(1.0)
    a = complex(a)
    for i in range(j):
        out *= a + i
    return out


def _as_nonpositive_int(x):
    """The integer j <= 0 with x ~= j, or None."""
    j = _as_int(x)
    return j if j is not None and j <= 0 else None


def _as_int(x):
    """The integer j with x ~= j, or None."""
    x = complex(x)
    j = round(x.real)
    if abs(x.real - j) <= _SNAP and abs(x.imag) <= _SNAP:
        return j
    return None


def _polynomial_2f1(alpha, beta, gamma, z, degree):
    s = complex(0.0)
    term = complex(1.0)
    alpha, beta, gamma, z = complex(alpha), complex(beta), complex(gamma), complex(z)
    for j in range(degree + 1):
        s += term
        if j < degree:  # avoid touching (gamma + j) poles past the last term
            term *= (alpha + j) * (beta + j) / ((gamma + j) * (j + 1)) * z
    return s


def _series_2f1(alpha, beta, gamma, z):
    alpha, beta, gamma, z = complex(alpha), complex(beta), complex(gamma), complex(z)
    s = complex(1.0)
    term = complex(1.0)
    quiet = 0
    for j in range(_MAX_TERMS):
        term *= (alpha + j) * (beta + j) / ((gamma + j) * (j + 1)) * z
        s += term
        if abs(term) <= 1e-17 * max(abs(s), 1.0):
            quiet += 1
            if quiet >= 3:
                return s
        else:
            quiet = 0
    raise ConvergenceError(
        f"2F1 series did not converge at |z|={abs(z):.3f} after {_MAX_TERMS} terms"
    )


def _connection_generic(alpha, beta, gamma, z):
    # Valid when gamma - alpha - beta is not an integer.
    w = 1.0 - z
    gab = gamma - alpha - beta
    c1 = (
        gamma_complex(gamma)
        * gamma_complex(gab)
        * rgamma_complex(gamma - alpha)
        * rgamma_complex(gamma - beta)
    )
    c2 = (
        gamma_complex(gamma)
        * gamma_complex(-gab)
        * rgamma_complex(alpha)
        * rgamma_complex(beta)
    )
    f1 = _series_2f1(alpha, beta, alpha + beta - gamma + 1.0, w)
    f2 = _series_2f1(gamma - alpha, gamma - beta, gab + 1.0, w)
    return c1 * f1 + c2 * w ** gab * f2


def _connection_integer(alpha, beta, gamma, z, m):
    # gamma = alpha + beta + m with integer m >= 0; log case near z = 1.
    alpha, beta, z = complex(alpha), complex(beta), complex(z)
    w = 1.0 - z
    lw = cmath.log(w)
    gg = gamma_complex(gamma)

    head = complex(0.0)
    if m >= 1:
        coeff = gg * gamma_complex(m) * rgamma_complex(alpha + m) * rgamma_complex(beta + m)
        term = complex(1.0)
        for j in range(m):
            head += term
            if j < m - 1:
                term *= (alpha + j) * (beta + j) / ((j + 1.0) * (j + 1.0 - m)) * w
        head *= coeff

    tail = complex(0.0)
    coeff = gg * rgamma_complex(alpha) * rgamma_complex(beta) * (-1.0) ** m
    if coeff != 0.0:
        term = complex(1.0) / math.factorial(m)
        quiet = 0
        for j in range(_MAX_TERMS):
            bracket = (
                lw
                - digamma_complex(j + 1.0)
                - digamma_complex(j + m + 1.0)
                + digamma_complex(alpha + j + m)
                + digamma_complex(beta + j + m)
            )
            piece = term * bracket
            tail += piece
            if abs(piece) <= 1e-17 * max(abs(tail), 1.0):
                quiet += 1
                if quiet >= 3:
                    break
            else:
                quiet = 0
            term *= (alpha + m + j) * (beta + m + j) / ((j + 1.0) * (j + m + 1.0)) * w
        else:
            raise ConvergenceError(
                f"2F1 logarithmic series did not converge at |1-z|={abs(w):.3f}"
            )
        tail *= -coeff * w ** m
    return head + tail


def _connection_2f1(alpha, beta, gamma, z):
    m = _as_int(complex(gamma) - complex(alpha) - complex(beta))
    if m is None:
        return _connection_generic(alpha, beta, gamma, z)
    if m >= 0:
        return _connection_integer(alpha, beta, gamma, z, m)
    # Euler transform flips the sign of gamma - alpha - beta.
    w = 1.0 - complex(z)
    return w ** m * _connection_integer(gamma - alpha, gamma - beta, gamma, z, -m)


def gauss_2f1(alpha, beta, gamma, z, method="auto"):
    """2F1(alpha, beta; gamma; z) on the principal branch.

    method: "auto" picks by region; "series" / "connection" force one route
    (used to cross-validate them on the overlap ring).  ValidationError on a
    non-finite parameter or z.
    """
    z = complex(z)
    if not all(map(cmath.isfinite, (complex(alpha), complex(beta), complex(gamma), z))):
        raise ValidationError(f"2F1 needs finite parameters, got {alpha}, {beta}; {gamma}; {z}")
    ga = _as_nonpositive_int(gamma)
    na, nb = _as_nonpositive_int(alpha), _as_nonpositive_int(beta)
    if na is not None or nb is not None:
        degree = max(d for d in (na, nb) if d is not None)  # least truncation wins
        if ga is not None and ga > degree:
            raise ValidationError(
                f"2F1 undefined: gamma={gamma} hits a pole before the series terminates"
            )
        return _polynomial_2f1(alpha, beta, gamma, z, -degree)
    if ga is not None:
        raise ValidationError(f"2F1 undefined at nonpositive integer gamma={gamma}")
    if z.imag == 0.0 and z.real >= 1.0:
        raise ValidationError(f"z={z.real} lies on the branch cut [1, oo)")

    if method == "series":
        return _series_2f1(alpha, beta, gamma, z)
    if method == "connection":
        return _connection_2f1(alpha, beta, gamma, z)
    if method != "auto":
        raise ValidationError(f"unknown 2F1 method {method!r}")
    if abs(z) <= _SERIES_RADIUS:
        return _series_2f1(alpha, beta, gamma, z)
    if abs(1.0 - z) <= _CONNECTION_RADIUS:
        return _connection_2f1(alpha, beta, gamma, z)
    raise ConvergenceError(
        f"z={z} outside both convergence regions (|z| <= {_SERIES_RADIUS} or "
        f"|1-z| <= {_CONNECTION_RADIUS}); no analytic continuation path implemented"
    )


def gauss_2f1_deriv(alpha, beta, gamma, z):
    """d/dz 2F1 via the contiguous relation."""
    pre = complex(alpha) * complex(beta) / complex(gamma)
    return pre * gauss_2f1(alpha + 1.0, beta + 1.0, gamma + 1.0, z)


def hypergeom_ode_residual(alpha, beta, gamma, z):
    """|z(1-z) F'' + (gamma - (alpha+beta+1) z) F' - alpha beta F| over its largest term."""
    alpha, beta, gamma, z = complex(alpha), complex(beta), complex(gamma), complex(z)
    F = gauss_2f1(alpha, beta, gamma, z)
    F1 = gauss_2f1_deriv(alpha, beta, gamma, z)
    F2 = alpha * beta / gamma * gauss_2f1_deriv(alpha + 1.0, beta + 1.0, gamma + 1.0, z)
    return scaled_residual(z * (1.0 - z) * F2, (gamma - (alpha + beta + 1.0) * z) * F1,
                           -alpha * beta * F)


def limit_near_one(alpha, beta, gamma):
    """Coefficient C with 2F1(z) ~ C (1-z)^(gamma-alpha-beta) as z -> 1-.

    Requires Re(gamma - alpha - beta) < 0 (the divergent regime).
    """
    gab = complex(gamma) - complex(alpha) - complex(beta)
    if not gab.real < 0:
        raise ValidationError(
            f"singular limit needs Re(gamma-alpha-beta) < 0, got {gab.real}"
        )
    return (
        gamma_complex(gamma)
        * gamma_complex(-gab)
        * rgamma_complex(alpha)
        * rgamma_complex(beta)
    )
