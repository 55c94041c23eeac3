"""Gauss hypergeometric evaluation tuned for the radial eigenfunctions.

2F1 is computed by two independent routes -- the defining series near 0 and
the z -> 1-z connection formulas near 1 -- each valid on an explicit disk,
with the overlap ring used to cross-check one route against the other.
Polynomial cases (a nonpositive integer numerator parameter -d) run the
three-term contiguous relation in that parameter (DLMF §15.5(ii)) from
F_0 = 1 up to F_d, which stays accurate at degrees where the alternating
term-by-term sum cancels to noise; the analytic routes are exercised by
generic parameters.  The connection route's Gamma, 1/Gamma and psi are
Stirling's series after the upward recurrence, in plain Python.

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


# B_2 .. B_26 for Stirling's series (DLMF 5.11.1-2), whose next term is below 1e-16 at
# |w| >= 6: B_2k / (2k (2k - 1)) for log Gamma and B_2k / 2k for psi, highest k first
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
              43867 / 798, -174611 / 330, 854513 / 138, -236364091 / 2730, 8553103 / 6)
_STIRLING = [(b / (2 * k * (2 * k - 1)), b / (2 * k)) for k, b in enumerate(_BERNOULLI, 1)][::-1]


def _log_gamma_and_psi(z):
    """(log Gamma, psi) at Re z >= 1/2: z -> z + 1 (DLMF 5.5.2) until Re z >= 6, then Stirling."""
    shift, psi = 1.0, 0.0
    while z.real < 6.0:
        shift, psi, z = shift * z, psi - 1.0 / z, z + 1.0
    log_z, x, lg_sum, psi_sum = cmath.log(z), 1.0 / (z * z), 0.0, 0.0
    for a, b in _STIRLING:  # Horner in x = 1/z^2
        lg_sum, psi_sum = lg_sum * x + a, psi_sum * x + b
    log_gamma = (z - 0.5) * (log_z - 1.0) + (math.log(2.0 * math.pi) - 1.0) / 2 - cmath.log(shift)
    return log_gamma + lg_sum / z, psi + log_z - 0.5 / z - psi_sum * x


def gamma_complex(z):
    """Gamma, as 1 / `rgamma_complex`; ValidationError where that is 0 (a pole, or overflow)."""
    r = rgamma_complex(z)
    if r == 0.0:
        raise ValidationError(f"Gamma is infinite at z = {z}")
    return 1.0 / r


def rgamma_complex(z):
    """1/Gamma at a finite z, exactly 0 at the poles; below Re z = 1/2 by reflection (DLMF 5.5.3).

    ConvergenceError where 1/Gamma or sin(pi z) overflows: from Re z of about -171, and left of
    Re z = 1/2 from |Im z| of about 225.
    """
    z = complex(z)
    try:
        if z.real >= 0.5:
            return cmath.exp(-_log_gamma_and_psi(z)[0])
        n = round(z.real)  # sin(pi z) = (-1)^n sin(pi (z - n)), exactly 0 at the poles
        return (-1) ** n * cmath.sin(math.pi * (z - n)) / math.pi * cmath.exp(
            _log_gamma_and_psi(1.0 - z)[0])
    except OverflowError:
        raise ConvergenceError(f"1/Gamma overflows at z = {z}") from None


def digamma_complex(z):
    """Digamma (Gamma'/Gamma) at a finite z; below Re z = 1/2 by reflection (DLMF 5.5.4)."""
    z = complex(z)
    if z.real >= 0.5:
        return _log_gamma_and_psi(z)[1]
    t = math.pi * (z - round(z.real))  # tan(t) = tan(pi z); t is exactly 0 at the poles
    if t == 0.0:
        raise ValidationError(f"digamma has a pole at z = {z.real:g}")
    return _log_gamma_and_psi(1.0 - z)[1] - math.pi / cmath.tan(t)


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


def _terminating_2f1(degree, beta, gamma, z):
    """F_d = 2F1(-d, beta; gamma; z) by the contiguous relation in the first parameter.

    (gamma + m) F_(m+1) = (gamma + 2m - (beta + m) z) F_m + m (z - 1) F_(m-1)
    from F_0 = 1 (the factor m drops F_(-1)); it divides by gamma + m only
    for m < d, the poles the caller has ruled out.
    """
    beta, gamma, z = complex(beta), complex(gamma), complex(z)
    w = z - 1.0
    prev, cur = 0.0, complex(1.0)
    for m in range(degree):
        prev, cur = cur, ((gamma + 2 * m - (beta + m) * z) * cur + m * w * prev) / (gamma + m)
    return cur


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


def _gamma_ratio(a, b, c, d):
    """Gamma(a) Gamma(b) / (Gamma(c) Gamma(d)), the connection coefficients of DLMF 15.8."""
    return gamma_complex(a) * gamma_complex(b) * (rgamma_complex(c) * rgamma_complex(d))


def _connection_generic(alpha, beta, gamma, z):
    # Valid when gamma - alpha - beta is not an integer.
    w = 1.0 - z
    gab = gamma - alpha - beta
    c1 = _gamma_ratio(gamma, gab, gamma - alpha, gamma - beta)
    c2 = _gamma_ratio(gamma, -gab, alpha, beta)
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
        # psi(j + 1), psi(j + m + 1), psi(alpha + j + m) and psi(beta + j + m), carried
        # by psi(x + 1) = psi(x) + 1/x (DLMF 5.5.2), the last two evaluated afresh
        # while Re x < 1/2, so that the recurrence never steps across a pole
        psi_j, psi_jm = digamma_complex(1.0), digamma_complex(m + 1.0)
        psi_a = psi_b = None
        for j in range(_MAX_TERMS):
            xa, xb = alpha + j + m, beta + j + m
            psi_a = digamma_complex(xa) if not j or xa.real < 0.5 else psi_a + 1.0 / (xa - 1.0)
            psi_b = digamma_complex(xb) if not j or xb.real < 0.5 else psi_b + 1.0 / (xb - 1.0)
            if j:
                psi_j += 1.0 / j
                psi_jm += 1.0 / (j + m)
            bracket = lw - psi_j - psi_jm + psi_a + psi_b
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
    (used to cross-validate them on the overlap ring).  A numerator within
    1e-9 of a nonpositive integer -d makes 2F1 a polynomial of degree d, run
    at any z by `_terminating_2f1` in whichever numerator terminates first;
    ValidationError if gamma's pole comes before that term.  ValidationError
    on a non-finite parameter or z.
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
        if na != degree:  # beta terminates first: 2F1 is symmetric in its numerators
            alpha, beta = beta, alpha
        return _terminating_2f1(-degree, beta, gamma, z)
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
    return _gamma_ratio(gamma, -gab, alpha, beta)
