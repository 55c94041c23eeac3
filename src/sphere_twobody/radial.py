"""Radial reduction of the two-body problem on the n-sphere.

After separating off an invariant-operator eigenvector, the relative motion
collapses to a single ODE in the stereographic radius r = tan(rho / 2R),
rho the geodesic distance:

    f'' + p(r) f' + q(r) f = 0,
    p = (n - 1 + (3 - n) r^2) / ((1 + r^2) r),
    q = (8 / (1 + r^2)^2) (m R^2 (E - V) - a/r^2 - b - c r^2),

with m the reduced mass and (a, b, c) rational constants fixed by the
classification case: a = -delta2/8, b = -(delta0 + delta1 + delta2)/8 and
c = -delta1/8 (`coefficients_from_record`), from the eigenvalues of the
case's record in `ladder._rows`, which `classify_common_eigenvectors`
checks exactly on the ladder bands.

The equation's indicial roots are computed here and only here:
`endpoint_root` at r = 0 and oo, `wall_root` at the oscillator's wall r = 1,
and `_pole_root` at the complex poles r = +-i, which both the closed forms
(`spectra`) and the Fuchsian data (`fuchsian`) read.  The equation's
polynomial form is written only in `reduced_equation`, whose record maps it
to each shooting end.

Also provides the interaction potentials and the kinetic coefficient
functions A, B, C of the two-body Hamiltonian (B vanishes identically for
equal masses).
"""

import cmath
import functools
import math
import numbers
import sys
from fractions import Fraction
from typing import NamedTuple

from .errors import ValidationError, _Validated
from .ladder import MASS_EQUAL, _rows
from .liealg import AlgebraLabel, HighestWeight

__all__ = [
    "KIND_COULOMB",
    "KIND_OSCILLATOR",
    "PhysicalParams",
    "RadialCoefficients",
    "radial_coefficients",
    "coefficients_from_record",
    "valid_cases",
    "endpoint_root",
    "endpoint_exponent",
    "wall_root",
    "wall_exponent",
    "sample_radii",
    "potential",
    "spectral_ode",
    "ReducedEquation",
    "reduced_equation",
    "hamiltonian_ABC",
]

KIND_COULOMB = "coulomb"
KIND_OSCILLATOR = "oscillator"


def _check_kind(kind):
    if kind not in (KIND_COULOMB, KIND_OSCILLATOR):
        raise ValidationError(f"unknown potential kind {kind!r}")


class _PhysicalParamsFields(NamedTuple):
    n: int
    m1: float
    m2: float
    radius: float
    coupling: float


class PhysicalParams(_Validated, _PhysicalParamsFields):
    """Masses, sphere radius, and coupling (gamma or omega by context)."""

    __slots__ = ()

    def _validate(self):
        if not (isinstance(self.n, int) and self.n >= 2):
            raise ValidationError(f"sphere dimension must be an integer >= 2, got {self.n}")
        for name in ("m1", "m2", "radius"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValidationError(f"{name} must be positive and finite, got {v}")
        if not math.isfinite(self.coupling):
            raise ValidationError(f"coupling must be finite, got {self.coupling}")
        # every level divides by m R^2: 0.0, a subnormal or inf there breaks the closed forms
        mr2 = self.reduced_mass * self.radius * self.radius
        if not sys.float_info.min <= mr2 < math.inf:
            raise ValidationError(
                f"reduced mass times radius^2 must be a positive normal float, got {mr2}")

    @property
    def reduced_mass(self):
        m1, m2 = self.m1, self.m2
        product = m1 * m2
        if sys.float_info.min <= product < math.inf:
            return product / (m1 + m2)
        # the product overflows or underflows: lo / (1 + lo/hi) cannot
        lo, hi = min(m1, m2), max(m1, m2)
        return lo / (1.0 + lo / hi)

    @property
    def equal_masses(self):
        return self.m1 == self.m2


class RadialCoefficients(NamedTuple):
    """The (a, b, c) triple of one classification case, with its carrier."""

    n: int
    case_id: int
    a: Fraction
    b: Fraction
    c: Fraction
    mass_mode: str
    carrier: HighestWeight

    @property
    def symmetric(self):
        """a == c; required for the closed-form spectrum."""
        return self.a == self.c


def valid_cases(n):
    """Case ids available in dimension n."""
    if n == 2:
        return tuple(range(1, 9))
    return (1, 2, 3, 4)


def radial_coefficients(n, case_id, mk=None):
    """The (a, b, c) triple of a classification case in dimension n.

    The triple is `coefficients_from_record` of the case's record in
    `ladder._rows` on the carrier weight (m,) for n = 2 and (0, ..., 0,
    mk - drop, mk) for n >= 3, with drop = 0, 1, 1, 2 for cases 1-4.  For
    n = 2 the case determines m, so mk is optional (an int equal to m if
    supplied: a float or bool is refused even where it equals m).
    For n >= 3, mk is required and must be an int, not a bool, of at least
    the case's drop.  The triple is built once per (carrier, case) after
    these checks and shared, as the record is immutable.
    """
    if not (isinstance(n, int) and n >= 2):
        raise ValidationError(f"sphere dimension must be an integer >= 2, got {n}")
    if case_id not in valid_cases(n):
        raise ValidationError(f"case {case_id} does not exist for n={n}")
    alg = AlgebraLabel.for_sphere(n)

    if n == 2:
        m = (case_id + 1) // 3  # cases 1 | 2-4 | 5-7 | 8 carry m = 0 | 1 | 2 | 3
        # before the cache, where 1.0 and True would hash like 1
        if mk is not None and (isinstance(mk, bool) or not isinstance(mk, int)):
            raise ValidationError(f"n=2 case {case_id} needs integer mk, got {mk}")
        if mk is not None and mk != m:
            raise ValidationError(f"n=2 case {case_id} carries m={m}, got mk={mk}")
        carrier = HighestWeight(alg, (m,))
    else:
        if mk is None:
            raise ValidationError("mk is required for n >= 3")
        drop = case_id // 2
        if isinstance(mk, bool) or not (isinstance(mk, int) and mk >= drop):
            raise ValidationError(f"case {case_id} needs integer mk >= {drop}, got {mk}")
        carrier = HighestWeight(alg, (0,) * (alg.rank - 2) + (mk - drop, mk))
    return _sector_coefficients(carrier, case_id)


@functools.lru_cache(maxsize=256)
def _sector_coefficients(carrier, case_id):
    """The classified record's triple, built once per validated (carrier, case)."""
    record = next(rec for rec, _ in _rows(carrier) if rec.case_id == case_id)
    return coefficients_from_record(record)


def coefficients_from_record(record):
    """Map a classified eigenvector record to its (a, b, c) triple:
    (-delta2/8, -(delta0 + delta1 + delta2)/8, -delta1/8)."""
    d0, d1, d2 = record.delta0, record.delta1, record.delta2
    return RadialCoefficients(record.carrier.algebra.sphere_dim, record.case_id,
                              Fraction(-d2, 8), Fraction(-(d0 + d1 + d2), 8), Fraction(-d1, 8),
                              record.mass_mode, record.carrier)


def endpoint_root(n, coeff):
    """Indicial root at r = 0 (coeff = a) or oo (coeff = c): exponents (2 - n +- root)/2."""
    disc = (n - 2) ** 2 + 32.0 * coeff
    if disc < 0.0:
        raise ValidationError(f"coefficient {coeff} makes the indicial exponents complex")
    return math.sqrt(disc)


def endpoint_exponent(n, coeff):
    """The regular exponent rho0 = (2 - n + root)/2 at r = 0 (coeff = a) or oo (coeff = c)."""
    return (2.0 - n + endpoint_root(n, coeff)) / 2.0


def _fourth_power(R):
    """R ** 4; ValidationError where float `**` raises OverflowError instead of returning inf."""
    try:
        return R ** 4
    except OverflowError:
        raise ValidationError(f"radius {R} is too large: R^4 overflows a float") from None


def wall_root(params):
    """The oscillator's indicial root W at r = 1: exponents (1 +- W)/2."""
    m, R, w = params.reduced_mass, params.radius, params.coupling
    return math.sqrt(1.0 + 4.0 * m * _fourth_power(R) * w * w)


def wall_exponent(params):
    """The oscillator's regular exponent (1 + W)/2 at r = 1."""
    return (1.0 + wall_root(params)) / 2.0


def _pole_root(kind, params, coeffs, energy, sign=1):
    """Principal root s at the pole r = sign i: exponents (n - 1 +- s)/2 at energy E.

    Coulomb: s^2 = (n-1)^2 + 8 (m R^2 E - sign i m R g + a + c - b).
    Oscillator: s^2 = (n-1)^2 + 8 m R^2 E + 4 m R^4 w^2 + 8 (a + c) - 8 b,
    the same at both poles.
    """
    n, m, R, g = params.n, params.reduced_mass, params.radius, params.coupling
    a, b, c = float(coeffs.a), float(coeffs.b), float(coeffs.c)
    if kind == KIND_COULOMB:
        imag = -sign * 1j * m * R * g
        return cmath.sqrt((n - 1) ** 2 + 8.0 * (m * energy * R * R + imag + (a + c) - b))
    w2 = 4.0 * m * _fourth_power(R) * g * g  # W^2 - 1
    return cmath.sqrt((n - 1) ** 2 + 8.0 * m * energy * R * R + w2 + 8.0 * (a + c) - 8.0 * b)


def sample_radii(kind, count):
    """Interior points: half-angle spaced for Coulomb, uniform on (0, 1) else."""
    if kind == KIND_COULOMB:
        return [math.tan(math.pi * (i + 1) / (count + 1) / 2.0) for i in range(count)]
    return [(i + 1) / (count + 1) for i in range(count)]


def potential(kind, params):
    """V(r) in the stereographic coordinate."""
    _check_kind(kind)
    R, g = params.radius, params.coupling
    if kind == KIND_COULOMB:
        return lambda r: (g / (2.0 * R)) * (r - 1.0 / r)
    return lambda r: 2.0 * R * R * g * g * r * r / (1.0 - r * r) ** 2


def _check_compatible(params, coeffs):
    if params.n != coeffs.n:
        raise ValidationError(
            f"parameters are for n={params.n} but coefficients for n={coeffs.n}"
        )
    if coeffs.mass_mode == MASS_EQUAL and not params.equal_masses:
        raise ValidationError(
            f"case {coeffs.case_id} exists only for equal masses, got "
            f"m1={params.m1}, m2={params.m2}"
        )


def _check_energy(energy):
    if isinstance(energy, bool) or not isinstance(energy, numbers.Real):
        raise ValidationError(f"non-real energy {energy!r}")
    if not math.isfinite(energy):
        raise ValidationError(f"non-finite energy {energy}")


def spectral_ode(kind, params, coeffs, energy):
    """Coefficient closures (p, q) of f'' + p f' + q f = 0 at fixed energy."""
    _check_kind(kind)
    _check_compatible(params, coeffs)
    _check_energy(energy)
    n = params.n
    m, R = params.reduced_mass, params.radius
    a, b, c = float(coeffs.a), float(coeffs.b), float(coeffs.c)
    mR2 = m * R * R

    def p(r):
        return (n - 1 + (3 - n) * r * r) / ((1 + r * r) * r)

    V = potential(kind, params)

    def q(r):
        r2 = r * r
        return (8.0 / (1 + r2) ** 2) * (mR2 * (energy - V(r)) - a / r2 - b - c * r2)

    return p, q


def _mul(p, q):
    """Product of two polynomials, ascending coefficient lists."""
    out = [0.0] * (len(p) + len(q) - 1)
    for i, u in enumerate(p):
        for k, v in enumerate(q):
            out[i + k] += u * v
    return out


def _shift(poly, c):
    """poly(x + c) from poly(x), ascending lists, by repeated synthetic division.

    Every operation is an exact add of c times an entry when the entries and
    c are small integers, as for the record's lists at c = 1.
    """
    out = list(poly)
    for i in range(len(out) - 1):
        for k in range(len(out) - 2, i - 1, -1):
            out[k] += c * out[k + 1]
    return out


def _reflect(poly):
    """poly(1 - x) from poly(r): the shift to r = 1, then x -> -x."""
    return [-u if i % 2 else u for i, u in enumerate(_shift(poly, 1.0))]


class ReducedEquation(NamedTuple):
    """The radial equation A r^2 f'' + B r f' + (C0 + w W + E s S) f = 0.

    It is spectral_ode's equation times r^2 (1 + r^2)^2, and (1 - r^2)^2
    for the oscillator, in ascending lists in r.  Every coefficient but
    Coulomb's g terms in C0 is an integer (8a, 8b and 8c are), and the float
    scales s = 8 m R^2 and w = -16 m R^4 g^2 stay outside the lists, so both
    end maps act exactly.  `rho` holds the regular exponents at r = 0 and at
    the far end, r = oo or the wall r = 1.
    """

    kind: str
    A: list
    B: list
    C0: list
    W: list
    S: list
    w: float
    s: float
    rho: tuple

    def ends(self):
        """(A, B, C0 + w W, s S, rho) at r = 0 in x = r and at the far end in its own x.

        Coulomb's far end is x = 1/r: r f' = -x f_x and r^2 f'' = x^2 f_xx
        + 2 x f_x turn B into 2A - B, and times x^4 every list reverses.
        The oscillator's is x = 1 - r, a Taylor shift: A r^2 and -B r carry
        the wall's x^2 and x, divided out.
        """
        near = (self.A, self.B, self.C0, self.W, self.S)
        if self.kind == KIND_COULOMB:
            far = [poly[::-1] for poly in
                   (self.A, [2.0 * u - v for u, v in zip(self.A, self.B)], *near[2:])]
        else:
            far = [_reflect([0.0, 0.0] + self.A)[2:], [-u for u in _reflect([0.0] + self.B)[1:]],
                   *map(_reflect, near[2:])]
        return tuple((A, B, [u + self.w * v for u, v in zip(C0, W)], [self.s * v for v in S], rho)
                     for (A, B, C0, W, S), rho in zip((near, far), self.rho))


def reduced_equation(kind, params, coeffs):
    """The sector's ReducedEquation: the equation and its regular exponents, no level."""
    _check_kind(kind)
    _check_compatible(params, coeffs)
    n, m, R, g = params.n, params.reduced_mass, params.radius, params.coupling
    a, b, c = float(coeffs.a), float(coeffs.b), float(coeffs.c)
    mR2 = m * R * R
    h = 4.0 * m * R * g if kind == KIND_COULOMB else 0.0
    A = [1.0, 0.0, 2.0, 0.0, 1.0]  # (1 + r^2)^2
    B = [n - 1.0, 0.0, 2.0, 0.0, 3.0 - n]  # (1 + r^2)(n - 1 + (3 - n) r^2)
    C0, S = [-8.0 * a, h, -8.0 * b, -h, -8.0 * c], [0.0, 0.0, 1.0, 0.0, 0.0]
    if kind == KIND_COULOMB:  # no wall term
        return ReducedEquation(kind, A, B, C0, [0.0] * 5, S, 0.0, 8.0 * mR2,
                               (endpoint_exponent(n, a), endpoint_exponent(n, c)))
    A, B, C0, S = (_mul(poly, [1.0, 0.0, -2.0, 0.0, 1.0]) for poly in (A, B, C0, S))  # (1 - r^2)^2
    return ReducedEquation(kind, A, B, C0, [0.0] * 4 + [1.0] + [0.0] * 4, S,
                           -16.0 * mR2 * R * R * g * g, 8.0 * mR2,
                           (endpoint_exponent(n, a), wall_exponent(params)))


def hamiltonian_ABC(params, alpha=None):
    """Kinetic coefficients A, B, C of the two-body radial Hamiltonian.

    alpha in (0, 1) is the gauge split of the relative angle between the
    particles; the canonical choice m2/(m1+m2) makes the pair comoving.
    B vanishes identically iff m1 == m2 with the canonical split, and
    A + C == (1+r^2)^2 / (4 m R^2 r^2) for every split.
    """
    import numpy as np

    m1, m2, R = params.m1, params.m2, params.radius
    if alpha is None:
        alpha = m2 / (m1 + m2)
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
    beta = 1.0 - alpha
    denom = 4.0 * m1 * m2 * R * R

    def A(r):
        t = np.arctan(r)
        pre = (1 + r * r) ** 2 / (denom * r * r)
        return pre * (m1 * np.cos(2 * alpha * t) ** 2 + m2 * np.cos(2 * beta * t) ** 2)

    def B(r):
        t = np.arctan(r)
        pre = (1 + r * r) ** 2 / (2 * denom * r * r)
        return pre * (m1 * np.sin(4 * alpha * t) - m2 * np.sin(4 * beta * t))

    def C(r):
        t = np.arctan(r)
        pre = (1 + r * r) ** 2 / (denom * r * r)
        return pre * (m1 * np.sin(2 * alpha * t) ** 2 + m2 * np.sin(2 * beta * t) ** 2)

    return A, B, C
