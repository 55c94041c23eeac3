"""Closed-form energy levels and radial eigenfunctions.

For coefficient triples with a = c both potentials quantize explicitly:

    Coulomb    (k >= 1):  E_k = (  (k^2 - k + 1)/2 - n/4 + 2a + b
                                 + (2k - 1) A / 4 ) / (m R^2)
                                 - 2 m gamma^2 / (A + 2k - 1)^2,
    oscillator (k >= 0):  E_k = (T^2 - (n-1)^2 - 16 a + 8 b + 1) / (8 m R^2)
                                 + T W / (4 m R^2),

with A = sqrt((n-2)^2 + 32 a), W = sqrt(1 + 4 m R^4 omega^2) and
T = 4k + 2 + A.  Each level's eigenfunction is an elementary prefactor
times 2F1(-d, b; c; z) / d!, terminating at degree d = k - 1 (Coulomb) or
d = k (oscillator).  `RadialEigenfunction` evaluates it by the three-term
contiguous relation in the first parameter (DLMF §15.5(ii)) with 1/d!
folded into each step: O(d) per point, on a complex scalar or a numpy
array of radii.  `norm_squared` forms |f| = |P| |G| as real arrays and
squares it only then, so its sum keeps the float range of |f| itself: the
oscillator's prefactor P is real, Coulomb's has
|P| = r^rho0 (1 + r^2)^-rho0 exp(Im rho1 (pi - theta)) with
r = tan(theta/2), and G runs in floats where b is real (every oscillator
level).
`jet` returns (f, f', f'') on plain complex scalars: the same recurrence
also carries the z-derivatives of each G_m, and the prefactor enters
through its logarithmic derivatives in closed form, with f itself bit for
bit `fn(r)`.  A level's `branch_check` flag (`verified` in
the CLI) records that the quantization condition holds on the stated
square-root branch and that the jet at one radius r0 solves the radial
ODE: |f'' + p f' + q f| over its largest term, with no floor, is at most
RESIDUAL_TOLERANCE, however small f is.  An eigenfunction that underflows
to zero reads unverified.  Every energy is a finite real float:
`radial_eigenfunction` raises ValidationError on any other.

Asymmetric triples (a != c) admit no such closed form; `spectrum` then
returns an empty, `numeric_only` report and the shooting oracle is the way
to get numbers.
"""

import collections
import math
import sys
from typing import NamedTuple

from .errors import ConvergenceError, ValidationError
# pochhammer is unused here; the tracer in perfbench/tracing.py wraps both names
from .hyperfun import gauss_2f1, pochhammer  # noqa: F401
from .liealg import weyl_dim
from .oracle import RESIDUAL_TOLERANCE, gauss_legendre, ode_residual
from .radial import (
    KIND_COULOMB,
    KIND_OSCILLATOR,
    _check_compatible,
    _check_energy,
    _check_kind,
    _pole_root,
    endpoint_exponent,
    endpoint_root,
    spectral_ode,
    wall_exponent,
    wall_root,
)

__all__ = [
    "BRANCH_TOLERANCE",
    "RESIDUAL_TOLERANCE",
    "K_MIN",
    "EnergyLevel",
    "SpectrumReport",
    "coulomb_energy",
    "oscillator_energy",
    "closed_form_energy",
    "branch_residuals",
    "RadialEigenfunction",
    "radial_eigenfunction",
    "spectrum",
]

BRANCH_TOLERANCE = 1e-10
_R0 = {KIND_COULOMB: 0.7, KIND_OSCILLATOR: 0.45}  # where `spectrum` checks the ODE residual

K_MIN = {KIND_COULOMB: 1, KIND_OSCILLATOR: 0}  # each kind's lowest level index


def _require_symmetric(coeffs):
    if not coeffs.symmetric:
        raise ValidationError(
            f"case {coeffs.case_id} has a != c: no closed-form spectrum, "
            "use the shooting oracle"
        )


def _check_k(kind, k):
    kmin = K_MIN[kind]
    if not (isinstance(k, int) and k >= kmin):
        raise ValidationError(f"{kind} levels are indexed by integer k >= {kmin}, got {k}")


def coulomb_energy(params, coeffs, k):
    """k-th Coulomb level, k = 1, 2, ...; requires a = c.  ValidationError if
    it overflows to a non-finite float."""
    _check_compatible(params, coeffs)
    _require_symmetric(coeffs)
    _check_k(KIND_COULOMB, k)
    n, m, R, g = params.n, params.reduced_mass, params.radius, params.coupling
    a, b = float(coeffs.a), float(coeffs.b)
    A = endpoint_root(n, a)
    energy = (
        0.5 * (k * k - k + 1) - n / 4.0 + 2.0 * a + b + (2 * k - 1) / 4.0 * A
    ) / (m * R * R) - 2.0 * m * g * g / (A + 2 * k - 1) ** 2
    _check_energy(energy)
    return energy


def oscillator_energy(params, coeffs, k):
    """k-th oscillator level, k = 0, 1, ...; requires a = c.  ValidationError
    if it overflows to a non-finite float."""
    _check_compatible(params, coeffs)
    _require_symmetric(coeffs)
    _check_k(KIND_OSCILLATOR, k)
    n, m, R = params.n, params.reduced_mass, params.radius
    a, b = float(coeffs.a), float(coeffs.b)
    A = endpoint_root(n, a)
    W = wall_root(params)
    T = 4 * k + 2 + A
    energy = (T * T - (n - 1) ** 2 - 16.0 * a + 8.0 * b + 1.0) / (8.0 * m * R * R) + (
        T * W / (4.0 * m * R * R)
    )
    _check_energy(energy)
    return energy


def closed_form_energy(kind, params, coeffs, k):
    """k-th level of either kind; ValidationError if it overflows to a non-finite float."""
    _check_kind(kind)
    return (coulomb_energy if kind == KIND_COULOMB else oscillator_energy)(params, coeffs, k)


# One level's 2F1 data: f(r) = prefactor(r) 2F1(a, b; c; z(r)) / d!, with a the
# parameter the quantization condition sets to -d, and rho0, rho1 the prefactor
# exponents at r = 0 and at r = i (Coulomb) or r = 1 (oscillator).
_LevelData = collections.namedtuple("_LevelData", "d a b c rho0 rho1")


def _coulomb_data(params, coeffs, k, energy):
    n, a = params.n, float(coeffs.a)
    A = endpoint_root(n, a)
    u = _pole_root(KIND_COULOMB, params, coeffs, energy, -1)  # the root at r = -i
    # a = 1 - k on the quantized branch; the principal branch carries c - a instead
    half = (1.0 + A) / 2.0
    return _LevelData(k - 1, half - u.real / 2.0, half + 0.5j * u.imag, 1.0 + A,
                      endpoint_exponent(n, a), ((n - 1) - u.conjugate()) / 2.0)


def _oscillator_data(params, coeffs, k, energy):
    n, a = params.n, float(coeffs.a)
    A = endpoint_root(n, a)
    W = wall_root(params)
    s = _pole_root(KIND_OSCILLATOR, params, coeffs, energy)
    return _LevelData(k, (2.0 + A + W - s) / 4.0, (2.0 + A + W + s) / 4.0, 1.0 + A / 2.0,
                      endpoint_exponent(n, a), wall_exponent(params))


def _terminating_2f1(d, b, c, z):
    """G_d = 2F1(-d, b; c; z) / d! in O(d), on a scalar, numpy array or jet z.

    G_m follows from the contiguous relation
    (c-a) F(a-1) + (2a - c + (b-a) z) F(a) + a (z-1) F(a+1) = 0 at a = -m:
    (c+m) (m+1) G_(m+1) = (c + 2m - (b+m) z) G_m + (z-1) G_(m-1), with
    G_0 = 1 and G_(-1) = 0 (its factor a vanishes), so G_1 = 1 - b z / c.
    The steps are float arithmetic where b, c and z are real.
    """
    w = z - 1.0
    prev, cur = 0.0, 1.0
    for m in range(d):
        prev, cur = cur, ((c + 2 * m - (b + m) * z) * cur + w * prev) / ((c + m) * (m + 1))
    return cur


def branch_residuals(kind, params, coeffs, k, energy=None):
    """Quantization residual |a + d| on the stated branch: 0 on a level."""
    return radial_eigenfunction(kind, params, coeffs, k, energy).branch_residuals()


class RadialEigenfunction(NamedTuple):
    """Closed-form radial eigenfunction, evaluable with derivatives.

    Coulomb lives on r in (0, oo), oscillator on (0, 1).  Values are
    complex in general (the prefactor exponents are complex for Coulomb);
    the physical density is |f|^2.
    """

    kind: str
    params: object
    coeffs: object
    k: int
    energy: float
    data: _LevelData

    def _prefactor(self, r):
        """The elementary factor multiplying the terminating 2F1 sum.

        At a complex scalar r (or a jet of one); `_modulus` also passes the
        oscillator's real quadrature nodes, on which the factor is real.
        """
        rho0, rho1 = self.data.rho0, self.data.rho1
        if self.kind == KIND_COULOMB:
            # |(r - i)/(r + i)| = 1 for real r, but the power's modulus is
            # exp(Im rho1 (pi - arg)), and Im rho1 grows like the radius R;
            # float `**` raises OverflowError there
            phase = (r - 1j) / (r + 1j)
            try:
                power = phase ** rho1
            except OverflowError:
                raise self._prefactor_overflow() from None
            return r ** rho0 * power * (r + 1j) ** (-2.0 * rho0)
        return r ** rho0 * (1.0 - r * r) ** rho1 * (r * r + 1.0) ** (-(rho0 + rho1))

    def _prefactor_overflow(self):
        """The error for a Coulomb prefactor whose modulus leaves the float range."""
        return ConvergenceError(
            f"{self.kind} level k={self.k}: the eigenfunction prefactor "
            f"((r - i)/(r + i)) ** rho1 overflows, rho1 = {self.data.rho1}")

    def _hypergeometric(self, r):
        """(d, b, c, z) with f(r) = prefactor(r) 2F1(-d, b; c; z) / d!."""
        z = (4j * r / (r + 1j) ** 2 if self.kind == KIND_COULOMB
             else 4.0 * r * r / (r * r + 1.0) ** 2)
        return self.data.d, self.data.b, self.data.c, z

    def _evaluate(self, r):
        """f at a complex scalar r, in O(d).

        Duck-typed: the tests also run it on a numpy array of r and on a jet
        of r as `jet`'s reference.
        """
        return self._prefactor(r) * _terminating_2f1(*self._hypergeometric(r))

    def __call__(self, r):
        return self._evaluate(complex(r))

    def jet(self, r):
        """(f, f', f'') at real r > 0.

        f is `fn(r)` bit for bit: the same recurrence and prefactor, in the
        same order.  The recurrence also carries dG_m/dz and d2G_m/dz2, from
        differentiating it in z (never from the 2F1 equation, which would
        make the ODE residual check circular):
        (c+m) (m+1) G'_(m+1) = s G'_m - (b+m) G_m + (z-1) G'_(m-1) + G_(m-1),
        (c+m) (m+1) G''_(m+1) = s G''_m - 2 (b+m) G'_m + (z-1) G''_(m-1) + 2 G'_(m-1),
        with s = c + 2m - (b+m) z.  z', z'' and the prefactor's log-derivatives
        L' = P'/P, L'' = (log P)'' are closed forms in r, so f' = P (G' z' + L' G)
        and f'' = P (G'' z'^2 + G' z'' + 2 L' G' z' + (L'' + L'^2) G).
        """
        x = complex(r)
        d, b, c, z = self._hypergeometric(x)
        w = z - 1.0
        prev, cur = 0.0, 1.0  # G_(m-1), G_m: `_terminating_2f1`'s recurrence
        dprev, dcur, d2prev, d2cur = 0.0, 0.0, 0.0, 0.0  # their z-derivatives
        for m in range(d):
            bm = b + m
            s = c + 2 * m - bm * z
            den = (c + m) * (m + 1)
            prev, cur, dprev, dcur, d2prev, d2cur = (
                cur, (s * cur + w * prev) / den,
                dcur, (s * dcur - bm * cur + w * dprev + prev) / den,
                d2cur, (s * d2cur - 2.0 * bm * dcur + w * d2prev + 2.0 * dprev) / den)
        rho0, rho1 = self.data.rho0, self.data.rho1
        if self.kind == KIND_COULOMB:
            # z = 4i r/(r + i)^2; ((r - i)/(r + i))^rho1 contributes
            # rho1 (1/(r - i) - 1/(r + i)) = 2i rho1/(r^2 + 1) to L'
            ri = r + 1j
            u = r * r + 1.0
            dz = -4j * (r - 1j) / ri ** 3
            d2z = 8j * (r - 2j) / ri ** 4
            dL = rho0 / r + 2j * rho1 / u - 2.0 * rho0 / ri
            d2L = -rho0 / (r * r) - 4j * rho1 * r / (u * u) + 2.0 * rho0 / (ri * ri)
        else:
            # z = 4r^2/(r^2 + 1)^2, P = r^rho0 (1 - r^2)^rho1 (1 + r^2)^-(rho0 + rho1)
            u, v = r * r + 1.0, 1.0 - r * r
            dz = 8.0 * r * v / u ** 3
            d2z = 8.0 * ((3.0 * r * r - 8.0) * r * r + 1.0) / u ** 4
            dL = rho0 / r - 2.0 * rho1 * r / v - 2.0 * (rho0 + rho1) * r / u
            d2L = (-rho0 / (r * r) - 2.0 * rho1 * u / (v * v)
                   - 2.0 * (rho0 + rho1) * v / (u * u))
        pre = self._prefactor(x)
        return (pre * cur,
                pre * (dcur * dz + dL * cur),
                pre * (d2cur * dz * dz + dcur * d2z + 2.0 * dL * dcur * dz
                       + (d2L + dL * dL) * cur))

    # no caller in the package; the tracer in perfbench/tracing.py wraps this name
    def hypergeometric_value(self, r):
        """f(r) through gauss_2f1's term-by-term sum, which loses accuracy from k ~ 11."""
        d, b, c, z = self._hypergeometric(r)
        a = self.data.a  # ~ -d: gauss_2f1 detects the termination itself
        return self._prefactor(r) * gauss_2f1(a, b, c, z) * math.exp(-math.lgamma(d + 1))

    def branch_residuals(self):
        """|a + d|, which vanishes on the stated branch of a level."""
        return {"stated_branch": abs(self.data.a + self.data.d)}

    def ode_residual(self, r):
        """|f'' + p f' + q f| at real r over the largest of its three terms."""
        p, q = spectral_ode(self.kind, self.params, self.coeffs, self.energy)
        return ode_residual(p, q, self.jet, [r])

    def _modulus(self, r, theta):
        """|f| on a numpy array of real r, as a real array.

        |f| = |P| |G_d|, with the product formed before any squaring.  The
        oscillator's P is real on real r.  For Coulomb, with r = tan(theta/2),
        (r - i)/(r + i) = exp(i (theta - pi)), so
        |P| = r^rho0 (1 + r^2)^-rho0 exp(Im rho1 (pi - theta)) on the caller's
        own theta (unread for the oscillator); its overflow raises
        ConvergenceError, as the scalar path does.  G_d runs in float
        arithmetic wherever b is real, as on every oscillator level.
        """
        import numpy as np

        if self.kind == KIND_COULOMB:
            rho0, rho1 = self.data.rho0, self.data.rho1
            try:
                with np.errstate(over="raise", invalid="raise"):
                    pre = (r ** rho0 * (1.0 + r * r) ** -rho0
                           * np.exp(rho1.imag * (math.pi - theta)))
            except FloatingPointError:
                raise self._prefactor_overflow() from None
        else:
            pre = self._prefactor(r)
        d, b, c, z = self._hypergeometric(r)
        return pre * np.abs(_terminating_2f1(d, b.real if b.imag == 0.0 else b, c, z))

    def norm_squared(self, nodes=240):
        """integral of |f|^2 against the volume weight r^(n-1)/(1+r^2)^n.

        Gauss-Legendre after mapping the domain: the half-angle substitution
        r = tan(theta/2) for Coulomb, affine for the oscillator.  |f| comes
        from `_modulus` in real arithmetic and is squared only then, so the
        sum reaches as far through the float range as |f| itself.  Raises
        ConvergenceError unless the sum is a finite normal float: a subnormal
        sum has lost its relative precision to underflow.
        """
        import numpy as np

        n = self.params.n
        x, w = gauss_legendre(-1.0, 1.0, nodes)
        if self.kind == KIND_COULOMB:
            theta = (x + 1.0) * (math.pi / 2.0)
            r = np.tan(theta / 2.0)
            jac = (math.pi / 2.0) * (1.0 + r * r) / 2.0
        else:
            theta = None
            r = (x + 1.0) / 2.0
            jac = 0.5
        f = self._modulus(r, theta)
        total = float(np.sum(w * jac * f ** 2 * r ** (n - 1) / (1.0 + r * r) ** n))
        if not sys.float_info.min <= total < math.inf:
            raise ConvergenceError(
                f"{self.kind} k={self.k}: norm quadrature over {nodes} nodes gave {total!r}")
        return total


def radial_eigenfunction(kind, params, coeffs, k, energy=None):
    _check_kind(kind)
    _check_compatible(params, coeffs)
    _require_symmetric(coeffs)
    _check_k(kind, k)
    if energy is None:
        energy = closed_form_energy(kind, params, coeffs, k)
    _check_energy(energy)
    data = (_coulomb_data if kind == KIND_COULOMB else _oscillator_data)(params, coeffs, k, energy)
    return RadialEigenfunction(kind, params, coeffs, k, energy, data)


class EnergyLevel(NamedTuple):
    k: int
    energy: float
    multiplicity: int
    branch_check: bool


class SpectrumReport(NamedTuple):
    kind: str
    params: object
    coeffs: object
    levels: tuple
    numeric_only: bool


def spectrum(kind, params, coeffs, k_min, k_max):
    """Energy levels k_min..k_max with multiplicities and branch checks.

    branch_check: branch residuals <= BRANCH_TOLERANCE and the scaled ODE
    residual at r0 (0.7 Coulomb, 0.45 oscillator) <= RESIDUAL_TOLERANCE.
    Returns a numeric_only report with no levels when a != c (closed form
    unavailable); callers wanting numbers there should shoot for them.
    """
    _check_kind(kind)
    _check_compatible(params, coeffs)
    if not (isinstance(k_min, int) and isinstance(k_max, int) and k_min <= k_max):
        raise ValidationError(f"need integer k_min <= k_max, got {k_min}..{k_max}")
    _check_k(kind, k_min)
    if not coeffs.symmetric:
        return SpectrumReport(kind, params, coeffs, (), True)
    mult = weyl_dim(coeffs.carrier.algebra, coeffs.carrier)
    levels = []
    for k in range(k_min, k_max + 1):
        E = closed_form_energy(kind, params, coeffs, k)
        fn = radial_eigenfunction(kind, params, coeffs, k, E)
        ok = (fn.branch_residuals()["stated_branch"] <= BRANCH_TOLERANCE
              and fn.ode_residual(_R0[kind]) <= RESIDUAL_TOLERANCE)
        levels.append(EnergyLevel(k, E, mult, ok))
    return SpectrumReport(kind, params, coeffs, tuple(levels), False)
