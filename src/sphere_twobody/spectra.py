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
folded into each step: O(d) per point, on a complex scalar, a `Jet` or a
numpy array of radii.  A level's `branch_check` flag (`verified` in the
CLI) records that the quantization condition holds on the stated
square-root branch, that E is real, and that the jet at one radius r0
solves the radial ODE: |f'' + p f' + q f| over its largest term, with no
floor, is at most RESIDUAL_TOLERANCE, however small f is.  An eigenfunction
that underflows to zero reads unverified.

Asymmetric triples (a != c) admit no such closed form; `spectrum` then
returns an empty, `numeric_only` report and the shooting oracle is the way
to get numbers.
"""

import cmath
import collections
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError
# pochhammer is unused here; the tracer in perfbench/tracing.py wraps both names
from .hyperfun import gauss_2f1, pochhammer  # noqa: F401
from .jets import Jet
from .liealg import weyl_dim
from .oracle import RESIDUAL_TOLERANCE, gauss_legendre, ode_residual
from .radial import (
    KIND_COULOMB,
    KIND_OSCILLATOR,
    _check_compatible,
    _check_kind,
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
    """k-th Coulomb level, k = 1, 2, ...; requires a = c."""
    _check_compatible(params, coeffs)
    _require_symmetric(coeffs)
    _check_k(KIND_COULOMB, k)
    n, m, R, g = params.n, params.reduced_mass, params.radius, params.coupling
    a, b = float(coeffs.a), float(coeffs.b)
    A = endpoint_root(n, a)
    return (
        0.5 * (k * k - k + 1) - n / 4.0 + 2.0 * a + b + (2 * k - 1) / 4.0 * A
    ) / (m * R * R) - 2.0 * m * g * g / (A + 2 * k - 1) ** 2


def oscillator_energy(params, coeffs, k):
    """k-th oscillator level, k = 0, 1, ...; requires a = c."""
    _check_compatible(params, coeffs)
    _require_symmetric(coeffs)
    _check_k(KIND_OSCILLATOR, k)
    n, m, R = params.n, params.reduced_mass, params.radius
    a, b = float(coeffs.a), float(coeffs.b)
    A = endpoint_root(n, a)
    W = wall_root(params)
    T = 4 * k + 2 + A
    return (T * T - (n - 1) ** 2 - 16.0 * a + 8.0 * b + 1.0) / (8.0 * m * R * R) + (
        T * W / (4.0 * m * R * R)
    )


def closed_form_energy(kind, params, coeffs, k):
    _check_kind(kind)
    if kind == KIND_COULOMB:
        return coulomb_energy(params, coeffs, k)
    return oscillator_energy(params, coeffs, k)


# One level's 2F1 data: f(r) = prefactor(r) 2F1(a, b; c; z(r)) / d!, with a the
# parameter the quantization condition sets to -d, and rho0, rho1 the prefactor
# exponents at r = 0 and at r = i (Coulomb) or r = 1 (oscillator).
_LevelData = collections.namedtuple("_LevelData", "d a b c rho0 rho1")


def _coulomb_data(params, coeffs, k, energy):
    n, m, R, g = params.n, params.reduced_mass, params.radius, params.coupling
    a, b = float(coeffs.a), float(coeffs.b)
    A = endpoint_root(n, a)
    u = cmath.sqrt((n - 1) ** 2 + 8.0 * (m * energy * R * R + 1j * m * R * g + 2.0 * a - b))
    # a = 1 - k on the quantized branch; the principal branch carries c - a instead
    half = (1.0 + A) / 2.0
    return _LevelData(k - 1, half - u.real / 2.0, half + 0.5j * u.imag, 1.0 + A,
                      endpoint_exponent(n, a), ((n - 1) - u.conjugate()) / 2.0)


def _oscillator_data(params, coeffs, k, energy):
    n, m, R, w = params.n, params.reduced_mass, params.radius, params.coupling
    a, b = float(coeffs.a), float(coeffs.b)
    A = endpoint_root(n, a)
    W = wall_root(params)
    s = cmath.sqrt(
        (n - 1) ** 2 + 8.0 * m * energy * R * R + 4.0 * m * R ** 4 * w * w
        + 16.0 * a - 8.0 * b
    )
    return _LevelData(k, (2.0 + A + W - s) / 4.0, (2.0 + A + W + s) / 4.0, 1.0 + A / 2.0,
                      endpoint_exponent(n, a), wall_exponent(params))


def branch_residuals(kind, params, coeffs, k, energy=None):
    """Quantization residual |a + d| on the stated branch, plus |Im E|: both 0 on a level."""
    return radial_eigenfunction(kind, params, coeffs, k, energy).branch_residuals()


@dataclass(frozen=True)
class RadialEigenfunction:
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
    _data: _LevelData

    def _prefactor(self, r):
        """The elementary factor multiplying the terminating 2F1 sum."""
        rho0, rho1 = self._data.rho0, self._data.rho1
        if self.kind == KIND_COULOMB:
            # |(r - i)/(r + i)| = 1 for real r, so large exponents cannot overflow
            return r ** rho0 * ((r - 1j) / (r + 1j)) ** rho1 * (r + 1j) ** (-2.0 * rho0)
        return r ** rho0 * (1.0 - r * r) ** rho1 * (r * r + 1.0) ** (-(rho0 + rho1))

    def _hypergeometric(self, r):
        """(d, b, c, z) with f(r) = prefactor(r) 2F1(-d, b; c; z) / d!."""
        z = (4j * r / (r + 1j) ** 2 if self.kind == KIND_COULOMB
             else 4.0 * r * r / (r * r + 1.0) ** 2)
        return self._data.d, self._data.b, self._data.c, z

    def _evaluate(self, r):
        """f at a complex scalar, a Jet or a numpy array of r, in O(d).

        G_m = 2F1(-m, b; c; z) / m! follows from the contiguous relation
        (c-a) F(a-1) + (2a - c + (b-a) z) F(a) + a (z-1) F(a+1) = 0 at a = -m:
        (c+m) (m+1) G_(m+1) = (c + 2m - (b+m) z) G_m + (z-1) G_(m-1), with
        G_0 = 1 and G_(-1) = 0 (its factor a vanishes), so G_1 = 1 - b z / c.
        """
        d, b, c, z = self._hypergeometric(r)
        prev, cur = 0.0, 1.0
        for m in range(d):
            prev, cur = cur, ((c + 2 * m - (b + m) * z) * cur + (z - 1.0) * prev) / (
                (c + m) * (m + 1))
        return self._prefactor(r) * cur

    def __call__(self, r):
        return self._evaluate(complex(r))

    def jet(self, r):
        """(f, f', f'') at real r."""
        out = self._evaluate(Jet.variable(r))
        return out.f, out.df, out.d2f

    # no caller in the package; the tracer in perfbench/tracing.py wraps this name
    def hypergeometric_value(self, r):
        """f(r) through gauss_2f1's term-by-term sum, which loses accuracy from k ~ 11."""
        d, b, c, z = self._hypergeometric(r)
        a = self._data.a  # ~ -d: gauss_2f1 detects the termination itself
        return self._prefactor(r) * gauss_2f1(a, b, c, z) * math.exp(-math.lgamma(d + 1))

    def branch_residuals(self):
        """|a + d|, which vanishes on the stated branch of a level, and |Im E|."""
        return {"stated_branch": abs(self._data.a + self._data.d),
                "imag_energy": abs(complex(self.energy).imag)}

    def ode_residual(self, r):
        """|f'' + p f' + q f| at real r over the largest of its three terms."""
        p, q = spectral_ode(self.kind, self.params, self.coeffs, self.energy)
        return ode_residual(p, q, self.jet, [r])

    def norm_squared(self, nodes=240):
        """integral of |f|^2 against the volume weight r^(n-1)/(1+r^2)^n.

        Gauss-Legendre after mapping the domain: the half-angle substitution
        r = tan(theta/2) for Coulomb, affine for the oscillator.  Raises
        ConvergenceError unless the sum is positive and finite.
        """
        n = self.params.n
        x, w = gauss_legendre(-1.0, 1.0, nodes)
        if self.kind == KIND_COULOMB:
            theta = (x + 1.0) * (math.pi / 2.0)
            r = np.tan(theta / 2.0)
            jac = (math.pi / 2.0) * (1.0 + r * r) / 2.0
        else:
            r = (x + 1.0) / 2.0
            jac = 0.5
        f = self._evaluate(r)
        total = float(np.sum(w * jac * np.abs(f) ** 2 * r ** (n - 1) / (1.0 + r * r) ** n))
        if not 0.0 < total < math.inf:
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
    data = (_coulomb_data if kind == KIND_COULOMB else _oscillator_data)(params, coeffs, k, energy)
    return RadialEigenfunction(kind, params, coeffs, k, energy, data)


@dataclass(frozen=True)
class EnergyLevel:
    k: int
    energy: float
    multiplicity: int
    branch_check: bool


@dataclass(frozen=True)
class SpectrumReport:
    kind: str
    params: object
    coeffs: object
    levels: tuple
    numeric_only: bool

    def to_dict(self):
        """JSON-ready dict with stable field order."""
        co = self.coeffs
        return {
            "kind": self.kind,
            "n": self.params.n,
            "case": co.case_id,
            "mk": co.carrier.coeffs[-1],
            "m1": self.params.m1,
            "m2": self.params.m2,
            "radius": self.params.radius,
            "coupling": self.params.coupling,
            "a": str(co.a),
            "b": str(co.b),
            "c": str(co.c),
            "mass_mode": co.mass_mode,
            "numeric_only": self.numeric_only,
            "levels": [
                {
                    "k": lv.k,
                    "E": lv.energy,
                    "multiplicity": lv.multiplicity,
                    "verified": lv.branch_check,
                }
                for lv in self.levels
            ],
        }


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
        ok = (max(fn.branch_residuals().values()) <= BRANCH_TOLERANCE
              and fn.ode_residual(_R0[kind]) <= RESIDUAL_TOLERANCE)
        levels.append(EnergyLevel(k, E, mult, ok))
    return SpectrumReport(kind, params, coeffs, tuple(levels), False)
