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
numpy array of radii.  A level's `branch_check` flag records that the
quantization condition holds on the stated square-root branch, that E is
real, and that f(r0) matches `gauss_2f1`'s term-by-term sum to a relative
tolerance with no absolute floor.

Asymmetric triples (a != c) admit no such closed form; `spectrum` then
returns an empty, `numeric_only` report and the shooting oracle is the way
to get numbers.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
# pochhammer is unused here; perfbench/tracing.py wraps the name spectra.pochhammer
from .hyperfun import gauss_2f1, pochhammer  # noqa: F401
from .jets import Jet
from .liealg import weyl_dim
from .oracle import gauss_legendre, ode_residual
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
    "MATCH_TOLERANCE",
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

# a level is "verified" when its branch residuals and its dual evaluation pass
BRANCH_TOLERANCE = 1e-10
MATCH_TOLERANCE = 1e-10

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


def _coulomb_data(params, coeffs, energy):
    n, m, R, g = params.n, params.reduced_mass, params.radius, params.coupling
    a, b = float(coeffs.a), float(coeffs.b)
    A = endpoint_root(n, a)
    u = cmath.sqrt((n - 1) ** 2 + 8.0 * (m * energy * R * R + 1j * m * R * g + 2.0 * a - b))
    gam = 1.0 + A
    # quantized branch: alpha = 1 - k; the principal branch carries the
    # reflection gam - alpha instead
    alpha = (1.0 + A) / 2.0 - u.real / 2.0
    beta = (1.0 + A) / 2.0 + 0.5j * u.imag
    rho0 = endpoint_exponent(n, a)
    rho_i = ((n - 1) - u.conjugate()) / 2.0
    return A, u, alpha, beta, gam, rho0, rho_i


def _oscillator_data(params, coeffs, energy):
    n, m, R, w = params.n, params.reduced_mass, params.radius, params.coupling
    a, b = float(coeffs.a), float(coeffs.b)
    A = endpoint_root(n, a)
    W = wall_root(params)
    s = cmath.sqrt(
        (n - 1) ** 2 + 8.0 * m * energy * R * R + 4.0 * m * R ** 4 * w * w
        + 16.0 * a - 8.0 * b
    )
    gam = 1.0 + A / 2.0
    alpha = (2.0 + A + W + s) / 4.0
    beta = (2.0 + A + W - s) / 4.0
    rho0 = endpoint_exponent(n, a)
    rho1 = wall_exponent(params)
    return A, W, s, alpha, beta, gam, rho0, rho1


def branch_residuals(kind, params, coeffs, k, energy=None):
    """Quantization residual on the stated square-root branch, plus Im E.

    At a genuine level the 2F1 parameter named by the termination condition
    is the nonpositive integer -d, and the energy is real; both residuals
    vanish there.
    """
    _check_kind(kind)
    _require_symmetric(coeffs)
    if energy is None:
        energy = closed_form_energy(kind, params, coeffs, k)
    if kind == KIND_COULOMB:
        alpha = _coulomb_data(params, coeffs, energy)[2]
        stated = abs(alpha - (1 - k))
    else:
        beta = _oscillator_data(params, coeffs, energy)[4]
        stated = abs(beta + k)
    return {"stated_branch": stated, "imag_energy": abs(complex(energy).imag)}


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
    _data: tuple

    def _prefactor(self, r):
        """The elementary factor multiplying the terminating 2F1 sum."""
        *_, rho0, rho1 = self._data  # rho1 is the exponent at r = i, resp. r = 1
        if self.kind == KIND_COULOMB:
            # |(r - i)/(r + i)| = 1 for real r, so large exponents cannot overflow
            return r ** rho0 * ((r - 1j) / (r + 1j)) ** rho1 * (r + 1j) ** (-2.0 * rho0)
        return r ** rho0 * (1.0 - r * r) ** rho1 * (r * r + 1.0) ** (-(rho0 + rho1))

    def _hypergeometric(self, r):
        """(d, b, c, z) with f(r) = prefactor(r) 2F1(-d, b; c; z) / d!."""
        if self.kind == KIND_COULOMB:
            return self.k - 1, self._data[3], self._data[4], 4j * r / (r + 1j) ** 2
        return self.k, self._data[3], self._data[5], 4.0 * r * r / (r * r + 1.0) ** 2

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

    def hypergeometric_value(self, r):
        """Independent evaluation routing the sum through gauss_2f1."""
        d, b, c, z = self._hypergeometric(r)
        # the stored quantized parameter (~ -d): gauss_2f1 detects termination itself
        a = self._data[2] if self.kind == KIND_COULOMB else self._data[4]
        return self._prefactor(r) * (gauss_2f1(a, b, c, z) * math.exp(-math.lgamma(d + 1)))

    def ode_residual(self, r):
        """f'' + p f' + q f at real r, scaled by the local solution size."""
        p, q = spectral_ode(self.kind, self.params, self.coeffs, self.energy)
        return ode_residual(p, q, self.jet, [r])

    def norm_squared(self, nodes=240):
        """integral of |f|^2 against the volume weight r^(n-1)/(1+r^2)^n.

        Gauss-Legendre after mapping the domain: the half-angle substitution
        r = tan(theta/2) for Coulomb, affine for the oscillator.
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
        return float(np.sum(w * jac * np.abs(f) ** 2 * r ** (n - 1) / (1.0 + r * r) ** n))


def radial_eigenfunction(kind, params, coeffs, k, energy=None):
    _check_kind(kind)
    _check_compatible(params, coeffs)
    _require_symmetric(coeffs)
    _check_k(kind, k)
    if energy is None:
        energy = closed_form_energy(kind, params, coeffs, k)
    data = (_coulomb_data if kind == KIND_COULOMB else _oscillator_data)(params, coeffs, energy)
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
    r0 = 0.7 if kind == KIND_COULOMB else 0.45
    for k in range(k_min, k_max + 1):
        E = closed_form_energy(kind, params, coeffs, k)
        res = branch_residuals(kind, params, coeffs, k, E)
        fn = radial_eigenfunction(kind, params, coeffs, k, E)
        direct, via_2f1 = fn(r0), fn.hypergeometric_value(r0)
        # relative, with no absolute floor to hide a tiny |f(r0)|
        scale = max(abs(direct), abs(via_2f1))
        match = abs(direct - via_2f1) / scale if scale > 0.0 else math.inf
        ok = (
            max(res.values()) <= BRANCH_TOLERANCE
            and match <= MATCH_TOLERANCE
        )
        levels.append(EnergyLevel(k, E, mult, bool(ok)))
    return SpectrumReport(kind, params, coeffs, tuple(levels), False)
