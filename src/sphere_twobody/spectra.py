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
array of radii.  The step constants c + 2m, b + m and (c + m)(m + 1)
depend only on the level, so each level builds them once, as three flat
lists that every value, jet and norm of it shares.  The recurrence runs in
float arithmetic wherever b and z are real, which is every oscillator level
at a real radius, and in complex arithmetic otherwise (Coulomb, and an
oscillator b with an imaginary part): the oscillator's data hold a real b
as a float, `RadialEigenfunction._z` is that rule's one home, and the
prefactor stays complex, so values keep the bits of all-complex arithmetic.
`norm_squared` forms |f| = |P| |G| as real arrays and squares it only
then, so its sum keeps the float range of |f| itself: the oscillator's
prefactor P is real, Coulomb's has
|P| = r^rho0 (1 + r^2)^-rho0 exp(Im rho1 (pi - theta)) with
r = tan(theta/2).  Its level-free arrays (nodes, radii, weights, z, z - 1
and the volume weight's factors r^(n-1) and (1 + r^2)^n) are built once
per kind, node count and n, read-only.  `jet` returns (f, f', f'') on plain
scalars: the same recurrence, in floats or complex numbers by the same
rule, also carries dG_m/dz, d2G_d/dz2 follows from the contiguous relation
z G''_d = (d-1) G'_d - G'_(d-1), and the prefactor enters through its
logarithmic derivatives in closed form, with f itself bit for bit `fn(r)`.
`fn(r)`, `jet` and `ode_residual` take a real r inside the kind's domain
and raise ValidationError on any other.
A level's `branch_check` flag (`verified` in the CLI) records that the
quantization condition holds on the stated square-root branch and that the
jet at one radius r0 solves the radial ODE: |f'' + p f' + q f| over its
largest term, with no floor, is at most RESIDUAL_TOLERANCE, however small
f is.  An eigenfunction that underflows to zero reads unverified.  Every
energy is a finite real float: `radial_eigenfunction` raises
ValidationError on any other.

Asymmetric triples (a != c) admit no such closed form; `spectrum` then
returns an empty, `numeric_only` report and the shooting oracle is the way
to get numbers.
"""

import cmath
import collections
import functools
import math
import numbers
import sys
from typing import NamedTuple

from .errors import ConvergenceError, ValidationError
# pochhammer is unused here; the tracer in perfbench/tracing.py wraps both names
from .hyperfun import gauss_2f1, pochhammer  # noqa: F401
from .liealg import weyl_dim
from .oracle import RESIDUAL_TOLERANCE, _check_node_count, gauss_legendre, ode_residual
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
_DOMAIN_END = {KIND_COULOMB: math.inf, KIND_OSCILLATOR: 1.0}  # r lies in (0, end)
_TINY = sys.float_info.min  # `jet` needs r**2 at least this, a normal float


def _require_symmetric(coeffs):
    if not coeffs.symmetric:
        raise ValidationError(
            f"case {coeffs.case_id} has a != c: no closed-form spectrum, "
            "use the shooting oracle"
        )


def _is_index(k):
    """An int that is not a bool: True and False are no level index."""
    return isinstance(k, int) and not isinstance(k, bool)


def _check_k(kind, k):
    kmin = K_MIN[kind]
    if not (_is_index(k) and k >= kmin):
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
# exponents at r = 0 and at r = i (Coulomb) or r = 1 (oscillator).  b is a
# float wherever it is real, and steps holds the recurrence's level constants.
_LevelData = collections.namedtuple("_LevelData", "d a b c rho0 rho1 steps")


def _level_data(d, a, b, c, rho0, rho1):
    """The level's data, with `_terminating_2f1`'s step constants built once.

    steps is three flat lists over m = 0..d-1: c + 2m, b + m and
    (c + m)(m + 1), each computed as the recurrence would per point.
    """
    ms = range(d)
    steps = ([c + 2 * m for m in ms], [b + m for m in ms], [(c + m) * (m + 1) for m in ms])
    return _LevelData(d, a, b, c, rho0, rho1, steps)


def _coulomb_data(params, coeffs, k, energy):
    n, a = params.n, float(coeffs.a)
    A = endpoint_root(n, a)
    u = _pole_root(KIND_COULOMB, params, coeffs, energy, -1)  # the root at r = -i
    # a = 1 - k on the quantized branch; the principal branch carries c - a instead
    half = (1.0 + A) / 2.0
    return _level_data(k - 1, half - u.real / 2.0, half + 0.5j * u.imag, 1.0 + A,
                       endpoint_exponent(n, a), ((n - 1) - u.conjugate()) / 2.0)


def _oscillator_data(params, coeffs, k, energy):
    """The oscillator's data; b is a float wherever it is real (`RadialEigenfunction._z`)."""
    n, a = params.n, float(coeffs.a)
    A = endpoint_root(n, a)
    W = wall_root(params)
    s = _pole_root(KIND_OSCILLATOR, params, coeffs, energy)
    b = (2.0 + A + W + s) / 4.0
    return _level_data(k, (2.0 + A + W - s) / 4.0, b.real if b.imag == 0.0 else b,
                       1.0 + A / 2.0, endpoint_exponent(n, a), wall_exponent(params))


def _z(kind, r):
    """The 2F1 argument: 4i r/(r + i)^2 for Coulomb, 4r^2/(u u) with u = r^2 + 1 else."""
    if kind == KIND_COULOMB:
        return 4j * r / (r + 1j) ** 2
    u = r * r + 1.0
    return 4.0 * r * r / (u * u)


def _check_radius(kind, r):
    """ValidationError unless r is a real number, not a bool, in the kind's open domain.

    Coulomb lives on (0, oo) and the oscillator on (0, 1), so NaN and
    infinities fail the same comparison as r <= 0 and the oscillator's wall.
    """
    if type(r) is not float and (isinstance(r, bool) or not isinstance(r, numbers.Real)):
        raise ValidationError(f"non-real radius {r!r}")
    if not 0.0 < r < _DOMAIN_END[kind]:
        raise ValidationError(f"{kind} eigenfunctions live on 0 < r < {_DOMAIN_END[kind]}, "
                              f"got r = {r!r}")


def _terminating_2f1(steps, z, w):
    """G_d = 2F1(-d, b; c; z) / d! in O(d), on a scalar, numpy array or jet z, with w = z - 1.

    G_m follows from the contiguous relation
    (c-a) F(a-1) + (2a - c + (b-a) z) F(a) + a (z-1) F(a+1) = 0 at a = -m:
    (c+m) (m+1) G_(m+1) = (c + 2m - (b+m) z) G_m + (z-1) G_(m-1), with
    G_0 = 1 and G_(-1) = 0 (its factor a vanishes), so G_1 = 1 - b z / c.
    steps is the level's (c + 2m, b + m, (c+m) (m+1)) lists (`_level_data`),
    so only z varies from point to point.  The steps are float arithmetic
    where b and z are real.
    """
    prev, cur = 0.0, 1.0
    for s0, bm, den in zip(*steps):
        prev, cur = cur, ((s0 - bm * z) * cur + w * prev) / den
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

    def _z(self, r):
        """z(r) with f(r) = prefactor(r) 2F1(-d, b; c; z) / d!.

        The one rule for real levels: on the oscillator, where b is real
        (every level at its closed-form energy, stored as a float) and r
        lies on the real axis (a float, a float array, or a complex scalar
        with zero imaginary part), z comes back as a float, so the
        recurrence runs in float arithmetic.  Its values are the complex
        recurrence's real parts bit for bit, whose imaginary parts are all
        zero there.  Coulomb, and an oscillator b with an imaginary part (an
        explicit energy below the pole's threshold), keep complex arithmetic.
        """
        if type(r) is complex and type(self.data.b) is float and r.imag == 0.0:
            r = r.real
        return _z(self.kind, r)

    def _evaluate(self, r):
        """f at a complex scalar r, in O(d).

        Duck-typed: the tests also run it on a numpy array of r and on a jet
        of r as `jet`'s reference.
        """
        z = self._z(r)
        return self._prefactor(r) * _terminating_2f1(self.data.steps, z, z - 1.0)

    def __call__(self, r):
        """f(r) at a real r inside the kind's domain (`_check_radius`)."""
        _check_radius(self.kind, r)
        try:
            return self._evaluate(complex(r))
        except OverflowError:
            raise ConvergenceError(f"{self.kind} k={self.k}: f overflows at r = {r!r}") from None

    def jet(self, r):
        """(f, f', f'') at a real r inside the kind's domain (`_check_radius`).

        ConvergenceError where r**2 underflows (L'' divides by it) or a part is not finite.
        f is `fn(r)` bit for bit: the same recurrence on the level's shared
        step constants and the same prefactor, in the same order, in floats
        wherever b and `_z` are real (every oscillator level).  The
        recurrence also carries dG_m/dz, from differentiating it in z:
        (c+m) (m+1) G'_(m+1) = s G'_m - (b+m) G_m + (z-1) G'_(m-1) + G_(m-1),
        with s = c + 2m - (b+m) z.  G'' then costs O(1): the terminating 2F1
        obeys z dF/dz = a (F(a+1) - F(a)) (DLMF §15.5) at a = -m, so
        z G'_m = m G_m - G_(m-1), and differentiating once more gives
        z G''_d = (d-1) G'_d - G'_(d-1).  That is a contiguous relation
        between the recurrence's own terms, not the 2F1 differential
        equation, so the ODE residual check stays non-circular.  z', z'' and
        the prefactor's log-derivatives L' = P'/P, L'' = (log P)'' are closed
        forms in r, so f' = P (G' z' + L' G) and
        f'' = P (G'' z'^2 + G' z'' + 2 L' G' z' + (L'' + L'^2) G).

        The division by z leaves an absolute error of about eps |G'|/|z| in
        G''.  z -> 0 as r -> 0, and for Coulomb (|z| = 4r/(1 + r^2)) also as
        r -> oo, so there f'' alone loses about eps |f'|/|z|.  Tested range:
        f'' against mpmath within 1e-12 (k+1)^2 max(|f|, |f'|/(k+1)) on
        r in [1e-3, 1e3] (oscillator [1e-3, 1)), and the scaled ODE residual
        within 1e-12 at r = 1e-6 and 1e6 (oscillator 0.9999), for k <= 20;
        at those ends f'' leaves the mpmath bound from k = 40 on.
        """
        _check_radius(self.kind, r)
        if r * r < _TINY:
            raise ConvergenceError(f"{self.kind} k={self.k}: r**2 underflows at r = {r!r}")
        try:
            x = complex(r)
            z = self._z(x)
            w = z - 1.0
            prev, cur = 0.0, 1.0  # G_(m-1), G_m: `_terminating_2f1`'s recurrence
            dprev, dcur = 0.0, 0.0  # their z-derivatives
            for s0, bm, den in zip(*self.data.steps):
                s = s0 - bm * z
                prev, cur, dprev, dcur = (cur, (s * cur + w * prev) / den,
                                          dcur, (s * dcur - bm * cur + w * dprev + prev) / den)
            d2cur = ((self.data.d - 1) * dcur - dprev) / z
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
            jet = (pre * cur,
                   pre * (dcur * dz + dL * cur),
                   pre * (d2cur * dz * dz + dcur * d2z + 2.0 * dL * dcur * dz
                          + (d2L + dL * dL) * cur))
        except OverflowError:
            jet = None
        if jet is None or not all(map(cmath.isfinite, jet)):
            raise ConvergenceError(f"{self.kind} k={self.k}: the jet overflows at r = {r!r}")
        return jet

    # no caller in the package; the tracer in perfbench/tracing.py wraps this name
    def hypergeometric_value(self, r):
        """f(r) through `gauss_2f1`, a second route to `fn(r)`.

        gauss_2f1 snaps a ~ -d and runs its own contiguous relation on F,
        where `_terminating_2f1` runs it on F / d!; their bits differ.
        """
        data = self.data  # a ~ -d: gauss_2f1 detects the termination itself
        return (self._prefactor(r) * gauss_2f1(data.a, data.b, data.c, self._z(r))
                * math.exp(-math.lgamma(data.d + 1)))

    def branch_residuals(self):
        """|a + d|, which vanishes on the stated branch of a level."""
        return {"stated_branch": abs(self.data.a + self.data.d)}

    def ode_residual(self, r):
        """|f'' + p f' + q f| at r over the largest of its three terms; r as for `jet`."""
        _check_radius(self.kind, r)
        p, q = spectral_ode(self.kind, self.params, self.coeffs, self.energy)
        return ode_residual(p, q, self.jet, [r])

    def _modulus(self, r, theta, z=None, w=None):
        """|f| on a numpy array of real r, as a real array.

        |f| = |P| |G_d|, with the product formed before any squaring.  The
        oscillator's P is real on real r.  For Coulomb, with r = tan(theta/2),
        (r - i)/(r + i) = exp(i (theta - pi)), so
        |P| = r^rho0 (1 + r^2)^-rho0 exp(Im rho1 (pi - theta)) on the caller's
        own theta (unread for the oscillator); its overflow raises
        ConvergenceError, as the scalar path does.  G_d runs in float
        arithmetic by `_z`'s rule, as on every oscillator level; z and
        w = z - 1 are `_z(r)` and its shift unless the caller passes both
        (`norm_squared` passes its grid's).
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
        if z is None:
            z = self._z(r)
            w = z - 1.0
        return pre * np.abs(_terminating_2f1(self.data.steps, z, w))

    def norm_squared(self, nodes=240):
        """integral of |f|^2 against the volume weight r^(n-1)/(1+r^2)^n.

        Gauss-Legendre after mapping the domain: the half-angle substitution
        r = tan(theta/2) for Coulomb, affine for the oscillator.  |f| comes
        from `_modulus` in real arithmetic and is squared only then, so the
        sum reaches as far through the float range as |f| itself.  The
        nodes, z and the volume weight's two factors come from
        `_quadrature_grid` and `_volume_weight`, built once per grid.  Raises
        ConvergenceError unless the sum is a finite normal float: a subnormal
        sum has lost its relative precision to underflow.
        """
        import numpy as np

        n = self.params.n
        _check_node_count(nodes)
        grid = _quadrature_grid(self.kind, nodes)
        r1, un = _volume_weight(self.kind, nodes, n)
        f = self._modulus(grid.r, grid.theta, grid.z, grid.w)
        total = float(np.sum(grid.wj * f ** 2 * r1 / un))
        if not sys.float_info.min <= total < math.inf:
            raise ConvergenceError(
                f"{self.kind} k={self.k}: norm quadrature over {nodes} nodes gave {total!r}")
        return total


class _Grid(NamedTuple):
    """`norm_squared`'s level-free arrays on one (kind, nodes) grid, all read-only."""

    theta: object  # Coulomb's half-angle nodes; None for the oscillator
    r: object
    wj: object  # Gauss-Legendre weights times the map's Jacobian
    z: object  # `_z(kind, r)`
    w: object  # z - 1


@functools.lru_cache(maxsize=16)
def _quadrature_grid(kind, nodes):
    """`norm_squared`'s `_Grid`, built once per (kind, nodes).

    Gauss-Legendre on (-1, 1), mapped by r = tan(theta/2) with
    theta = (x + 1) pi/2 for Coulomb (jac = dr/dx) and affinely onto (0, 1)
    for the oscillator, whose theta is None.  nodes must already be checked.
    """
    import numpy as np

    x, w = gauss_legendre(-1.0, 1.0, nodes)
    if kind == KIND_COULOMB:
        theta = (x + 1.0) * (math.pi / 2.0)
        r = np.tan(theta / 2.0)
        jac = (math.pi / 2.0) * (1.0 + r * r) / 2.0
        theta.flags.writeable = False
    else:
        theta = None
        r = (x + 1.0) / 2.0
        jac = 0.5
    z = _z(kind, r)
    grid = _Grid(theta, r, w * jac, z, z - 1.0)
    for arr in grid[1:]:
        arr.flags.writeable = False
    return grid


@functools.lru_cache(maxsize=32)
def _volume_weight(kind, nodes, n):
    """The volume weight's read-only factors r^(n-1) and (1 + r^2)^n on a `_quadrature_grid`."""
    r = _quadrature_grid(kind, nodes).r
    r1, un = r ** (n - 1), (1.0 + r * r) ** n
    r1.flags.writeable = un.flags.writeable = False
    return r1, un


def radial_eigenfunction(kind, params, coeffs, k, energy=None):
    """The k-th eigenfunction of an a = c sector, at its closed-form energy unless one is given."""
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
    """One level: index k, energy, multiplicity and whether its residual checks passed."""

    k: int
    energy: float
    multiplicity: int
    branch_check: bool


class SpectrumReport(NamedTuple):
    """The levels of one sector; numeric_only (and no levels) when a != c has no closed form."""

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
    if not (_is_index(k_min) and _is_index(k_max) and k_min <= k_max):
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
