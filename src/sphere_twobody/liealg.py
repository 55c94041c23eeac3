"""Root-system combinatorics for so(2k+1) = B_k and so(2k) = D_k.

Exact integer arithmetic throughout: Weyl dimensions, Casimir eigenvalues,
restriction (branching) rules between the two series, and the dimension of
the subspace of vectors annihilated by the so(n-1) subalgebra.

Weights are written in the orthonormal epsilon-basis as integer tuples
(m_1, ..., m_k) with m_k the largest entry. Half-integer (spinor) weights
are out of scope and rejected.
"""

from itertools import product
from math import prod
from typing import NamedTuple

from .errors import ValidationError, _Validated

__all__ = [
    "AlgebraLabel",
    "HighestWeight",
    "weyl_dim",
    "casimir_eigenvalue",
    "branch_B_to_D",
    "branch_D_to_B",
    "invariant_subspace_dim",
]


class _AlgebraLabelFields(NamedTuple):
    series: str
    rank: int


class AlgebraLabel(_Validated, _AlgebraLabelFields):
    """One of the orthogonal series: B_k = so(2k+1) or D_k = so(2k)."""

    __slots__ = ()

    def _validate(self):
        if self.series not in ("B", "D"):
            raise ValidationError(f"series must be 'B' or 'D', got {self.series!r}")
        if not isinstance(self.rank, int) or isinstance(self.rank, bool):
            raise ValidationError(f"rank must be an integer, got {self.rank!r}")
        k = self.rank
        if self.series == "B" and k < 1:
            raise ValidationError(f"B_k needs k >= 1, got k={k}")
        if self.series == "D" and k < 2:
            raise ValidationError(f"D_k needs k >= 2, got k={k}")

    @property
    def sphere_dim(self):
        """n with so(n+1) = this algebra: n = 2k for B_k, n = 2k-1 for D_k."""
        return 2 * self.rank if self.series == "B" else 2 * self.rank - 1

    @classmethod
    def for_sphere(cls, n):
        """so(n+1), the symmetry algebra of the n-sphere; inverse of sphere_dim."""
        return cls("B", n // 2) if n % 2 == 0 else cls("D", (n + 1) // 2)

    def __str__(self):
        return f"{self.series}{self.rank}"


def _check_coeffs(series, rank, coeffs):
    if len(coeffs) != rank:
        raise ValidationError(
            f"weight needs {rank} entries for rank {rank}, got {len(coeffs)}"
        )
    for m in coeffs:
        if not isinstance(m, int) or isinstance(m, bool):
            raise ValidationError(
                f"weight entries must be integers (spinor weights are out of "
                f"scope), got {m!r}"
            )
    if series == "B":
        # m_k >= ... >= m_1 >= 0
        if any(coeffs[i] > coeffs[i + 1] for i in range(rank - 1)) or coeffs[0] < 0:
            raise ValidationError(f"not B-dominant (need 0 <= m_1 <= ... <= m_k): {coeffs}")
    else:
        # m_k >= ... >= m_2 >= |m_1|; m_1 may be negative
        if any(coeffs[i] > coeffs[i + 1] for i in range(1, rank - 1)):
            raise ValidationError(f"not D-dominant (need m_2 <= ... <= m_k): {coeffs}")
        if coeffs[1] < abs(coeffs[0]):
            raise ValidationError(f"not D-dominant (need m_2 >= |m_1|): {coeffs}")


class _HighestWeightFields(NamedTuple):
    algebra: AlgebraLabel
    coeffs: tuple


class HighestWeight(_Validated, _HighestWeightFields):
    """Dominant integral weight (m_1, ..., m_k) of a B_k or D_k module."""

    __slots__ = ()

    def __new__(cls, algebra, coeffs):
        return super().__new__(cls, algebra, tuple(coeffs))

    def _validate(self):
        _check_coeffs(self.algebra.series, self.algebra.rank, self.coeffs)

    def __str__(self):
        return f"{self.algebra}({','.join(map(str, self.coeffs))})"

    @classmethod
    def of(cls, alg, weight):
        """weight (a HighestWeight or a tuple) as a weight of alg."""
        w = weight if isinstance(weight, cls) else cls(alg, weight)
        if w.algebra != alg:
            raise ValidationError(f"weight {w} does not belong to {alg}")
        return w


def _doubled_shift(alg):
    """2 delta, twice the half-sum of positive roots, in the epsilon-basis.

    (1, 3, ..., 2k-1) for B_k and (0, 2, ..., 2k-2) for D_k: integers, so
    the formulas below need no fractions.
    """
    return range(1 if alg.series == "B" else 0, 2 * alg.rank, 2)


def weyl_dim(alg, weight):
    """Dimension of the irreducible module, by the Weyl product formula.

    With l = lambda + delta the product over the positive roots e_j +- e_i
    (i < j) is prod (l_j^2 - l_i^2) / (delta_j^2 - delta_i^2), times
    prod l_i / delta_i over the short roots e_i of B_k (Fulton & Harris,
    Representation Theory, section 24.2).  Doubling l and delta leaves every
    ratio as it is and makes every factor an integer.
    """
    w = HighestWeight.of(alg, weight)
    d2 = _doubled_shift(alg)
    l2 = [2 * m + d for m, d in zip(w.coeffs, d2)]
    num = den = 1
    for j in range(alg.rank):
        for i in range(j):
            num *= l2[j] ** 2 - l2[i] ** 2
            den *= d2[j] ** 2 - d2[i] ** 2
    if alg.series == "B":
        num *= prod(l2)
        den *= prod(d2)
    dim, rest = divmod(num, den)
    if rest or dim <= 0:
        raise ValidationError(f"Weyl product is not a positive integer for {w}: {num}/{den}")
    return dim


def casimir_eigenvalue(alg, weight):
    """Casimir scalar <lambda+delta, lambda+delta> - <delta, delta> = sum m_i (m_i + 2 delta_i)."""
    w = HighestWeight.of(alg, weight)
    return sum(m * (m + d) for m, d in zip(w.coeffs, _doubled_shift(alg)))


def branch_B_to_D(weight):
    """Restriction of a B_k module to D_k: interlacing integer weights.

    Returns every (m'_1, ..., m'_k) with
    m_k >= m'_k >= m_{k-1} >= ... >= m'_2 >= m_1 >= m'_1 >= -m_1,
    each exactly once, sorted lexicographically.
    """
    if weight.algebra.series != "B":
        raise ValidationError(f"expected a B-series weight, got {weight}")
    k = weight.algebra.rank
    m = weight.coeffs
    dalg = AlgebraLabel("D", k)
    if k == 1:
        raise ValidationError("D_1 is not in scope; B_1 weights do not restrict here")
    ranges = [range(-m[0], m[0] + 1)]
    ranges += [range(m[i - 1], m[i] + 1) for i in range(1, k)]
    return [HighestWeight(dalg, c) for c in product(*ranges)]


def branch_D_to_B(weight):
    """Restriction of a D_k module to B_{k-1}: interlacing integer weights.

    Returns every (m'_1, ..., m'_{k-1}) with
    m_k >= m'_{k-1} >= m_{k-1} >= ... >= m_2 >= m'_1 >= |m_1|,
    sorted lexicographically.
    """
    if weight.algebra.series != "D":
        raise ValidationError(f"expected a D-series weight, got {weight}")
    k = weight.algebra.rank
    m = weight.coeffs
    balg = AlgebraLabel("B", k - 1)
    ranges = [range(abs(m[0]), m[1] + 1)]
    ranges += [range(m[i], m[i + 1] + 1) for i in range(1, k - 1)]
    return [HighestWeight(balg, c) for c in product(*ranges)]


def invariant_subspace_dim(alg, weight):
    """Dimension of the subspace annihilated by the so(n-1) subalgebra.

    Nonzero only when m_j = 0 for j <= k-2; then m_k - m_{k-1} + 1 (B) or
    m_k - |m_{k-1}| + 1 (D). For B_1 the whole (2m+1)-dimensional module
    qualifies.
    """
    w = HighestWeight.of(alg, weight)
    k = alg.rank
    m = w.coeffs
    if alg.series == "B" and k == 1:
        return 2 * m[0] + 1
    if any(m[j] != 0 for j in range(k - 2)):
        return 0
    if alg.series == "B":
        return m[-1] - m[-2] + 1
    return m[-1] - abs(m[-2]) + 1
