"""Ladder operators on the invariant subspace of an so(2k+1)/so(2k) module.

A module is stored as its F-basis plus two integer bands.  The structure
relations are verified on those integers, the common eigenvectors of
{D0^2, D1, D2} (optionally D3) are classified exactly, and the
defining-representation embedding formulas are checked numerically.

For rank k >= 2 the basis chi_j, j in L_nu = (-nu, -nu+2, .., nu), carries

    F chi_j = j chi_j,  D+ chi_j = (1/4)(j - mu)(j - nu) chi_{j+2},
    D- chi_j = (1/4)(j + mu)(j + nu) chi_{j-2},

with nu = m_k - |m_{k-1}| and mu = m_k + |m_{k-1}| + 2k - 3 for so(2k+1),
2k - 4 for so(2k); the bands hold the integers 4 D+ and 4 D-.  For k = 1
(so(3), highest weight m) the basis is j = -m..m, normalized unitarily:
D+ chi_j = (1/4) sqrt(r_j) chi_{j+2}, r_j = (m-j)(m+j+1)(m-j-1)(m+j+2), and
the bands hold the radicands r_j; mu = m - 1 and nu = m.  The F, Dplus and
Dminus views build exact GMats on each read, with Rad surds for k = 1.

The relation check substitutes D0 = -iF and D3 = i(D+ - D-), so each
relation is a power of i times a real one; times 16 it is an identity
between integer matrices in F, 4 D+ and 4 D-.  For k = 1 the diagonal
similarity S_{j+2}/S_j = sqrt(r_j) first maps 4 D+ to r_j and 4 D- to 1;
a polynomial identity holds in one basis if and only if in the other.

Classification builds no matrix either: a classified vector lives on rows
j in {0, +-1, +-2}, so its exact check reads the bands at those rows only.
"""

from fractions import Fraction
from functools import lru_cache
from math import isqrt
from types import MappingProxyType
from typing import NamedTuple

from .errors import ValidationError, VerificationError
from .exactmat import GMat, Rad, _add, _neg, _scalar
from .liealg import AlgebraLabel, HighestWeight, casimir_eigenvalue, invariant_subspace_dim

__all__ = [
    "MASS_ARBITRARY",
    "MASS_EQUAL",
    "LadderRep",
    "OperatorMatrices",
    "StructureReport",
    "EigenvectorRecord",
    "EmbeddingReport",
    "build_ladder_rep",
    "operator_matrices",
    "verify_structure_relations",
    "classify_common_eigenvectors",
    "verify_embedding",
]

MASS_ARBITRARY = "arbitrary"
MASS_EQUAL = "equal"

_F0 = Fraction(0)
_QUARTER = Fraction(1, 4)
EMBEDDING_TOL = 1e-12  # verify_embedding's deviation tolerance


class LadderRep(NamedTuple):
    """A module on the invariant subspace: its F-basis and two integer bands.

    up[p] and down[p] belong to the pair chi_j, chi_{j+2} with j = basis[p]:
    4 d+(j) and 4 d-(j+2) for rank >= 2, and for B1 the radicands 16 d+(j)^2
    and 16 d-(j+2)^2 of the unitary entries.
    """

    algebra: AlgebraLabel
    weight: HighestWeight
    nu: int
    mu: int
    basis: tuple  # F-eigenvalues j, ascending
    up: tuple
    down: tuple
    casimir: int

    dim = property(lambda self: len(self.basis))

    step = property(lambda self: 2 if self.algebra.rank == 1 else 1,
                    doc="Positions from chi_j to chi_{j+2}: 2 in the B1 weight basis, else 1.")

    def index(self, j):
        """Position of the F-eigenvalue j in the basis (shadows tuple.index)."""
        return self.basis.index(j)

    F = property(lambda self: GMat.diag(self.basis), doc="F as an exact GMat, built on each read.")
    Dplus = property(lambda self: GMat.build(self.dim, self._entries(self.up, self.step, 0)),
                     doc="D+ as an exact GMat, built on each read.")
    Dminus = property(lambda self: GMat.build(self.dim, self._entries(self.down, 0, self.step)),
                      doc="D- as an exact GMat, built on each read.")

    def _entry(self, band, p, sign=1):
        """sign times the exact entry of band[p]: a quarter root for B1, else a quarter."""
        return Rad(sign * _QUARTER, band[p]) if self.step == 2 else Fraction(sign * band[p], 4)

    def _entries(self, band, di, dj, sign=1):
        """{(p + di, p + dj): sign * d} over a band's exact entries d."""
        return {(p + di, p + dj): self._entry(band, p, sign) for p in range(len(band))}


@lru_cache(maxsize=256)
def _bands(nu, mu, step):
    """(basis, up, down) of the module with these nu, mu; equal modules share them."""
    if step == 2:  # B1, m = nu
        basis = tuple(range(-nu, nu + 1))
        rad = tuple((nu - j) * (nu + j + 1) * (nu - j - 1) * (nu + j + 2) for j in basis[:-2])
        return basis, rad, rad
    basis = tuple(range(-nu, nu + 1, 2))
    return (basis, tuple((j - mu) * (j - nu) for j in basis[:-1]),
            tuple((j + mu) * (j + nu) for j in basis[1:]))


def build_ladder_rep(algebra, weight):
    """Construct the ladder bands for a weight with invariant vectors."""
    w, k = HighestWeight.of(algebra, weight), algebra.rank
    if invariant_subspace_dim(algebra, w) == 0:
        raise ValidationError(f"{w} has no invariant vectors: needs m_j = 0 for j <= k-2")
    mk, mk1 = (w.coeffs[0], 0) if k == 1 else (w.coeffs[-1], abs(w.coeffs[-2]))
    nu, mu = mk - mk1, mk + mk1 + 2 * k - (3 if algebra.series == "B" else 4)  # B1: m, m - 1
    return LadderRep(algebra, w, nu, mu, *_bands(nu, mu, 2 if k == 1 else 1),
                     casimir_eigenvalue(algebra, w))


class OperatorMatrices(NamedTuple):
    """The four invariant operators as exact GMats."""

    D0: GMat
    D1: GMat
    D2: GMat
    D3: GMat


def operator_matrices(rep):
    """D0 = -iF, D1/D2 = G +- (D+ + D-), D3 = i(D+ - D-), G = (F^2 - casimir)/2."""
    n, s, up, down = rep.dim, rep.step, rep.up, rep.down
    G = {(p, p): Fraction(j * j - rep.casimir, 2) for p, j in enumerate(rep.basis)}
    Dp, Dm, mDm = rep._entries(up, s, 0), rep._entries(down, 0, s), rep._entries(down, 0, s, -1)
    return OperatorMatrices(
        D0=GMat.build(n, {(p, p): (_F0, -j) for p, j in enumerate(rep.basis)}),
        D1=GMat.build(n, {**G, **Dp, **Dm}),
        D2=GMat.build(n, {**G, **rep._entries(up, s, 0, -1), **mDm}),
        D3=GMat.build(n, {key: (_F0, d) for key, d in {**Dp, **mDm}.items()}),
    )


def _series_q4(rep):
    """4q, for the scalar q in [D+, D-] = -F^3/2 + q F."""
    c, n = rep.weight.coeffs, rep.algebra.sphere_dim
    mk, mk1 = (c[0], 0) if rep.algebra.rank == 1 else (c[-1], abs(c[-2]))
    return 2 * (mk * mk + mk1 * mk1 + (n - 1) * mk + (n - 3) * mk1) + (n - 1) * (n - 3)


class StructureReport(NamedTuple):
    """Exact residuals of the operator-algebra relations."""

    algebra: AlgebraLabel
    weight: HighestWeight
    nu: int
    mu: int
    q: Fraction
    relation_residuals: dict  # relation name -> largest entry modulus of its residual, exact
    factorization_residual: Fraction
    mu_root_residual: Fraction

    @property
    def ok(self):
        return not (any(self.relation_residuals.values()) or self.factorization_residual
                    or self.mu_root_residual)

    def residual_norms(self):
        return {name: float(r) for name, r in self.relation_residuals.items()}


def _iprod(x, y):
    """Product of sparse integer matrices {(i, j): int}."""
    rows = {}
    for (t, j), v in y.items():
        rows.setdefault(t, []).append((j, v))
    acc = {}
    for (i, t), u in x.items():
        for j, v in rows.get(t, ()):
            acc[i, j] = acc.get((i, j), 0) + u * v
    return acc


def _isum(*terms):
    """The sparse integer matrix sum of c * M over (c, M); zeros dropped."""
    acc = {}
    for c, mat in terms:
        for key, v in mat.items():
            acc[key] = acc.get(key, 0) + c * v
    return {key: v for key, v in acc.items() if v}


def _bracket(x, y, sign=-1):
    """[x, y], or {x, y} for sign = 1."""
    return _isum((1, _iprod(x, y)), (sign, _iprod(y, x)))


def verify_structure_relations(rep):
    """Check all commutation relations and the ladder factorization, exactly.

    Every check runs on the integer bands (see the module docstring).
    Returns a StructureReport with all residuals zero; raises
    VerificationError naming the failed relation otherwise.
    """
    s, basis, mu, nu, n = rep.step, rep.basis, rep.mu, rep.nu, rep.algebra.sphere_dim
    up, down = tuple(map(int, rep.up)), tuple(map(int, rep.down))
    if up != tuple(rep.up) or down != tuple(rep.down):  # compared exactly: no truncation
        raise VerificationError(f"a ladder band of {rep.weight} has a non-integer entry")
    if s == 1:
        a, b = up, down
        prods = [u * d for u, d in zip(up, down)]
    else:  # the similarity S_{j+2}/S_j = sqrt(down): 4D+ -> sqrt(up down), 4D- -> 1
        a = prods = [isqrt(max(u, 0) * max(d, 0)) for u, d in zip(up, down)]
        if any(r * r != u * d for r, u, d in zip(a, up, down)):
            raise VerificationError(f"unpaired surds in the ladder products of {rep.weight}")
        b = [1] * len(a)
    # 16 d+(eta) d-(eta+2) = (eta-mu)(eta-nu)(eta+mu+2)(eta+nu+2), zero at the top
    fact16 = sum(abs(p - (eta - mu) * (eta - nu) * (eta + mu + 2) * (eta + nu + 2))
                 for eta, p in zip(basis, prods + [0] * s))
    q4 = _series_q4(rep)

    # H = F, A = 4D+, B = 4D-, U = 4D1, V = 4D2, Y = -4i D3; D0 = -iH
    H = {(p, p): j for p, j in enumerate(basis)}
    H3 = {(p, p): j ** 3 for p, j in enumerate(basis)}
    G4 = {(p, p): 2 * (j * j - rep.casimir) for p, j in enumerate(basis)}
    A = {(p + s, p): x for p, x in enumerate(a)}
    B = {(p, p + s): x for p, x in enumerate(b)}
    U, V = _isum((1, A), (1, B), (1, G4)), _isum((1, G4), (-1, A), (-1, B))
    Y = _isum((1, A), (-1, B))
    cc16 = 8 * (n - 1) * (n - 3)  # 16 (n-1)(n-3)/2
    # each residual is a unit times R/16
    scaled = {
        "[D0,D1] = -2 D3": _isum((4, _bracket(H, U)), (-8, Y)),
        "[D0,D2] = 2 D3": _isum((4, _bracket(H, V)), (8, Y)),
        "[D0,D3] = D1 - D2": _isum((4, _bracket(H, Y)), (-4, U), (4, V)),
        "[D1,D2] = -2 {D0,D3}": _isum((1, _bracket(U, V)), (8, _bracket(H, Y, 1))),
        "[D1,D3] = -{D0,D1} + (n-1)(n-3)/2 D0":
            _isum((1, _bracket(U, Y)), (-4, _bracket(H, U, 1)), (cc16, H)),
        "[D2,D3] = {D0,D2} - (n-1)(n-3)/2 D0":
            _isum((1, _bracket(V, Y)), (4, _bracket(H, V, 1)), (-cc16, H)),
        "[F,D+] = 2 D+": _isum((4, _bracket(H, A)), (-8, A)),
        "[F,D-] = -2 D-": _isum((4, _bracket(H, B)), (8, B)),
        "[D+,D-] = -F^3/2 + q F": _isum((1, _bracket(A, B)), (8, H3), (-4 * q4, H)),
    }
    residuals = {name: Fraction(max(map(abs, R.values()), default=0), 16)
                 for name, R in scaled.items()}
    fact_res = Fraction(fact16, 16)
    mu_res = Fraction(mu * mu + 2 * mu + nu * nu + 2 * nu - q4)

    report = StructureReport(rep.algebra, rep.weight, nu, mu, Fraction(q4, 4), residuals,
                             fact_res, mu_res)
    if not report.ok:
        bad = [name for name, r in residuals.items() if r]
        if fact_res:
            bad.append("ladder factorization")
        if mu_res:
            bad.append("mu root equation")
        raise VerificationError(f"structure relations failed for {rep.weight}: {'; '.join(bad)}")
    return report


class EigenvectorRecord(NamedTuple):
    """A classified common eigenvector of {D0^2, D1, D2} (and maybe D3).

    delta3 is present (always 0) exactly when the vector is also a D3
    eigenvector, which is what admits arbitrary masses; the rest require
    equal masses. d3_image reports D3 v for the non-eigen cases.
    """

    case_id: int
    description: str
    coeffs: MappingProxyType  # j -> coefficient, read-only, shared between records
    delta0: Fraction
    delta1: Fraction
    delta2: Fraction
    delta3: object  # Fraction(0) or None
    mass_mode: str
    carrier: HighestWeight

    @property
    def d3_image(self):
        """D3 v as floats keyed by j, built on each read; empty for a D3 eigenvector."""
        img = next(image for rec, image in _rows(self.carrier) if rec.case_id == self.case_id)
        return {j: complex(float(x), float(y)) for j, (x, y) in img.items()}


def _verify_record(rep, rec, d3_image):
    """Check one record exactly on its rows j and the rows j +- 2 that D+/- v reach.

    D1/D2 v = G v +- (D+ + D-) v with G = (F^2 - casimir)/2, and D3 v =
    i(D+ - D-) v must be d3_image, {j: (re, im)}.  Unlike surds cannot cancel.
    """
    s, plus, minus = rep.step, {}, {}
    for j, c in rec.coeffs.items():
        p = rep.index(j)
        if p < len(rep.up):
            plus[j + 2] = rep._entry(rep.up, p, c)
        if p >= s:
            minus[j - 2] = rep._entry(rep.down, p - s, c)
    case = f"{rep.weight} case {rec.case_id}"
    try:
        for r in {*rec.coeffs, *plus, *minus}:
            c, dp, dm = rec.coeffs.get(r, 0), plus.get(r, _F0), minus.get(r, _F0)
            g, both, d3 = Fraction((r * r - rep.casimir) * c, 2), _add(dp, dm), _add(dp, _neg(dm))
            images = {"D0^2": (r * r * c, -rec.delta0),  # D0^2 = -F^2
                      "D1": (_add(g, both), rec.delta1), "D2": (_add(g, _neg(both)), rec.delta2)}
            for name, (got, val) in images.items():
                if got != val * c:
                    raise VerificationError(f"classified vector fails {name} eigenvalue for {case}")
            if (_F0, d3) != d3_image.get(r, (_F0, _F0)) or rec.delta3 is not None and d3:
                raise VerificationError(f"classified D3 action wrong for {case}")
    except ArithmeticError:
        raise VerificationError(f"unpaired surds in the ladder images of {case}") from None


# the classified vectors, shared read-only by every record that holds one
_CHI_0, _CHI_1P, _CHI_1M, _CHI_2M = map(MappingProxyType, (
    {0: 1}, {1: 1, -1: 1}, {1: 1, -1: -1}, {2: 1, -2: -1}))


def _rows_rank1(m):
    """The eight n=2 families, keyed by module label m, as raw record rows."""
    half = Fraction(1, 2)
    if m == 0:
        return [(1, "chi_0", _CHI_0, 0, 0, 0, _F0, MASS_ARBITRARY, {})]
    if m == 1:
        return [(2, "chi_0", _CHI_0, 0, -1, -1, _F0, MASS_ARBITRARY, {}),
                (3, "chi_1 + chi_-1", _CHI_1P, -1, 0, -1, None,
                 MASS_EQUAL, {1: (_F0, half), -1: (_F0, -half)}),
                (4, "chi_1 - chi_-1", _CHI_1M, -1, -1, 0, None,
                 MASS_EQUAL, {1: (_F0, -half), -1: (_F0, -half)})]
    if m == 2:
        return [(5, "chi_2 - chi_-2", _CHI_2M, -4, -1, -1, None,
                 MASS_EQUAL, {0: (_F0, Rad(-1, 6))}),
                (6, "chi_1 + chi_-1", _CHI_1P, -1, -1, -4, None,
                 MASS_EQUAL, {1: (_F0, Fraction(3, 2)), -1: (_F0, Fraction(-3, 2))}),
                (7, "chi_1 - chi_-1", _CHI_1M, -1, -4, -1, None,
                 MASS_EQUAL, {1: (_F0, Fraction(-3, 2)), -1: (_F0, Fraction(-3, 2))})]
    if m == 3:
        return [(8, "chi_2 - chi_-2", _CHI_2M, -4, -4, -4, None,
                 MASS_EQUAL, {0: (_F0, Rad(-1, 30))})]
    return []


def _rows(w):
    """(EigenvectorRecord, exact D3 image) pairs of the weight w, in case order."""
    rows = _rows_rank1(w.coeffs[0]) if w.algebra.rank == 1 else _rows_series(w)
    return [(EigenvectorRecord(*row[:3], *map(_scalar, row[3:6]), *row[6:8], w), row[8])
            for row in rows]


def _rows_series(w):
    """Raw record rows of the four series for so(2k+1) (n=2k) and so(2k) (n=2k-1)."""
    k, mk, mk1 = w.algebra.rank, w.coeffs[-1], abs(w.coeffs[-2])
    if w.algebra.series == "B":
        poly = mk * (mk + 2 * k - 2)
        qpoly = mk * mk + 2 * (k - 2) * mk - 2 * k + 3
        c = Fraction(2 * mk + 2 * k - 3, 2)  # m_k + k - 3/2
    else:
        poly = mk * (mk + 2 * k - 3)
        qpoly = mk * mk + (2 * k - 5) * mk - 2 * k + 4
        c = Fraction(mk + k - 2)
    if mk1 == mk:
        return [(1, "chi_0", _CHI_0, 0, -poly, -poly, _F0, MASS_ARBITRARY, {})]
    if mk1 == mk - 1:
        return [(2, "chi_1 + chi_-1", _CHI_1P, -1, -qpoly, -poly, None,
                 MASS_EQUAL, {1: (_F0, c), -1: (_F0, -c)}),
                (3, "chi_1 - chi_-1", _CHI_1M, -1, -poly, -qpoly, None,
                 MASS_EQUAL, {1: (_F0, -c), -1: (_F0, -c)})]
    if mk1 == mk - 2:
        return [(4, "chi_2 - chi_-2", _CHI_2M, -4, -qpoly, -qpoly, None,
                 MASS_EQUAL, {0: (_F0, -4 * c)})]
    return []


def classify_common_eigenvectors(rep, n):
    """All common eigenvectors of {D0^2, D1, D2} in this rep, exact-verified.

    Records carry the classified eigenvalues (delta0, delta1, delta2), the
    optional D3 eigenvalue (0 when present), and the mass-mode tag, in case
    order. Weights outside the classified families give an empty list.
    """
    if n != rep.algebra.sphere_dim:
        raise ValidationError(f"n={n} inconsistent with {rep.algebra} "
                              f"(expects n={rep.algebra.sphere_dim})")
    pairs = _rows(rep.weight)
    for rec, image in pairs:
        _verify_record(rep, rec, image)
    return [rec for rec, _ in pairs]


class EmbeddingReport(NamedTuple):
    """Deviations of the defining-representation correspondence check."""

    k: int
    max_deviation: float
    j_identity_deviation: float


def verify_embedding(k):
    """Check the so(2k+1) defining-rep formulas for the F-basis, numerically.

    Builds the real skew generators Psi_ab in the (2k+1)-dimensional rep,
    moves basis vector 2 to the last slot, conjugates by J^T, and compares
    with the stated F-combinations entrywise; raises past EMBEDDING_TOL.
    """
    import numpy as np

    if not 2 <= k <= 5:
        raise ValidationError(f"embedding check supports 2 <= k <= 5, got {k}")
    N = 2 * k + 1
    rt2 = np.sqrt(2.0)

    def psi(a, b):  # 1-based skew generator E_ab - E_ba
        M = np.zeros((N, N), dtype=complex)
        M[a - 1, b - 1] = 1.0
        M[b - 1, a - 1] = -1.0
        return M

    def f(i, j):  # F_ij = E_ij - E_{-j,-i}, indices -k..k at slot idx+k
        M = np.zeros((N, N), dtype=complex)
        M[i + k, j + k] += 1.0
        M[-j + k, -i + k] -= 1.0
        return M

    order = [0] + list(range(2, N)) + [1]
    P = np.zeros((N, N))
    P[np.arange(N), order] = 1.0

    J = np.zeros((N, N), dtype=complex)
    Sk = np.fliplr(np.eye(k))
    J[:k, :k] = np.eye(k) / rt2
    J[:k, k + 1:] = Sk / rt2
    J[k, k] = 1.0
    J[k + 1:, :k] = 1j * Sk / rt2
    J[k + 1:, k + 1:] = -1j * np.eye(k) / rt2
    S = np.fliplr(np.eye(N))
    j_dev = float(np.max(np.abs(J @ S @ J.T - np.eye(N))))

    JT = J.T
    JT_inv = J @ S  # (J^T)^{-1} = J S since J S J^T = E

    def hat(M):
        return JT @ (P @ M @ P.T) @ JT_inv

    def dev(a, b):
        return float(np.max(np.abs(a - b)))

    checks = [
        ("Psi_12", dev(hat(psi(1, 2)), 1j * f(k, k))),
        ("Psi_1,k+2", dev(hat(psi(1, k + 2)), (f(k, 0) - f(0, k)) / rt2)),
        ("Psi_2,k+2", dev(hat(psi(2, k + 2)), -1j / rt2 * (f(k, 0) + f(0, k)))),
    ]
    for i in range(3, k + 2):
        j = i - k - 2  # negative
        checks.append((f"Psi_1,{i}", dev(
            hat(psi(1, i)), 0.5 * (f(k, j) + f(k, -j) + f(-k, j) + f(-k, -j)))))
        checks.append((f"Psi_2,{i}", dev(
            hat(psi(2, i)), 0.5j * (f(-k, j) + f(-k, -j) - f(k, j) - f(k, -j)))))
    for i in range(k + 3, 2 * k + 2):
        j = i - k - 2  # positive
        checks.append((f"Psi_1,{i}", dev(
            hat(psi(1, i)), 0.5j * (f(k, j) - f(k, -j) + f(-k, j) - f(-k, -j)))))
        checks.append((f"Psi_2,{i}", dev(
            hat(psi(2, i)), 0.5 * (f(k, j) - f(k, -j) + f(-k, -j) - f(-k, j)))))

    worst = max(d for _, d in checks)
    if worst > EMBEDDING_TOL or j_dev > EMBEDDING_TOL:
        bad = [name for name, d in checks if d > EMBEDDING_TOL]
        raise VerificationError(
            f"embedding correspondence failed for k={k}: {', '.join(bad) or 'J identity'}"
        )
    return EmbeddingReport(k, worst, j_dev)
