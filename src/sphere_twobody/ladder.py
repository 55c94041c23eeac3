"""Ladder operators on the invariant subspace of an so(2k+1)/so(2k) module.

Materializes F, D+, D- (hence D0..D3) as exact matrices on the subspace
annihilated by the so(n-1) subalgebra, verifies all structure relations in
exact arithmetic, classifies the common eigenvectors of {D0^2, D1, D2}
(optionally D3), and checks the defining-representation embedding formulas
numerically.

Conventions. For rank k >= 2 the basis chi_j, j in L_nu = (-nu, -nu+2, ..,
nu), carries

    F  chi_j = j chi_j,
    D+ chi_j = (1/4)(j - mu)(j - nu) chi_{j+2},
    D- chi_j = (1/4)(j + mu)(j + nu) chi_{j-2},

with nu = m_k - m_{k-1}, mu = m_k + m_{k-1} + 2k - 3 for so(2k+1) and
nu = m_k - |m_{k-1}|, mu = m_k + |m_{k-1}| + 2k - 4 for so(2k).  For k = 1
(so(3), module of highest weight m) the basis is the full weight basis
j = -m..m with the unitary normalization

    D+ chi_j = (1/4) sqrt((m-j)(m+j+1)(m-j-1)(m+j+2)) chi_{j+2},

square roots carried exactly by exactmat.Rad; here mu = m - 1, nu = m in
the factorization identities.
"""

from fractions import Fraction
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
_HALF = Fraction(1, 2)
EMBEDDING_TOL = 1e-12  # verify_embedding's default deviation tolerance


class LadderRep(NamedTuple):
    """F, D+, D- on the invariant subspace; exact entries."""

    algebra: AlgebraLabel
    weight: HighestWeight
    nu: int
    mu: int
    basis: tuple  # F-eigenvalues j, ascending
    F: GMat
    Dplus: GMat
    Dminus: GMat
    casimir: int

    @property
    def dim(self):
        return len(self.basis)

    def index(self, j):
        """Position of the F-eigenvalue j in the basis (shadows tuple.index)."""
        return self.basis.index(j)


def build_ladder_rep(algebra, weight):
    """Construct the ladder matrices for a weight with invariant vectors."""
    w = HighestWeight.of(algebra, weight)
    k = algebra.rank
    dim = invariant_subspace_dim(algebra, w)
    if dim == 0:
        raise ValidationError(
            f"{w} has no invariant vectors: needs m_j = 0 for j <= k-2"
        )
    cas = casimir_eigenvalue(algebra, w)

    if algebra.series == "B" and k == 1:
        m = w.coeffs[0]
        basis = tuple(range(-m, m + 1))
        n = len(basis)
        F = GMat.diag(basis)
        dp, dm = {}, {}
        for p, j in enumerate(basis):
            if j + 2 <= m:
                rad = (m - j) * (m + j + 1) * (m - j - 1) * (m + j + 2)
                dp[(p + 2, p)] = Rad(Fraction(1, 4), rad)
            if j - 2 >= -m:
                rad = (m + j) * (m - j + 1) * (m + j - 1) * (m - j + 2)
                dm[(p - 2, p)] = Rad(Fraction(1, 4), rad)
        return LadderRep(
            algebra, w, m, m - 1, basis, F, GMat.build(n, dp), GMat.build(n, dm), cas
        )

    mk, mk1 = w.coeffs[-1], abs(w.coeffs[-2])
    if algebra.series == "B":
        nu, mu = mk - mk1, mk + mk1 + 2 * k - 3
    else:
        nu, mu = mk - mk1, mk + mk1 + 2 * k - 4
    basis = tuple(range(-nu, nu + 1, 2))
    n = len(basis)
    F = GMat.diag(basis)
    dp, dm = {}, {}
    for p, j in enumerate(basis):
        if j + 2 <= nu:
            dp[(p + 1, p)] = Fraction((j - mu) * (j - nu), 4)
        if j - 2 >= -nu:
            dm[(p - 1, p)] = Fraction((j + mu) * (j + nu), 4)
    return LadderRep(algebra, w, nu, mu, basis, F, GMat.build(n, dp), GMat.build(n, dm), cas)


class OperatorMatrices(NamedTuple):
    """The four invariant operators and the Casimir scalar matrix."""

    D0: GMat
    D1: GMat
    D2: GMat
    D3: GMat
    Ctilde: GMat


def operator_matrices(rep):
    """Assemble D0 = -iF, D1/D2 = +-(D+ + D-) + (F^2 - Ctilde)/2, D3 = i(D+ - D-)."""
    F, Dp, Dm = rep.F, rep.Dplus, rep.Dminus
    G = (F @ F - GMat.eye(rep.dim, rep.casimir)).scale(_HALF)
    P = Dp + Dm
    return OperatorMatrices(
        D0=F.scale(0, -1),
        D1=P + G,
        D2=G - P,
        D3=(Dp - Dm).scale(0, 1),
        Ctilde=GMat.eye(rep.dim, rep.casimir),
    )


def _series_q(rep):
    """The scalar q in [D+, D-] = -F^3/2 + q F."""
    k = rep.algebra.rank
    if rep.algebra.series == "B" and k == 1:
        mk, mk1 = rep.weight.coeffs[0], 0
    else:
        mk, mk1 = rep.weight.coeffs[-1], abs(rep.weight.coeffs[-2])
    if rep.algebra.series == "B":
        return Fraction(mk * mk + mk1 * mk1 + (2 * k - 1) * mk + (2 * k - 3) * mk1, 2) + Fraction(
            (2 * k - 1) * (2 * k - 3), 4
        )
    return Fraction(
        mk * mk + mk1 * mk1 + 2 * (k - 1) * mk + 2 * (k - 2) * mk1, 2
    ) + (k - 1) * (k - 2)


class StructureReport(NamedTuple):
    """Exact residual matrices of the operator-algebra relations."""

    algebra: AlgebraLabel
    weight: HighestWeight
    nu: int
    mu: int
    q: Fraction
    relation_residuals: dict  # relation name -> exact residual GMat
    factorization_residual: Fraction
    mu_root_residual: Fraction

    @property
    def ok(self):
        return (
            all(mat.is_zero() for mat in self.relation_residuals.values())
            and self.factorization_residual == 0
            and self.mu_root_residual == 0
        )

    def residual_norms(self):
        return {name: mat.max_abs() for name, mat in self.relation_residuals.items()}


def _dp_dm_product(rep, eta):
    """Exact d+(eta) * d-(eta+2); rational even for k=1 (paired surds)."""
    basis = rep.basis
    if eta not in basis or eta + 2 not in basis:
        return _F0
    i, j = rep.index(eta), rep.index(eta + 2)
    dp = rep.Dplus.nz.get((j, i), (_F0, _F0))[0]
    dm = rep.Dminus.nz.get((i, j), (_F0, _F0))[0]
    if isinstance(dp, Rad) or isinstance(dm, Rad):
        pf, pr = (dp.fr, dp.rad) if isinstance(dp, Rad) else (dp, Fraction(1))
        mf, mr = (dm.fr, dm.rad) if isinstance(dm, Rad) else (dm, Fraction(1))
        if pr != mr:
            raise VerificationError("unpaired surds in ladder product")
        return pf * mf * pr
    return dp * dm


def verify_structure_relations(rep):
    """Check all commutation relations and the ladder factorization, exactly.

    Returns a StructureReport with all residuals zero; raises
    VerificationError naming the failed relation otherwise.
    """
    ops = operator_matrices(rep)
    D0, D1, D2, D3 = ops.D0, ops.D1, ops.D2, ops.D3
    F, Dp, Dm = rep.F, rep.Dplus, rep.Dminus
    n_sphere = rep.algebra.sphere_dim
    cc = Fraction((n_sphere - 1) * (n_sphere - 3), 2)
    q = _series_q(rep)
    F3 = (F @ F) @ F

    residual_mats = {
        "[D0,D1] = -2 D3": D0.commutator(D1) + D3.scale(2),
        "[D0,D2] = 2 D3": D0.commutator(D2) - D3.scale(2),
        "[D0,D3] = D1 - D2": D0.commutator(D3) - D1 + D2,
        "[D1,D2] = -2 {D0,D3}": D1.commutator(D2) + D0.anticommutator(D3).scale(2),
        "[D1,D3] = -{D0,D1} + (n-1)(n-3)/2 D0": D1.commutator(D3)
        + D0.anticommutator(D1)
        - D0.scale(cc),
        "[D2,D3] = {D0,D2} - (n-1)(n-3)/2 D0": D2.commutator(D3)
        - D0.anticommutator(D2)
        + D0.scale(cc),
        "[F,D+] = 2 D+": F.commutator(Dp) - Dp.scale(2),
        "[F,D-] = -2 D-": F.commutator(Dm) + Dm.scale(2),
        "[D+,D-] = -F^3/2 + q F": Dp.commutator(Dm) + F3.scale(_HALF) - F.scale(q),
    }
    # d+(eta) d-(eta+2) = (1/16)(eta-mu)(eta-nu)(eta+mu+2)(eta+nu+2)
    mu, nu = rep.mu, rep.nu
    fact_res = _F0
    for eta in rep.basis:
        expected = Fraction((eta - mu) * (eta - nu) * (eta + mu + 2) * (eta + nu + 2), 16)
        fact_res += abs(_dp_dm_product(rep, eta) - expected)
    mu_res = Fraction(mu * mu + 2 * mu + nu * nu + 2 * nu) - 4 * q

    report = StructureReport(
        rep.algebra, rep.weight, nu, mu, q, residual_mats, fact_res, mu_res
    )
    if not report.ok:
        bad = [name for name, mat in residual_mats.items() if not mat.is_zero()]
        if fact_res != 0:
            bad.append("ladder factorization")
        if mu_res != 0:
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
    coeffs: dict
    delta0: Fraction
    delta1: Fraction
    delta2: Fraction
    delta3: object  # Fraction(0) or None
    mass_mode: str
    carrier: HighestWeight
    d3_image: dict


def _exact_vec(rep, coeffs):
    return [(Fraction(coeffs.get(j, 0)), _F0) for j in rep.basis]


def _differs(x, y):
    """Exact x != y across Fraction/Rad scalars."""
    try:
        return bool(_add(x, _neg(y)))
    except ArithmeticError:
        return True  # unlike surds cannot cancel


def _check_eigen(mat, vec, scalar, what, weight):
    image = mat.apply(vec)
    s = Fraction(scalar)
    for (ir, ii), (vr, vi) in zip(image, vec):
        if _differs(ir, s * vr) or _differs(ii, s * vi):
            raise VerificationError(f"classified vector fails {what} for {weight}")


def _verify_record(rep, ops, rec, exact_image):
    vec = _exact_vec(rep, rec.coeffs)
    # D0^2 = -F^2, so F^2 v = -delta0 v
    _check_eigen(rep.F @ rep.F, vec, -rec.delta0, "D0^2 eigenvalue", rep.weight)
    _check_eigen(ops.D1, vec, rec.delta1, "D1 eigenvalue", rep.weight)
    _check_eigen(ops.D2, vec, rec.delta2, "D2 eigenvalue", rep.weight)
    image = ops.D3.apply(vec)
    for (ir, ii), j in zip(image, rep.basis):
        er, ei = exact_image.get(j, (_F0, _F0))
        if _differs(ir, er) or _differs(ii, ei):
            raise VerificationError(
                f"classified D3 action wrong for {rep.weight} case {rec.case_id}"
            )
    if rec.delta3 is not None and any(r or i for r, i in image):
        raise VerificationError(
            f"vector claimed D3-eigen is not, {rep.weight} case {rec.case_id}"
        )


def _float_d3(d3_image):
    return {j: complex(float(re), float(im)) for j, (re, im) in d3_image.items()}


def _rows_rank1(m):
    """The eight n=2 families, keyed by module label m, as raw record rows."""
    half = Fraction(1, 2)
    out = []
    if m == 0:
        out.append((1, "chi_0", {0: 1}, 0, 0, 0, _F0, MASS_ARBITRARY, {}))
    elif m == 1:
        out.append((2, "chi_0", {0: 1}, 0, -1, -1, _F0, MASS_ARBITRARY, {}))
        out.append((3, "chi_1 + chi_-1", {1: 1, -1: 1}, -1, 0, -1, None,
                    MASS_EQUAL, {1: (_F0, half), -1: (_F0, -half)}))
        out.append((4, "chi_1 - chi_-1", {1: 1, -1: -1}, -1, -1, 0, None,
                    MASS_EQUAL, {1: (_F0, -half), -1: (_F0, -half)}))
    elif m == 2:
        out.append((5, "chi_2 - chi_-2", {2: 1, -2: -1}, -4, -1, -1, None,
                    MASS_EQUAL, {0: (_F0, Rad(-1, 6))}))
        out.append((6, "chi_1 + chi_-1", {1: 1, -1: 1}, -1, -1, -4, None,
                    MASS_EQUAL, {1: (_F0, Fraction(3, 2)), -1: (_F0, Fraction(-3, 2))}))
        out.append((7, "chi_1 - chi_-1", {1: 1, -1: -1}, -1, -4, -1, None,
                    MASS_EQUAL, {1: (_F0, Fraction(-3, 2)), -1: (_F0, Fraction(-3, 2))}))
    elif m == 3:
        out.append((8, "chi_2 - chi_-2", {2: 1, -2: -1}, -4, -4, -4, None,
                    MASS_EQUAL, {0: (_F0, Rad(-1, 30))}))
    return out


def _rows_rank_ge2(rep):
    """The four series for so(2k+1) (n=2k) and so(2k) (n=2k-1), as raw record rows."""
    k = rep.algebra.rank
    mk = rep.weight.coeffs[-1]
    mk1 = abs(rep.weight.coeffs[-2])
    if rep.algebra.series == "B":
        poly = mk * (mk + 2 * k - 2)
        qpoly = mk * mk + 2 * (k - 2) * mk - 2 * k + 3
        c = Fraction(2 * mk + 2 * k - 3, 2)  # m_k + k - 3/2
    else:
        poly = mk * (mk + 2 * k - 3)
        qpoly = mk * mk + (2 * k - 5) * mk - 2 * k + 4
        c = Fraction(mk + k - 2)
    out = []
    if mk1 == mk:
        out.append((1, "chi_0", {0: 1}, 0, -poly, -poly, _F0, MASS_ARBITRARY, {}))
    elif mk1 == mk - 1:
        out.append((2, "chi_1 + chi_-1", {1: 1, -1: 1}, -1, -qpoly, -poly, None,
                    MASS_EQUAL, {1: (_F0, c), -1: (_F0, -c)}))
        out.append((3, "chi_1 - chi_-1", {1: 1, -1: -1}, -1, -poly, -qpoly, None,
                    MASS_EQUAL, {1: (_F0, -c), -1: (_F0, -c)}))
    elif mk1 == mk - 2:
        out.append((4, "chi_2 - chi_-2", {2: 1, -2: -1}, -4, -qpoly, -qpoly, None,
                    MASS_EQUAL, {0: (_F0, -4 * c)}))
    return out


def classify_common_eigenvectors(rep, n):
    """All common eigenvectors of {D0^2, D1, D2} in this rep, exact-verified.

    Records carry the classified eigenvalues (delta0, delta1, delta2), the
    optional D3 eigenvalue (0 when present), and the mass-mode tag, in case
    order. Weights outside the classified families give an empty list.
    """
    if n != rep.algebra.sphere_dim:
        raise ValidationError(
            f"n={n} inconsistent with {rep.algebra} (expects n={rep.algebra.sphere_dim})"
        )
    if rep.algebra.series == "B" and rep.algebra.rank == 1:
        rows = _rows_rank1(rep.weight.coeffs[0])
    else:
        rows = _rows_rank_ge2(rep)
    ops = operator_matrices(rep)
    records = []
    for cid, desc, coeffs, d0, d1, d2, d3, mode, img in rows:
        rec = EigenvectorRecord(cid, desc, coeffs, _scalar(d0), _scalar(d1), _scalar(d2),
                                d3, mode, rep.weight, _float_d3(img))
        _verify_record(rep, ops, rec, img)
        records.append(rec)
    return records


class EmbeddingReport(NamedTuple):
    """Deviations of the defining-representation correspondence check."""

    k: int
    max_deviation: float
    j_identity_deviation: float


def verify_embedding(k, tol=EMBEDDING_TOL):
    """Check the so(2k+1) defining-rep formulas for the F-basis, numerically.

    Builds the real skew generators Psi_ab in the (2k+1)-dimensional rep,
    moves basis vector 2 to the last slot, conjugates by J^T, and compares
    with the stated F-combinations entrywise. Returns the max deviation.
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
    if worst > tol or j_dev > tol:
        bad = [name for name, d in checks if d > tol]
        raise VerificationError(
            f"embedding correspondence failed for k={k}: {', '.join(bad) or 'J identity'}"
        )
    return EmbeddingReport(k, worst, j_dev)
