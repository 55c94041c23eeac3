"""Weight bookkeeping: dimensions, Casimir values, branching."""

import pytest

from sphere_twobody import (
    AlgebraLabel,
    HighestWeight,
    ValidationError,
    branch_B_to_D,
    branch_D_to_B,
    invariant_subspace_dim,
    weyl_dim,
)
from sphere_twobody.liealg import casimir_eigenvalue


def test_sphere_dim_mapping():
    assert AlgebraLabel("B", 1).sphere_dim == 2
    assert AlgebraLabel("D", 2).sphere_dim == 3
    assert AlgebraLabel("B", 2).sphere_dim == 4
    assert AlgebraLabel("D", 3).sphere_dim == 5
    assert AlgebraLabel("B", 3).sphere_dim == 6


def test_for_sphere_inverts_sphere_dim():
    for n in range(2, 13):
        alg = AlgebraLabel.for_sphere(n)
        assert alg.series == ("B" if n % 2 == 0 else "D")
        assert alg.sphere_dim == n


def test_label_validation():
    with pytest.raises(ValidationError):
        AlgebraLabel("A", 2)
    with pytest.raises(ValidationError):
        AlgebraLabel("B", 0)
    with pytest.raises(ValidationError):
        AlgebraLabel("D", 1)  # so(2) is abelian; not in scope
    with pytest.raises(ValidationError):  # _replace checks like the constructor
        AlgebraLabel("D", 2)._replace(rank=1)


def _so_n_modules():
    """so(N), N = 5..13: vector N, adjoint N(N-1)/2, symmetric traceless N(N+1)/2 - 1."""
    for N in range(5, 14):
        alg = AlgebraLabel.for_sphere(N - 1)
        zeros = (0,) * (alg.rank - 2)
        yield alg.series, alg.rank, zeros + (0, 1), N
        yield alg.series, alg.rank, zeros + (1, 1), N * (N - 1) // 2
        yield alg.series, alg.rank, zeros + (0, 2), N * (N + 1) // 2 - 1


@pytest.mark.parametrize(
    "series,rank,coeffs,dim",
    [
        ("B", 1, (0,), 1),
        ("B", 1, (1,), 3),
        ("B", 1, (3,), 7),  # 2m+1
        ("B", 2, (0, 1), 5),  # vector rep of so(5)
        ("B", 2, (1, 1), 10),  # adjoint
        ("D", 2, (0, 1), 4),  # vector rep of so(4)
        ("D", 2, (1, 1), 3),  # self-dual half
        ("D", 3, (0, 0, 1), 6),  # vector rep of so(6)
        ("B", 3, (0, 0, 1), 7),  # vector rep of so(7)
        *_so_n_modules(),
    ],
)
def test_weyl_dim_known_modules(series, rank, coeffs, dim):
    assert weyl_dim(AlgebraLabel(series, rank), coeffs) == dim


def test_weyl_dim_rejects_non_dominant():
    with pytest.raises(ValidationError):
        HighestWeight(AlgebraLabel("B", 2), (2, 1))  # needs m1 <= m2
    with pytest.raises(ValidationError):
        HighestWeight(AlgebraLabel("B", 1), (-1,))
    # D allows a signed first entry but |m1| <= m2
    HighestWeight(AlgebraLabel("D", 2), (-2, 2))
    with pytest.raises(ValidationError):
        HighestWeight(AlgebraLabel("D", 2), (-3, 2))
    # _replace coerces and checks like the constructor
    w = HighestWeight(AlgebraLabel("B", 2), (1, 2))
    assert w._replace(coeffs=[0, 1]).coeffs == (0, 1)
    with pytest.raises(ValidationError):
        w._replace(coeffs=[2, 1])


def test_casimir_vector_reps():
    # <lambda, lambda + 2 delta> for the vector rep of so(N) is N - 1
    assert casimir_eigenvalue(AlgebraLabel("B", 2), (0, 1)) == 4
    assert casimir_eigenvalue(AlgebraLabel("D", 3), (0, 0, 1)) == 5
    assert casimir_eigenvalue(AlgebraLabel("B", 1), (1,)) == 2
    # so(N), N = 5..13: vector N - 1, adjoint 2(N - 2), symmetric traceless 2N
    for N in range(5, 14):
        alg = AlgebraLabel.for_sphere(N - 1)
        zeros = (0,) * (alg.rank - 2)
        assert casimir_eigenvalue(alg, zeros + (0, 1)) == N - 1
        assert casimir_eigenvalue(alg, zeros + (1, 1)) == 2 * (N - 2)
        assert casimir_eigenvalue(alg, zeros + (0, 2)) == 2 * N


def test_branch_interlacing_small():
    # |m1'| <= m1 <= m2' <= m2 pins the B2 (0, 2) restriction completely
    got = [w.coeffs for w in branch_B_to_D(HighestWeight(AlgebraLabel("B", 2), (0, 2)))]
    assert got == [(0, 0), (0, 1), (0, 2)]

    # D2 (1, 2) -> B1: m1 <= |m1'| is not required; rule is m1' between |m1| and m2
    got = [w.coeffs for w in branch_D_to_B(HighestWeight(AlgebraLabel("D", 2), (1, 2)))]
    assert got == [(1,), (2,)]

    # both come out in lexicographic order, signed first entries included
    for branch, w in [(branch_B_to_D, HighestWeight(AlgebraLabel("B", 3), (1, 2, 4))),
                      (branch_D_to_B, HighestWeight(AlgebraLabel("D", 4), (-1, 2, 2, 5)))]:
        got = [x.coeffs for x in branch(w)]
        assert got == sorted(got) and len(got) > 1


def test_branch_dimension_sums():
    for series, coeffs in [("B", (1, 3)), ("B", (2, 2)), ("D", (-1, 2)), ("D", (0, 3))]:
        alg = AlgebraLabel(series, 2)
        w = HighestWeight(alg, coeffs)
        if series == "B":
            parts = branch_B_to_D(w)
            total = sum(weyl_dim(AlgebraLabel("D", 2), x) for x in parts)
        else:
            parts = branch_D_to_B(w)
            total = sum(weyl_dim(AlgebraLabel("B", 1), x) for x in parts)
        assert total == weyl_dim(alg, w)


def test_branch_multiplicity_free():
    w = HighestWeight(AlgebraLabel("B", 3), (1, 2, 3))
    parts = branch_B_to_D(w)
    assert len({x.coeffs for x in parts}) == len(parts)


@pytest.mark.parametrize(
    "series,rank,coeffs,dim",
    [
        ("B", 1, (2,), 5),  # the whole so(3) module survives over so(1)
        ("B", 2, (0, 3), 4),  # m_k - m_{k-1} + 1
        ("B", 2, (2, 3), 2),
        ("D", 2, (-2, 3), 2),  # m_k - |m_{k-1}| + 1
        ("D", 3, (0, 1, 4), 4),
        ("B", 3, (1, 1, 4), 0),  # leading entries must vanish
    ],
)
def test_invariant_subspace_dim(series, rank, coeffs, dim):
    assert invariant_subspace_dim(AlgebraLabel(series, rank), coeffs) == dim
