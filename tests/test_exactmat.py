"""Exact rational/radical scalars and the matrices built from them."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphere_twobody.exactmat import GMat, Rad


def test_rad_canonicalizes_square_factors():
    r = Rad(1, 8)  # sqrt(8) = 2 sqrt(2)
    assert r.fr == 2 and r.rad == 2
    assert Rad(3, 1) == Fraction(3)
    assert Rad(Fraction(1, 2), Fraction(9, 2)) == Rad(Fraction(3, 2), Fraction(1, 2))


def test_rad_zero_collapses():
    assert not Rad(0, 7)
    assert Rad(0, 7) == Rad(0, 3)


def test_rad_float():
    assert float(Rad(2, 2)) == pytest.approx(2 * 2 ** 0.5, rel=1e-15)


def test_rad_addition_rules():
    from sphere_twobody.exactmat import _add

    assert _add(Rad(1, 2), Rad(2, 2)) == Rad(3, 2)
    assert _add(Fraction(1), Fraction(2)) == Fraction(3)
    with pytest.raises(ArithmeticError):
        _add(Rad(1, 2), Rad(1, 3))  # unlike surds never combine


def test_rad_multiplication():
    from sphere_twobody.exactmat import _mul

    assert _mul(Rad(1, 2), Rad(1, 2)) == Fraction(2)
    assert _mul(Rad(1, 2), Rad(1, 6)) == Rad(2, 3)  # sqrt(12) = 2 sqrt(3)


def test_gmat_matmul_exact():
    A = GMat.build(2, {(0, 1): (Fraction(1), Fraction(0))})
    B = GMat.build(2, {(1, 0): (Fraction(0), Fraction(1))})
    C = A @ B
    assert C.re[0][0] == 0 and C.im[0][0] == 1
    assert (A @ B - B @ A).max_abs() > 0
    assert A.commutator(A).is_zero()


def test_gmat_eye_scale_diag():
    I2 = GMat.eye(2, Fraction(3, 2))
    D = GMat.diag([Fraction(3, 2), Fraction(3, 2)])
    assert (I2 - D).is_zero()
    assert I2.scale(Fraction(2)).re[0][0] == 3


def test_gmat_surd_product_returns_rational():
    # sqrt(2) entries multiply back into the rationals
    S = GMat.diag([Rad(1, 2), Rad(1, 2)])
    P = S @ S
    assert P.re[0][0] == Fraction(2)
    assert P == GMat.eye(2, Fraction(2))


def test_gmat_equality_compares_canonical_entries():
    def one(x):
        return GMat.build(1, {(0, 0): x})

    assert one(Rad(1, 2)) != one(Rad(1, 3))  # unlike surds: unequal, not an error
    assert one(Rad(2, 1)) == one(Fraction(2))


def test_gmat_to_numpy_and_apply():
    A = GMat.build(2, {(0, 0): (Rad(1, 2), Fraction(0)), (1, 0): (Fraction(1), Fraction(1))})
    M = A.to_numpy()
    assert M.dtype == complex
    assert M[0, 0] == pytest.approx(2 ** 0.5)
    vec = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))]
    image = A.apply(vec)
    got = np.array([complex(float(re), float(im)) for re, im in image])
    assert np.allclose(got, M @ np.array([1.0, 0.0]))


def test_gmat_max_abs_is_zero_iff_zero():
    Z = GMat(3)
    assert Z.is_zero() and Z.max_abs() == 0.0


# ---- sparse GMat against a dense Fraction reference

_F0 = Fraction(0)
_rationals = st.one_of(st.just(_F0), st.just(_F0),
                       st.fractions(min_value=-3, max_value=3, max_denominator=4))
_gaussian = st.tuples(_rationals, _rationals)


def _dense(n):
    return st.lists(st.lists(_gaussian, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def _pair(draw):
    n = draw(st.integers(1, 4))
    return draw(_dense(n)), draw(_dense(n)), draw(_gaussian)


def _gmat(rows):
    return GMat.build(len(rows), {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)})


def _ref_mul(p, q):
    (x, y), (u, v) = p, q
    return (x * u - y * v, x * v + y * u)


def _ref_matmul(A, B):
    n = len(A)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            re = im = _F0
            for t in range(n):
                pr, pi = _ref_mul(A[i][t], B[t][j])
                re, im = re + pr, im + pi
            row.append((re, im))
        out.append(row)
    return out


def _assert_equals_dense(G, ref):
    assert G.re == [[re for re, _ in row] for row in ref]
    assert G.im == [[im for _, im in row] for row in ref]
    assert all(x or y for _, (x, y) in G.entries())  # no stored zeros


def test_matrices_share_small_integers():
    # a stored entry costs no small-integer Fraction of its own
    A, B = GMat.diag([1, 2, -3]), GMat.build(3, {(1, 1): Fraction(2), (0, 0): 5})
    a = dict(A.entries())
    for key, (re, im) in B.entries():
        assert re is a[(1, 1)][0] if key == (1, 1) else re == 5
        assert im is a[(0, 0)][1]


@settings(max_examples=80, deadline=None)
@given(_pair())
def test_gmat_sum_product_scale_match_dense_reference(pair):
    A, B, (a, b) = pair
    GA, GB = _gmat(A), _gmat(B)
    n = len(A)
    _assert_equals_dense(GA + GB, [[(x + u, y + v) for (x, y), (u, v) in zip(ra, rb)]
                                   for ra, rb in zip(A, B)])
    _assert_equals_dense(GA - GB, [[(x - u, y - v) for (x, y), (u, v) in zip(ra, rb)]
                                   for ra, rb in zip(A, B)])
    _assert_equals_dense(GA @ GB, _ref_matmul(A, B))
    _assert_equals_dense(GA.scale(a, b), [[_ref_mul((a, b), e) for e in row] for row in A])
    _assert_equals_dense(GA.commutator(GB), [
        [(x - u, y - v) for (x, y), (u, v) in zip(ra, rb)]
        for ra, rb in zip(_ref_matmul(A, B), _ref_matmul(B, A))])
    vec = B[0]
    assert GA.apply(vec) == [
        tuple(map(sum, zip(*[_ref_mul(A[i][j], vec[j]) for j in range(n)]))) for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(_pair())
def test_gmat_cancellation_is_exact_zero(pair):
    A, B, _ = pair
    GA, GB = _gmat(A), _gmat(B)
    for Z in (GA - GA, GA + (-GA), GA.scale(0), GA.commutator(GA),
              GA @ GB - GA @ GB, (GA + GB) - GB - GA):
        assert Z.is_zero() and Z.max_abs() == 0.0 and not Z.entries()
        assert Z == GMat(len(A))
    assert GA.is_zero() == all(not (x or y) for row in A for x, y in row)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                          st.fractions(min_value=-3, max_value=3, max_denominator=4),
                          st.integers(1, 40), st.booleans(), st.booleans()),
                min_size=1, max_size=4))
def test_gmat_paired_surd_bands_multiply_to_rationals(bands):
    # A has sqrt(r_i) on its lower band, B on its upper band, each entry real
    # or imaginary, as in D+, D- and D3: A @ B is diagonal and rational
    n = len(bands) + 1
    A = GMat.build(n, {(i + 1, i): (_F0, Rad(a, r)) if ai else Rad(a, r)
                       for i, (a, _, r, ai, _) in enumerate(bands)})
    B = GMat.build(n, {(i, i + 1): (_F0, Rad(b, r)) if bi else Rad(b, r)
                       for i, (_, b, r, _, bi) in enumerate(bands)})
    P = A @ B
    ref = [[(_F0, _F0)] * n for _ in range(n)]
    for i, (a, b, r, ai, bi) in enumerate(bands):
        value = a * b * r
        ref[i + 1][i + 1] = {(False, False): (value, _F0), (True, True): (-value, _F0)}.get(
            (ai, bi), (_F0, value))
    _assert_equals_dense(P, ref)
    for _, (x, y) in P.entries():
        assert all(not isinstance(s, Rad) or s.rad == 1 for s in (x, y))
