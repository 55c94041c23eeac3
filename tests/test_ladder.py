"""Ladder matrices, exact relation checks, eigenvector classification."""

from fractions import Fraction

import numpy as np
import pytest

from sphere_twobody import (
    AlgebraLabel,
    ValidationError,
    VerificationError,
    build_ladder_rep,
    classify_common_eigenvectors,
    operator_matrices,
    verify_embedding,
    verify_structure_relations,
)
from sphere_twobody.exactmat import GMat, Rad


def test_ladder_action_B2():
    rep = build_ladder_rep(AlgebraLabel("B", 2), (0, 2))
    assert rep.basis == (-2, 0, 2)
    assert (rep.nu, rep.mu) == (2, 3)
    # D+ chi_-2 = (1/4)(j - mu)(j - nu) chi_0 = (1/4)(-5)(-4) chi_0
    assert rep.Dplus.re[rep.index(0)][rep.index(-2)] == Fraction(5)


def test_ladder_action_D2():
    rep = build_ladder_rep(AlgebraLabel("D", 2), (0, 1))
    assert (rep.nu, rep.mu) == (1, 1)
    assert rep.Dplus.re[rep.index(1)][rep.index(-1)] == Fraction(1)


def test_rank1_surd_entries():
    # so(3): D+ chi_j = (1/4) sqrt((m-j)(m+j+1)(m-j-1)(m+j+2)) chi_{j+2}
    rep = build_ladder_rep(AlgebraLabel("B", 1), (2,))
    assert rep.basis == (-2, -1, 0, 1, 2)
    assert rep.Dplus.re[rep.index(0)][rep.index(-2)] == Rad(Fraction(1, 2), 6)
    verify_structure_relations(rep)  # surds must cancel exactly


@pytest.mark.parametrize(
    "series,rank,weight",
    [("B", 1, (3,)), ("B", 2, (1, 2)), ("D", 2, (-2, 3)), ("D", 3, (0, 1, 3)),
     ("B", 4, (0, 0, 2, 5))],
)
def test_structure_relations_exact(series, rank, weight):
    rep = build_ladder_rep(AlgebraLabel(series, rank), weight)
    report = verify_structure_relations(rep)
    assert report.ok
    assert set(report.residual_norms().values()) == {0.0}
    assert report.factorization_residual == 0
    assert report.mu_root_residual == 0


def test_structure_relations_catch_corruption():
    rep = build_ladder_rep(AlgebraLabel("B", 2), (1, 2))
    with pytest.raises(AttributeError):  # records are immutable: corrupt a copy
        rep.Dplus = rep.Dminus
    bad = rep._replace(Dplus=rep.Dplus + GMat.eye(rep.dim, Fraction(1, 7)))
    with pytest.raises(VerificationError):
        verify_structure_relations(bad)


def test_classification_B2_adjoint():
    rep = build_ladder_rep(AlgebraLabel("B", 2), (1, 1))
    recs = classify_common_eigenvectors(rep, 4)
    assert [r.case_id for r in recs] == [1]
    r = recs[0]
    assert (r.delta0, r.delta1, r.delta2) == (0, -3, -3)
    assert r.delta3 == 0 and r.mass_mode == "arbitrary"
    assert r.coeffs == {0: 1}


def test_classification_D2_case4():
    rep = build_ladder_rep(AlgebraLabel("D", 2), (0, 2))
    recs = classify_common_eigenvectors(rep, 3)
    assert [r.case_id for r in recs] == [4]
    r = recs[0]
    # qpoly = mk^2 + (2k-5) mk - 2k + 4 = 2 at mk = 2, so delta1 = delta2 = -2
    assert (r.delta0, r.delta1, r.delta2) == (-4, -2, -2)
    assert r.delta3 is None and r.mass_mode == "equal"
    assert r.coeffs == {2: 1, -2: -1}


@pytest.mark.parametrize(
    "m,cases",
    [(0, [1]), (1, [2, 3, 4]), (2, [5, 6, 7]), (3, [8]), (4, []), (6, [])],
)
def test_classification_n2_global_cases(m, cases):
    rep = build_ladder_rep(AlgebraLabel("B", 1), (m,))
    recs = classify_common_eigenvectors(rep, 2)
    assert [r.case_id for r in recs] == cases


def test_d3_maps_between_partner_records():
    # the two equal-mass records of a (mk-1, mk) module swap under D3
    rep = build_ladder_rep(AlgebraLabel("D", 2), (1, 2))
    recs = classify_common_eigenvectors(rep, 3)
    by_case = {r.case_id: r for r in recs}
    assert set(by_case) == {2, 3}
    D3 = operator_matrices(rep).D3.to_numpy()

    def vec(rec):
        v = np.zeros(rep.dim, dtype=complex)
        for j, c in rec.coeffs.items():
            v[rep.index(j)] = float(c)
        return v

    image = D3 @ vec(by_case[2])
    partner = vec(by_case[3])
    # proportionality: image x partner has rank 1
    assert np.linalg.norm(image) > 1e-12
    cos = abs(image @ partner.conj()) / (np.linalg.norm(image) * np.linalg.norm(partner))
    assert cos == pytest.approx(1.0, abs=1e-12)
    # and the non-eigen records carry their D3 image for auditing
    assert by_case[2].d3_image and by_case[3].d3_image


def test_case1_vector_is_annihilated_by_d0():
    rep = build_ladder_rep(AlgebraLabel("B", 2), (2, 2))
    recs = classify_common_eigenvectors(rep, 4)
    assert [r.case_id for r in recs] == [1]
    D0 = operator_matrices(rep).D0.to_numpy()
    v = np.zeros(rep.dim, dtype=complex)
    v[rep.index(0)] = 1.0
    assert np.linalg.norm(D0 @ v) == 0.0


def test_classify_checks_sphere_dim():
    rep = build_ladder_rep(AlgebraLabel("B", 2), (1, 1))
    with pytest.raises(ValidationError):
        classify_common_eigenvectors(rep, 5)


def test_build_rejects_weights_without_invariants():
    with pytest.raises(ValidationError):
        build_ladder_rep(AlgebraLabel("B", 3), (1, 1, 2))  # leading entry nonzero


def test_embedding_deviation_tiny():
    for k in range(2, 6):
        rpt = verify_embedding(k)
        assert rpt.max_deviation <= 1e-12
        assert rpt.j_identity_deviation <= 1e-12
    with pytest.raises(ValidationError):
        verify_embedding(6)
