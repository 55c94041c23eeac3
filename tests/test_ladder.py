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
from sphere_twobody import ladder
from sphere_twobody.exactmat import GMat, Rad
from sphere_twobody.ladder import EigenvectorRecord
from sphere_twobody.suites import _ladder_weights


def test_ladder_action_B2():
    rep = build_ladder_rep(AlgebraLabel("B", 2), (0, 2))
    assert rep.basis == (-2, 0, 2)
    assert (rep.nu, rep.mu) == (2, 3)
    # D+ chi_-2 = (1/4)(j - mu)(j - nu) chi_0 = (1/4)(-5)(-4) chi_0
    assert rep.Dplus.re[rep.index(0)][rep.index(-2)] == Fraction(5)
    # the bands hold 4 D+ from and 4 D- into chi_-2, chi_0
    assert (rep.up, rep.down) == ((20, 6), (6, 20))


def test_ladder_action_D2():
    rep = build_ladder_rep(AlgebraLabel("D", 2), (0, 1))
    assert (rep.nu, rep.mu) == (1, 1)
    assert rep.Dplus.re[rep.index(1)][rep.index(-1)] == Fraction(1)


def test_rank1_surd_entries():
    # so(3): D+ chi_j = (1/4) sqrt((m-j)(m+j+1)(m-j-1)(m+j+2)) chi_{j+2}
    rep = build_ladder_rep(AlgebraLabel("B", 1), (2,))
    assert rep.basis == (-2, -1, 0, 1, 2)
    assert rep.Dplus.re[rep.index(0)][rep.index(-2)] == Rad(Fraction(1, 2), 6)
    assert rep.up == rep.down == (24, 36, 24)  # the radicands 16 d+^2
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
        rep.up = rep.down
    bad = rep._replace(up=(rep.up[0] + Fraction(1, 7),) + rep.up[1:])
    with pytest.raises(VerificationError):
        verify_structure_relations(bad)


def _reference_q(rep):
    """q in [D+, D-] = -F^3/2 + q F, in Fractions."""
    k, c = rep.algebra.rank, rep.weight.coeffs
    mk, mk1 = (c[0], 0) if k == 1 else (c[-1], abs(c[-2]))
    if rep.algebra.series == "B":
        return Fraction(mk * mk + mk1 * mk1 + (2 * k - 1) * mk + (2 * k - 3) * mk1, 2) + Fraction(
            (2 * k - 1) * (2 * k - 3), 4)
    return Fraction(mk * mk + mk1 * mk1 + 2 * (k - 1) * mk + 2 * (k - 2) * mk1, 2) + (
        (k - 1) * (k - 2))


def _reference_accepts(rep):
    """The relations and the factorization as identities between GMat views.

    The check the integer bands replaced, kept as their reference: complex
    Fraction/Rad products of D0..D3 built from F, D+ and D-.
    """
    F, Dp, Dm = rep.F, rep.Dplus, rep.Dminus
    G = (F @ F - GMat.eye(rep.dim, rep.casimir)).scale(Fraction(1, 2))
    D0, D1, D2, D3 = F.scale(0, -1), Dp + Dm + G, G - Dp - Dm, (Dp - Dm).scale(0, 1)
    n = rep.algebra.sphere_dim
    cc, q = Fraction((n - 1) * (n - 3), 2), _reference_q(rep)
    try:
        residuals = [
            D0.commutator(D1) + D3.scale(2),
            D0.commutator(D2) - D3.scale(2),
            D0.commutator(D3) - D1 + D2,
            D1.commutator(D2) + D0.anticommutator(D3).scale(2),
            D1.commutator(D3) + D0.anticommutator(D1) - D0.scale(cc),
            D2.commutator(D3) - D0.anticommutator(D2) + D0.scale(cc),
            F.commutator(Dp) - Dp.scale(2),
            F.commutator(Dm) + Dm.scale(2),
            Dp.commutator(Dm) + (F @ F @ F).scale(Fraction(1, 2)) - F.scale(q),
        ]
    except ArithmeticError:  # unlike surds: a residual that cannot cancel
        return False
    dp, dm = dict(Dp.entries()), dict(Dm.entries())
    mu, nu = rep.mu, rep.nu
    for eta in rep.basis:
        want = Fraction((eta - mu) * (eta - nu) * (eta + mu + 2) * (eta + nu + 2), 16)
        if eta + 2 not in rep.basis:
            got = Fraction(0)
        else:
            x = dp.get((rep.index(eta + 2), rep.index(eta)), (Fraction(0),))[0]
            y = dm.get((rep.index(eta), rep.index(eta + 2)), (Fraction(0),))[0]
            x, y = (v if isinstance(v, Rad) else Rad(v) for v in (x, y))
            if x and y and x.rad != y.rad:
                return False  # unpaired surds
            got = x.fr * y.fr * x.rad
        if got != want:
            return False
    return (all(r.is_zero() for r in residuals)
            and mu * mu + 2 * mu + nu * nu + 2 * nu == 4 * q)


def test_integer_check_and_gmat_reference_accept_the_criterion_1_grid():
    grid = _ladder_weights(6, 8)  # suites.check_structure_relations' defaults
    assert len(grid) == 495
    for alg, weight in grid:
        rep = build_ladder_rep(alg, weight)
        assert verify_structure_relations(rep).ok, weight
        assert _reference_accepts(rep), weight


@pytest.mark.parametrize("delta", [1, Fraction(1, 7)], ids=["off_by_one", "plus_one_seventh"])
@pytest.mark.parametrize("band", ["up", "down"])
@pytest.mark.parametrize(
    "series,rank,weight",
    [("B", 3, (0, 1, 4)),  # rank >= 2
     ("D", 2, (-1, 4)),    # m_{k-1} < 0
     ("B", 1, (8,))],      # radicand bands
)
def test_one_corrupted_band_entry_fails_both_checks(series, rank, weight, band, delta):
    rep = build_ladder_rep(AlgebraLabel(series, rank), weight)
    entries = list(getattr(rep, band))
    entries[len(entries) // 2] += delta
    bad = rep._replace(**{band: tuple(entries)})
    with pytest.raises(VerificationError):
        verify_structure_relations(bad)
    assert not _reference_accepts(bad)


def _reference_classify(rep):
    """The records, checked as before the band route; None where a check fails.

    GMat.apply of F^2 and of the operator matrices to each classified vector,
    compared exactly with the classified eigenvalues and D3 image; unlike
    surds that cannot cancel reject the module.
    """
    ops, F2 = operator_matrices(rep), GMat.diag([j * j for j in rep.basis])
    records = []
    for row, image in ladder._rows(rep.weight):
        case_id, text, coeffs, d0, d1, d2, d3, mode, _ = row
        vec = [(Fraction(coeffs.get(j, 0)), Fraction(0)) for j in rep.basis]
        try:
            for mat, val in ((F2, -d0), (ops.D1, d1), (ops.D2, d2)):
                if mat.apply(vec) != [(val * x, y) for x, y in vec]:
                    return None
            d3v = ops.D3.apply(vec)
        except ArithmeticError:
            return None
        if d3v != [image.get(j, (0, 0)) for j in rep.basis] or (d3 is not None and any(
                x or y for x, y in d3v)):
            return None
        records.append(EigenvectorRecord(case_id, text, coeffs, *map(Fraction, (d0, d1, d2)),
                                         d3, mode, rep.weight))
    return records


def _classified_reps():
    """Every module of the criterion-1 grid that has classified vectors."""
    reps = (build_ladder_rep(alg, weight) for alg, weight in _ladder_weights(6, 8))
    return [rep for rep in reps if ladder._rows(rep.weight)]


def test_classification_builds_no_matrix(monkeypatch):
    reps = _classified_reps()
    want = [_reference_classify(rep) for rep in reps]

    def no_matrix(*args, **kwargs):
        raise AssertionError("classification built or applied a GMat")

    for name in ("build", "diag", "eye", "apply"):
        monkeypatch.setattr(GMat, name, no_matrix)
    got = [classify_common_eigenvectors(rep, rep.algebra.sphere_dim) for rep in reps]
    assert sum(map(len, got)) == 356
    assert got == want
    for recs, refs in zip(got, want):
        for rec, ref in zip(recs, refs):
            assert list(map(type, rec)) == list(map(type, ref))
            assert rec.coeffs is ref.coeffs  # the shared read-only mappings


def test_band_and_reference_checks_agree_on_every_plus_one_mutation():
    tried, rejected = 0, 0
    for rep in _classified_reps():
        for band in ("up", "down"):
            entries = getattr(rep, band)
            for p in range(len(entries)):
                bad = rep._replace(**{band: entries[:p] + (entries[p] + 1,) + entries[p + 1:]})
                tried += 1
                try:  # any other exception fails the test
                    classify_common_eigenvectors(bad, rep.algebra.sphere_dim)
                    accepted = True
                except VerificationError:
                    accepted, rejected = False, rejected + 1
                assert accepted == (_reference_classify(bad) is not None), (rep.weight, band, p)
    # an entry no classified vector touches leaves the records valid
    assert (tried, rejected) == (496, 334)


@pytest.mark.parametrize("wrong", [
    {"delta0": Fraction(-1)}, {"delta1": Fraction(-4)}, {"delta2": Fraction(-4)},
    {"delta3": Fraction(0)}, {"image": {0: (Fraction(0), Rad(1, 6))}}])
def test_record_check_rejects_a_wrong_classified_value(wrong):
    rep = build_ladder_rep(AlgebraLabel("B", 1), (2,))
    rec = classify_common_eigenvectors(rep, 2)[0]  # case 5, chi_2 - chi_-2: surd D3 image
    image = wrong.pop("image", ladder._rows(rep.weight)[0][1])
    with pytest.raises(VerificationError):
        ladder._verify_record(rep, rec._replace(**wrong), image)


def test_unpaired_surds_are_a_verification_error():
    bad = build_ladder_rep(AlgebraLabel("B", 1), (2,))._replace(up=(25, 36, 24))
    with pytest.raises(VerificationError, match="unpaired surds"):
        classify_common_eigenvectors(bad, 2)


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
