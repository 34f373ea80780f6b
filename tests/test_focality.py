import pytest

from mu2forge import mu_terms as tm
from mu2forge import mu_types as mt
from mu2forge import target_terms as tg
from mu2forge import target_types as tt
from mu2forge.combinators import abort, compose, dne, identity, peirce
from mu2forge.focality import (
    FocalityCertificate,
    NoCertificate,
    certificate_to_dict,
    check_discardable,
    check_focal,
    check_fold_square,
    check_naturality_square,
    check_repeatable,
)
from mu2forge.mu_typing import MuTypeError, ctx
from mu2forge.theory import BETA_ETA, LAMBDA_MU_2P

A, B, C = mt.TVar("a"), mt.TVar("b"), mt.TVar("c")


def test_identity_certificate_is_eta_spine():
    cert = check_focal(identity(A), A, A)
    assert isinstance(cert, FocalityCertificate)
    assert cert.transformer == tg.TgVar(cert.hole)


def test_abort_certificate_packs_the_witness():
    cert = check_focal(abort(A), mt.BOT, A)
    assert isinstance(cert, FocalityCertificate)
    assert cert.transformer == tg.Pack(tt.TgVarT("a"), tg.TgVar(cert.hole), tt.TOP)


def test_instantiation_maps_certified():
    arr = mt.Arrow(A, B)
    f = tm.lam("x", arr, tm.App(tm.Var("x"), tm.Var("N")))
    cert = check_focal(f, arr, B, ctx(("N", A)))
    assert isinstance(cert, FocalityCertificate)
    fa = mt.forall("X", mt.Arrow(mt.TVar("X"), C))
    g = tm.lam("x", fa, tm.TyApp(tm.Var("x"), A))
    cert = check_focal(g, fa, mt.Arrow(A, C))
    assert isinstance(cert, FocalityCertificate)


def test_peirce_and_dne_refused():
    tau = mt.Arrow(mt.Arrow(A, B), A)
    refusal = check_focal(peirce(A, B), tau, A)
    assert isinstance(refusal, NoCertificate)
    assert "non-linearly" in refusal.reason
    refusal = check_focal(dne(A), mt.neg(mt.neg(A)), A)
    assert isinstance(refusal, NoCertificate)


def test_constant_map_refused():
    const = tm.lam("x", A, tm.Var("z"))
    refusal = check_focal(const, A, B, ctx(("z", B)))
    assert isinstance(refusal, NoCertificate)


def test_type_mismatch_rejected():
    with pytest.raises(MuTypeError):
        check_focal(identity(A), A, B)


def test_certificate_composition():
    inner = check_focal(abort(mt.Arrow(A, B)), mt.BOT, mt.Arrow(A, B))
    outer_term = tm.lam("x", mt.Arrow(A, B), tm.App(tm.Var("x"), tm.Var("N")))
    outer = check_focal(outer_term, mt.Arrow(A, B), B, ctx(("N", A)))
    subject = compose(outer.subject, inner.subject, inner.source)
    comp = check_focal(subject, inner.source, outer.target, ctx(("N", A)))
    assert isinstance(comp, FocalityCertificate)
    assert comp.source == mt.BOT and comp.target == B


def test_certificate_implies_repeatable_and_discardable():
    arr = mt.Arrow(A, B)
    f = tm.lam("x", arr, tm.App(tm.Var("x"), tm.Var("N")))
    gamma = ctx(("N", A))
    cert = check_focal(f, arr, B, gamma)
    assert isinstance(cert, FocalityCertificate)
    assert check_discardable(f, arr, B, LAMBDA_MU_2P, gamma).equal
    assert check_repeatable(f, arr, B, None, LAMBDA_MU_2P, gamma).equal
    # under the plain theory: repeatable yes, discardable no
    assert check_repeatable(f, arr, B, None, BETA_ETA, gamma).equal
    assert not check_discardable(f, arr, B, BETA_ETA, gamma).equal


def test_naturality_squares():
    cert = check_focal(identity(A), A, A)
    assert check_naturality_square(cert, "C").equal
    assert check_naturality_square(cert, "P").equal
    cert = check_focal(abort(A), mt.BOT, A)
    assert check_naturality_square(cert, "C").equal
    with pytest.raises(ValueError):
        check_naturality_square(cert, "Z")


def test_fold_square_at_identity_instance():
    from mu2forge.combinators import TypeScheme

    scheme = TypeScheme("X", mt.Arrow(C, mt.TVar("X")))
    alg = tm.Var("alg")
    gamma = ctx(("alg", mt.Arrow(scheme.apply(A), A)))
    premise, conclusion = check_fold_square(
        scheme, identity(A), alg, alg, A, A, LAMBDA_MU_2P, gamma
    )
    assert premise.equal and conclusion.equal
    # the same square through the naturality entry point
    cert = check_focal(identity(A), A, A, gamma)
    verdict = check_naturality_square(
        cert, "fold", LAMBDA_MU_2P, gamma, (), scheme=scheme, alg_a=alg, alg_b=alg
    )
    assert verdict.equal


def test_certificate_serialization():
    cert = check_focal(abort(A), mt.BOT, A)
    d = certificate_to_dict(cert)
    assert set(d) == {
        "subject", "source", "target", "hole", "transformer", "evidence", "trace",
    }
    assert d["source"] == "⊥" and d["target"] == "a"
    assert d["hole"] in d["transformer"]
    assert isinstance(d["trace"], list)


def test_certified_equal_across_alpha():
    c1 = check_focal(identity(A), A, A)
    c2 = check_focal(identity(A), A, A)
    assert c1.hole != c2.hole
    assert tg.SYNTAX.close(tg.VAR, c1.transformer, c1.hole) == tg.SYNTAX.close(tg.VAR, c2.transformer, c2.hole)
