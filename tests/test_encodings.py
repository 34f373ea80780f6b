import pytest

from mu2forge import mu_terms as tm
from mu2forge import mu_types as mt
from mu2forge.combinators import (
    ArityMismatch,
    NegativeOccurrence,
    TypeScheme,
    abort,
    catalog,
    church,
    church_succ,
    church_zero,
    compose,
    functorial_action,
    identity,
    l_eta,
    mu_fix_type,
    phi,
)
from mu2forge.mu_typing import ctx, typecheck_mu
from mu2forge.theory import BETA_ETA, eq_mu

A, B, C = mt.TVar("a"), mt.TVar("b"), mt.TVar("c")


def test_abort_displayed_type():
    assert typecheck_mu(ctx(), ctx(), abort(A)) == mt.Arrow(mt.BOT, A)


def test_l_eta_displayed_type():
    got = typecheck_mu(ctx(), ctx(), l_eta(A))
    want = mt.Arrow(A, mt.forall("X", mt.Arrow(mt.Arrow(A, mt.TVar("X")), mt.TVar("X"))))
    assert got == want


def test_catalog_typechecks_everywhere():
    entries = catalog()
    assert len(entries) >= 20
    names = {e.name for e in entries}
    for wanted in ("C", "Peirce", "Abort", "L-eta", "L-mu", "L-map", "L-alpha",
                   "sharp", "flat", "in", "fold", "in-sharp", "O", "S", "phi",
                   "g_o", "g_s", "fold_N", "exotic-numeral"):
        assert wanted in names
    for e in entries:
        assert e.ref and e.description


def test_church_rejects_a_negative_count():
    with pytest.raises(ArityMismatch):
        church(-1)


def test_scheme_polarity():
    pos = TypeScheme("X", mt.Arrow(A, mt.TVar("X")))
    assert pos.is_positive
    negneg = TypeScheme("X", mt.neg(mt.neg(mt.TVar("X"))))
    assert negneg.is_positive
    neg = TypeScheme("X", mt.Arrow(mt.TVar("X"), A))
    assert not neg.is_positive
    with pytest.raises(NegativeOccurrence):
        functorial_action(neg, identity(A), A, A)


def test_functorial_action_identity_scheme():
    scheme = TypeScheme("X", mt.TVar("X"))
    f = tm.Var("f")
    act = functorial_action(scheme, f, A, B)
    gamma = ctx(("f", mt.Arrow(A, B)))
    assert eq_mu(act, f, BETA_ETA, gamma).equal


def test_functorial_action_constant_scheme():
    scheme = TypeScheme("X", C)
    act = functorial_action(scheme, tm.Var("f"), A, B)
    gamma = ctx(("f", mt.Arrow(A, B)))
    assert eq_mu(act, identity(C), BETA_ETA, gamma).equal


def test_functorial_action_double_negation_scheme():
    # F[X] = (X -> bot) -> bot: synthesized action equals the hand-written
    # lam m. lam k. m (lam x. k (f x))
    scheme = TypeScheme("X", mt.neg(mt.neg(mt.TVar("X"))))
    f = tm.Var("f")
    act = functorial_action(scheme, f, A, B)
    hand = tm.lam(
        "m",
        mt.neg(mt.neg(A)),
        tm.lam(
            "k",
            mt.neg(B),
            tm.App(
                tm.Var("m"),
                tm.lam("x", A, tm.App(tm.Var("k"), tm.App(f, tm.Var("x")))),
            ),
        ),
    )
    gamma = ctx(("f", mt.Arrow(A, B)))
    assert eq_mu(act, hand, BETA_ETA, gamma).equal


def test_functor_laws():
    scheme = TypeScheme("X", mt.Arrow(C, mt.TVar("X")))
    gamma = ctx(("f", mt.Arrow(A, B)), ("g", mt.Arrow(B, C)))
    ident = functorial_action(scheme, identity(A), A, A)
    assert eq_mu(ident, identity(scheme.apply(A)), BETA_ETA, gamma).equal
    comp = functorial_action(
        scheme, compose(tm.Var("g"), tm.Var("f"), A), A, C
    )
    split = compose(
        functorial_action(scheme, tm.Var("g"), B, C),
        functorial_action(scheme, tm.Var("f"), A, B),
        scheme.apply(A),
    )
    assert eq_mu(comp, split, BETA_ETA, gamma).equal


def test_church_zero_is_O():
    assert eq_mu(church(0), church_zero(), BETA_ETA).equal


def test_church_successor_chain():
    n = church(2)
    assert eq_mu(tm.App(church_succ(), n), church(3), BETA_ETA).equal


def test_phi_typechecks_at_displayed_type():
    gamma = ctx(("a0", A), ("f0", mt.Arrow(A, A)))
    got = typecheck_mu(gamma, ctx(), phi(tm.Var("a0"), tm.Var("f0"), A))
    from mu2forge.combinators import numeral_algebra_type

    assert got == mt.Arrow(numeral_algebra_type(A), A)


def test_mu_fix_type_shape():
    scheme = TypeScheme("X", mt.Arrow(C, mt.TVar("X")))
    fix = mu_fix_type(scheme)
    assert isinstance(fix, mt.Forall)
