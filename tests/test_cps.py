import random

import pytest

from mu2forge import mu_terms as tm
from mu2forge import mu_types as mt
from mu2forge import target_terms as tg
from mu2forge import target_types as tt
from mu2forge.combinators import dne
from mu2forge.cps import (
    check_subst_term_in_term,
    check_subst_type_in_term,
    check_subst_type_in_type,
    check_type_soundness,
    cps_term_typed,
    cps_type,
)
from mu2forge.mu_typing import TypeMismatch, ctx, judge
from mu2forge.theory import GaveUp, gen_type, gen_typed_term

A, B = mt.TVar("a"), mt.TVar("b")


def test_type_translation_table():
    assert cps_type(mt.TVar("X")) == tt.TgVarT("X")
    assert cps_type(mt.Arrow(A, B)) == tt.Conj(tt.Neg(tt.TgVarT("a")), tt.TgVarT("b"))
    assert cps_type(mt.forall("X", mt.TVar("X"))) == tt.TOP
    # composing the rows: (s -> bot)deg = not sdeg /\ exists X. X
    got = cps_type(mt.neg(A))
    assert got == tt.Conj(tt.Neg(tt.TgVarT("a")), tt.TOP)


def test_term_translation_clauses():
    # variables translate to themselves
    term, _ = cps_term_typed(ctx(("x", A)), (), tm.Var("x"))
    assert term == tg.TgVar("x")
    # type application packs the translated witness
    term, ty = cps_term_typed(
        ctx(("w", mt.forall("X", mt.TVar("X")))), (), tm.TyApp(tm.Var("w"), B)
    )
    assert ty == B
    assert isinstance(term, tg.TgLam)
    body = tg.open_var(term.body, "k0")
    assert body == tg.TgApp(
        tg.TgVar("w"), tg.Pack(tt.TgVarT("b"), tg.TgVar("k0"), tt.TOP)
    )


def test_type_soundness_examples():
    check_type_soundness(judge(ctx(), ctx(), dne(A)))
    check_type_soundness(judge(ctx(), ctx(), tm.lam("x", A, tm.Var("x"))))
    check_type_soundness(
        judge(ctx(("m", B)), ctx(("b", B)), tm.mu("a", A, "b", tm.Var("m")))
    )


def test_ill_typed_propagates():
    with pytest.raises(TypeMismatch):
        cps_term_typed(ctx(("x", A)), (), tm.App(tm.Var("x"), tm.Var("x")))


def test_subst_lemma_trivial_and_displayed():
    rep = check_subst_type_in_type(mt.TVar("X"), "X", A)
    assert rep.holds and rep.left == tt.TgVarT("a")
    # [[M[N/x]]] vs [[M]][[[N]]/x] for M = x y
    g = ctx(("x", mt.Arrow(A, B)), ("y", A), ("y2", A))
    m = tm.App(tm.Var("x"), tm.Var("y"))
    rep = check_subst_term_in_term(g, ctx(), m, "y", tm.Var("y2"))
    assert rep.holds


def test_subst_lemmas_randomized():
    checked = 0
    seed = 31100
    while checked < 200:
        rng = random.Random(seed)
        sigma_x = gen_type(rng, 2)
        gamma = ctx(("v1", gen_type(rng, 2)), ("v2", sigma_x))
        delta = ctx(("k1", gen_type(rng, 2)))
        try:
            m = gen_typed_term(seed, 5, gamma + (("x", sigma_x),), delta, gen_type(rng, 2))
            n = gen_typed_term(seed + 1, 4, gamma, delta, sigma_x)
        except GaveUp:
            seed += 1
            continue
        assert check_subst_term_in_term(
            gamma + (("x", sigma_x),), delta, m, "x", n
        ).holds, seed
        assert check_subst_type_in_term(gamma, delta, m and n, "a", gen_type(rng, 2)).holds
        checked += 1
        seed += 1


def test_translation_commutes_with_alpha():
    # alpha-variant spellings parse to the same internal term, hence the
    # same image
    from mu2forge.surface import parse_mu_term

    t1 = parse_mu_term(r"\x:a. mu d:b. [e] x")
    t2 = parse_mu_term(r"\y:a. mu q:b. [e] y")
    assert t1 == t2
    i1, _ = cps_term_typed((), ctx(("e", A)), t1)
    i2, _ = cps_term_typed((), ctx(("e", A)), t2)
    assert i1 == i2
