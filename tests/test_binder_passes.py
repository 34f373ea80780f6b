"""The whole-tree binder passes, `Syntax.close_binders` and
`Syntax.open_binders`, and the s-expression reader that closes through
them: an inner binder of an atom shadows an outer one only within its
scope, in every namespace of both calculi, and a type binder inside a
term's annotation binds nothing by name.  The expected terms are what
the per-binder constructors (`mu_terms.lam`, `tylam`, `mu`) and the
hand-written passes these replaced gave."""

import pytest

from mu2forge import mu_terms as tm
from mu2forge import mu_types as mt
from mu2forge import target_terms as tg
from mu2forge import target_types as tt
from mu2forge.mu_terms import base_name
from mu2forge.printer import (
    mu_term_from_sexpr,
    mu_type_from_sexpr,
    parse_sexpr,
    target_term_from_sexpr,
    target_type_from_sexpr,
)

A, X, x, y = mt.TVar("a"), mt.TVar("X"), tm.Var("x"), tm.Var("y")
S, TX, tx = tt.TgVarT("s"), tt.TgVarT("X"), tg.TgVar("x")

#: per namespace and calculus: the nameful term, its s-expression, and
#: its closed form
SHADOWING = {
    "VAR mu": (
        tm.Lam("x", A, tm.App(tm.Lam("x", A, tm.App(x, y)), x)),
        '(lam "x" (tvar "a") (app (lam "x" (tvar "a") (app (var "x") (var "y"))) (var "x")))',
        tm.Lam("x", A, tm.App(tm.Lam("x", A, tm.App(tm.BVar(0), y)), tm.BVar(0))),
    ),
    "VAR target": (
        tg.TgLam("x", S, tg.LetPair("x", "x", tx, tg.TgApp(tg.TgLam("x", S, tx), tx))),
        '(lam "x" (tvar "s") (letpair "x" "x" (var "x") (app (lam "x" (tvar "s") (var "x")) (var "x"))))',
        tg.TgLam("x", S, tg.LetPair(
            "x", "x", tg.TgBVar(0), tg.TgApp(tg.TgLam("x", S, tg.TgBVar(0)), tg.TgBVar(0))
        )),
    ),
    "TVAR mu": (
        tm.TyLam("X", tm.Lam("y", mt.Arrow(X, mt.Forall("X", mt.TBound(0))),
                             tm.TyLam("X", tm.Lam("z", X, tm.TyApp(y, X))))),
        '(tylam "X" (lam "y" (arrow (tvar "X") (forall "X" (tvar "X")))'
        ' (tylam "X" (lam "z" (tvar "X") (tyapp (var "y") (tvar "X"))))))',
        tm.TyLam("X", tm.Lam("y", mt.Arrow(mt.TBound(0), mt.Forall("X", mt.TBound(0))),
                             tm.TyLam("X", tm.Lam("z", mt.TBound(0), tm.TyApp(tm.BVar(1), mt.TBound(0)))))),
    ),
    "TVAR target": (
        tg.LetPack("X", "x", tg.TgVar("v"), tg.LetPack(
            "X", "x", tx, tg.TgLam("y", TX, tg.Pack(TX, tx, tt.Exists("X", tt.TgBoundT(0))))
        )),
        '(letpack "X" "x" (var "v") (letpack "X" "x" (var "x")'
        ' (lam "y" (tvar "X") (pack (tvar "X") (var "x") (exists "X" (tvar "X"))))))',
        tg.LetPack("X", "x", tg.TgVar("v"), tg.LetPack("X", "x", tg.TgBVar(0), tg.TgLam(
            "y", tt.TgBoundT(0), tg.Pack(tt.TgBoundT(0), tg.TgBVar(1), tt.Exists("X", tt.TgBoundT(0)))
        ))),
    ),
    "NAME mu": (
        tm.Mu("a", A, tm.FName("a"), tm.App(tm.Mu("a", A, tm.FName("a"), x), tm.Mu("b", A, tm.FName("a"), x))),
        '(mu "a" (tvar "a") "a" (app (mu "a" (tvar "a") "a" (var "x")) (mu "b" (tvar "a") "a" (var "x"))))',
        tm.Mu("a", A, tm.BName(0), tm.App(
            tm.Mu("a", A, tm.BName(0), x), tm.Mu("b", A, tm.BName(1), x)
        )),
    ),
}

#: at a type root the type's own binders bind by name
TYPE_ROOTS = {
    "mu": (
        mt.Forall("X", mt.Arrow(X, mt.Forall("X", X))),
        '(forall "X" (arrow (tvar "X") (forall "X" (tvar "X"))))',
        mt.Forall("X", mt.Arrow(mt.TBound(0), mt.Forall("X", mt.TBound(0)))),
    ),
    "target": (
        tt.Exists("X", tt.Conj(TX, tt.Exists("X", tt.Neg(TX)))),
        '(exists "X" (conj (tvar "X") (exists "X" (neg (tvar "X")))))',
        tt.Exists("X", tt.Conj(tt.TgBoundT(0), tt.Exists("X", tt.Neg(tt.TgBoundT(0))))),
    ),
}


@pytest.mark.parametrize("case", SHADOWING)
def test_inner_binder_shadows_only_in_its_scope(case):
    nameful, text, closed = SHADOWING[case]
    mu = case.endswith("mu")
    syntax, read = (tm.SYNTAX, mu_term_from_sexpr) if mu else (tg.SYNTAX, target_term_from_sexpr)
    assert repr(syntax.close_binders(nameful)) == repr(closed)
    assert repr(read(parse_sexpr(text))) == repr(closed)
    if not mu:
        assert repr(tg.close_binders(nameful)) == repr(closed)
        assert repr(tg.close_binders(tg.to_nameful(closed), base_name)) == repr(closed)


@pytest.mark.parametrize("case", TYPE_ROOTS)
def test_type_root_binds_its_own_binders(case):
    nameful, text, closed = TYPE_ROOTS[case]
    syntax, read = (mt.SYNTAX, mu_type_from_sexpr) if case == "mu" else (tt.SYNTAX, target_type_from_sexpr)
    assert repr(syntax.close_binders(nameful)) == repr(closed)
    assert repr(read(parse_sexpr(text))) == repr(closed)


def test_type_binders_in_annotations_bind_nothing():
    """The let binds the type atom X; the lambda's annotation, exists X.
    not X, is locally nameless, so its X is the let's atom and its
    binder's hint is only a hint: closing leaves it, and shifts."""
    nameful = tg.LetPack("X", "x", tg.TgVar("v"),
                         tg.TgLam("k", tt.Exists("X", tt.Neg(TX)), tg.TgApp(tg.TgVar("k"), tx)))
    closed = tg.LetPack("X", "x", tg.TgVar("v"), tg.TgLam(
        "k", tt.Exists("X", tt.Neg(tt.TgBoundT(1))), tg.TgApp(tg.TgBVar(0), tg.TgBVar(1))
    ))
    assert repr(tg.close_binders(nameful, base_name)) == repr(closed)
    assert tg.close_binders(nameful, str.lower).body.ann.hint == "X"
    opened = tg.to_nameful(closed)
    assert opened.body.ann == tt.Exists("X", tt.Neg(tt.TgVarT(opened.hint_t)))
    assert tg.nameful_equal(opened, nameful)
