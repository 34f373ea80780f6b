import pytest

from mu2forge import mu_terms as tm
from mu2forge import mu_types as mt
from mu2forge import target_terms as tg
from mu2forge import target_types as tt
from mu2forge.combinators import dne, exotic_numeral, l_mu, peirce
from mu2forge.cps import cps_term_typed
from mu2forge.printer import (
    mu_term_from_sexpr,
    mu_type_from_sexpr,
    parse_sexpr,
    print_mu_term,
    print_mu_type,
    print_target_term,
    sexpr,
    sexpr_mu_term,
    SexprError,
    sexpr_target_term,
    target_term_from_sexpr,
)
from mu2forge.surface import (
    MuParseError,
    parse_mu_term,
    parse_mu_type,
    parse_target_term,
    parse_target_type,
)
from mu2forge.target_typing import TargetTypeMismatch, resolve_packs, typecheck_target
from mu2forge.theory import GaveUp, gen_judgement

A = mt.TVar("a")


def test_ascii_spellings():
    assert parse_mu_term(r"\x:s. x") == tm.lam("x", mt.TVar("s"), tm.Var("x"))
    assert parse_mu_term("mu a:s. [b] m") == tm.mu("a", mt.TVar("s"), "b", tm.Var("m"))
    assert parse_mu_term(r"/\X. \x:X. x") == tm.tylam(
        "X", tm.lam("x", mt.TVar("X"), tm.Var("x"))
    )
    assert parse_mu_term("mu* a:s. m") == tm.bold_mu("a", mt.TVar("s"), tm.Var("m"))
    assert parse_mu_term("[b] m") == tm.named("b", tm.Var("m"))
    assert parse_mu_term("m [t]") == tm.TyApp(tm.Var("m"), mt.TVar("t"))
    assert parse_mu_type("bot") == mt.BOT
    assert parse_mu_type("not s") == mt.neg(mt.TVar("s"))
    got = parse_mu_type("forall X. (s -> X) -> X")
    from mu2forge.combinators import l_type

    assert got == l_type(mt.TVar("s"))


def test_positioned_errors():
    with pytest.raises(MuParseError) as err:
        parse_mu_term(r"\x:s.")
    assert err.value.line == 1
    with pytest.raises(MuParseError):
        parse_mu_term("mu a. m")
    with pytest.raises(MuParseError):
        parse_mu_type("forall . X")
    with pytest.raises(MuParseError):
        parse_target_term("let <x y> = z in x")


def test_print_parse_roundtrip_corpus():
    for term in [dne(A), peirce(A, mt.TVar("b")), exotic_numeral(), l_mu(A)]:
        assert parse_mu_term(print_mu_term(term)) == term


def test_print_parse_roundtrip_generated():
    """parse(print(t)) = t over seeded generated terms in both calculi."""
    checked = 0
    seed = 91000
    while checked < 1000:
        try:
            gamma, delta, term, _ = gen_judgement(seed, budget=5)
        except GaveUp:
            seed += 1
            continue
        assert parse_mu_term(print_mu_term(term)) == term, seed
        image, _ = cps_term_typed(gamma, delta, term)
        assert parse_target_term(print_target_term(image)) == image, seed
        checked += 1
        seed += 1


def test_type_print_parse_roundtrip_generated():
    import random

    from mu2forge.theory import gen_type

    rng = random.Random(17)
    for _ in range(1000):
        ty = gen_type(rng, 3)
        assert parse_mu_type(print_mu_type(ty)) == ty


def test_target_surface():
    assert parse_target_term("*") == tg.STAR
    assert parse_target_type("R") == tt.R
    assert parse_target_type("not s /\\ s") == tt.Conj(
        tt.Neg(tt.TgVarT("s")), tt.TgVarT("s")
    )
    t = parse_target_term("let <x, k> = z in x k")
    assert isinstance(t, tg.LetPair)
    t = parse_target_term("let <X, k> = z in k k")
    assert isinstance(t, tg.LetPack)
    packed = parse_target_term("<s | k : exists X. X>")
    assert packed == tg.Pack(tt.TgVarT("s"), tg.TgVar("k"), tt.TOP)


def test_resolve_packs_default_annotation():
    packed = parse_target_term("<s | k>")
    resolved, ty = resolve_packs(packed, (("k", tt.TgVarT("s")),))
    assert (resolved, ty) == (tg.Pack(tt.TgVarT("s"), tg.TgVar("k"), tt.TOP), tt.TOP)


def test_shadowing_binders_read_as_innermost():
    """An inner binder of the same name shadows an outer one only within
    its own scope, in the surface reader and the s-expression reader."""
    a, b = tt.TgVarT("a"), tt.TgVarT("b")
    v, bv, bt = tg.TgVar, tg.TgBVar, tt.TgBoundT
    app = tg.TgApp
    assert parse_target_term(r"\x:a. \x:b. x") == tg.TgLam("x", a, tg.TgLam("x", b, bv(0)))
    assert parse_target_term(r"\x:a. <(\x:b. x), x>") == tg.TgLam(
        "x", a, tg.Pair(tg.TgLam("x", b, bv(0)), bv(0))
    )
    assert parse_target_term("let <x, y> = p in let <x, z> = x in g <x, <y, z>>") == tg.LetPair(
        "x", "y", v("p"),
        tg.LetPair("x", "z", bv(1), app(v("g"), tg.Pair(bv(1), tg.Pair(bv(2), bv(0))))),
    )
    assert parse_target_term("let <x, x> = p in x") == tg.LetPair("x", "x", v("p"), bv(0))
    # the outer X is bound again in the lambda's annotation after the
    # inner let-pack's scope ends
    got = parse_target_term(r"let <X, x> = v in h <(let <X, y> = x in f y), \b: X. q b>")
    inner = tg.LetPack("X", "y", bv(0), app(v("f"), bv(0)))
    lam = tg.TgLam("b", bt(0), app(v("q"), bv(0)))
    assert got == tg.LetPack("X", "x", v("v"), app(v("h"), tg.Pair(inner, lam)))
    sexpr = "(lam x (tvar a) (lam x (tvar b) (app (var x) (var y))))"
    assert target_term_from_sexpr(parse_sexpr(sexpr)) == tg.TgLam(
        "x", a, tg.TgLam("x", b, app(bv(0), v("y")))
    )
    sexpr = (
        "(letpack X x (var v) (letpack X y (var x)"
        " (app (var f) (pack (tvar X) (var y) (exists Y (tvar Y))))))"
    )
    pack = tg.Pack(bt(0), bv(0), tt.TOP)
    assert target_term_from_sexpr(parse_sexpr(sexpr)) == tg.LetPack(
        "X", "x", v("v"), tg.LetPack("X", "y", bv(0), app(v("f"), pack))
    )


def test_unannotated_pack_under_let_pack():
    term = parse_target_term("let <X, x> = v in f <X | x>")
    ex = tt.exists("Y", tt.TgVarT("Y"))
    context = (("v", ex), ("f", tt.Neg(ex)))
    pack = tg.Pack(tt.TgBoundT(0), tg.TgBVar(0), tt.TOP)
    resolved, ty = resolve_packs(term, context)
    assert (resolved, ty) == (tg.LetPack("X", "x", tg.TgVar("v"), tg.TgApp(tg.TgVar("f"), pack)), tt.R)
    with pytest.raises(TargetTypeMismatch, match="non-existential None"):
        typecheck_target(context, term)  # not resolved


def test_resolve_packs_types_subterms_with_binders():
    """A pack payload or a let scrutinee that holds a binder resolves:
    its own bound variables are not taken for free ones."""
    s, x = tt.TgVarT("s"), tt.TgVarT("X")
    g, app, bv = tg.TgVar("g"), tg.TgApp, tg.TgBVar
    lam = tg.TgLam("k", s, app(g, bv(0)))
    context = (("g", tt.Neg(s)), ("f", tt.Neg(tt.exists("X", tt.Neg(x)))), ("w", s))
    got, _ = resolve_packs(parse_target_term(r"f <s | \k:s. g k>"), context)
    assert got == app(tg.TgVar("f"), tg.Pack(s, lam, tt.exists("X", tt.Neg(x))))
    got, _ = resolve_packs(parse_target_term(r"let <x, y> = <\k:s. g k, w> in y"), context)
    assert got == tg.LetPair("x", "y", tg.Pair(lam, tg.TgVar("w")), bv(0))
    got, _ = resolve_packs(parse_target_term(r"let <x, y> = <\k:s. g k, w> in f <s | x>"), context)
    pack = tg.Pack(s, bv(1), tt.exists("X", tt.Neg(x)))
    assert got == tg.LetPair("x", "y", tg.Pair(lam, tg.TgVar("w")), app(tg.TgVar("f"), pack))


def test_sexpr_roundtrips():
    for term in [dne(A), exotic_numeral(), l_mu(A)]:
        assert mu_term_from_sexpr(parse_sexpr(sexpr_mu_term(term))) == term
    ty = mt.forall("X", mt.Arrow(mt.TVar("X"), A))
    assert mu_type_from_sexpr(parse_sexpr(sexpr(ty))) == ty
    image, _ = cps_term_typed((), (), dne(A))
    assert target_term_from_sexpr(parse_sexpr(sexpr_target_term(image))) == image


@pytest.mark.parametrize(
    "read, text",
    [
        (mu_term_from_sexpr, '(lam "x")'),
        (mu_term_from_sexpr, "()"),
        (mu_term_from_sexpr, '(app (var "f"))'),
        (mu_term_from_sexpr, '(lam "x" (tvar "a") (var "x") extra)'),
        (mu_term_from_sexpr, '(lam "x" (var "a") (var "x"))'),
        (mu_term_from_sexpr, '(pair (var "x") (var "y"))'),
        (mu_term_from_sexpr, '"x"'),
        (mu_type_from_sexpr, '(tvar "a" "b")'),
        (target_term_from_sexpr, '(lam "x" (r) (var "x") extra)'),
        (target_term_from_sexpr, '(letpair "x" (var "p") (var "x"))'),
        (target_term_from_sexpr, '(tylam "X" (var "x"))'),
        (target_term_from_sexpr, '(lam (var "x") (r) (var "x"))'),
    ],
)
def test_sexpr_reader_rejects_malformed_input(read, text):
    with pytest.raises(SexprError):
        read(parse_sexpr(text))


def test_unicode_output_is_reparseable():
    term = parse_mu_term("mu* a:not not s. [b] (m [bot])")
    assert parse_mu_term(print_mu_term(term)) == term
