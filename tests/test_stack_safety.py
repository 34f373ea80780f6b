"""Every per-term pass on the eq path, and the s-expression writer, runs
on an explicit stack.

Each pass runs in process, at the default recursion limit, on a term
three times as deep as that limit; then Church 1000 goes through
typecheck, CPS, eq, print and parse, in process and as a cold
``mu2forge eq N N``, and its CPS image through a cold
``mu2forge cps --ast``.  Classification, inversion, the s-expression
reader and deep types still take frames per level and are not covered
here.
"""

import subprocess
import sys
from pathlib import Path

import mu2forge
from mu2forge import mu_terms as tm
from mu2forge import rewrite
from mu2forge import target_terms as tg
from mu2forge import target_types as tt
from mu2forge.combinators import church, church_type
from mu2forge.cps import cps_context, cps_term_typed, cps_type
from mu2forge.mu_typing import typecheck_mu
from mu2forge.printer import print_mu_term, print_target_term, sexpr, sexpr_mu_term, sexpr_target_term
from mu2forge.surface import parse_mu_term, parse_target_term
from mu2forge.target_typing import PLAIN, typecheck_target
from mu2forge.theory import eq_mu

LIMIT = sys.getrecursionlimit()
DEEP = 3 * LIMIT
S = tt.TgVarT("s")


def depth(t, children) -> int:
    """The height of a tree, measured without recursion."""
    best, stack = 0, [(t, 1)]
    while stack:
        node, d = stack.pop()
        best = max(best, d)
        stack.extend((kid, d + 1) for kid in children(node))
    return best


def spine(n: int, bottom: tg.TargetTerm) -> tg.TargetTerm:
    """g applied to a pair n levels deep, bottom innermost."""
    t = bottom
    for _ in range(n):
        t = tg.TgApp(tg.TgVar("g"), tg.Pair(t, tg.TgVar("a")))
    return t


def test_map_is_a_loop_and_keeps_unchanged_subtrees():
    t = tg.TgBVar(0)
    for _ in range(DEEP):
        t = tg.TgApp(t, tg.TgVar("a"))
    assert tg.open_var(t, "w", 1) is t  # nothing bound at that depth
    out = tg.open_var(t, "w")
    assert tg.subterm_at(out, (0,) * DEEP) == tg.TgVar("w")
    assert out.arg is t.arg
    assert tg.equal(tg.SYNTAX.close(tg.VAR, out, "w"), t)


def test_mixed_subst_is_a_loop():
    t = tm.Var("x")
    for _ in range(DEEP):
        t = tm.named("a", tm.App(tm.Var("f"), t))
    out = tm.mixed_subst(t, "a", tm.AppArg(tm.Var("n")), b="b")
    for _ in range(DEEP):
        assert out.target == tm.FName("b") and out.body.arg == tm.Var("n")
        out = out.body.fn.arg
    assert out == tm.Var("x")


def test_church_builds_and_types_deep():
    n = church(DEEP)  # tm.lam closes its body through syntax._map
    assert depth(n, lambda t: tm.SYNTAX.children[t.__class__](t)) > DEEP
    assert typecheck_mu((), (), n) == church_type()


def test_mu_printer_and_parser_round_trip_deep():
    n = church(DEEP)
    text = print_mu_term(n)
    assert tm.SYNTAX.equal(parse_mu_term(text), n)
    parens = "(" * DEEP + "x" + ")" * DEEP
    assert parse_mu_term(parens) == tm.Var("x")


def test_cps_typing_and_nameful_round_trip_deep():
    image, ty = cps_term_typed((), (), church(DEEP))  # mu_typing._synth with cps._Image, close_binders
    assert typecheck_target((), image) == tt.Neg(cps_type(ty))
    nameful = rewrite.to_nameful(image)
    assert tg.equal(rewrite.from_nameful(nameful), image)
    # The image of Church n is more than 3n deep, and every bracket of it
    # nests the next; the reader finds all their separators in one pass.
    assert depth(image, tg.children) > 3 * DEEP
    assert tg.equal(parse_target_term(print_target_term(image)), image)


def test_sexpr_writer_deep():
    # A binder at the bottom avoids the free atom under it: _free_under
    # and the writer both reach it.
    bottom = tg.TgLam("g", S, tg.TgApp(tg.TgVar("g"), tg.TgBVar(0)))
    text = sexpr_target_term(spine(DEEP, bottom))
    head, tail = '(app (var "g") (pair ', ' (var "a")))'
    assert text == head * DEEP + '(lam "g1" (tvar "s") (app (var "g") (var "g1")))' + tail * DEEP
    n = church(DEEP)
    head = '(tylam "X" (lam "x" (tvar "X") (lam "f" (arrow (tvar "X") (tvar "X")) '
    assert sexpr_mu_term(n) == head + '(app (var "f") ' * DEEP + '(var "x")' + ")" * (DEEP + 3)
    image, _ = cps_term_typed((), (), n)
    assert sexpr_target_term(image).startswith("(lam ")
    ty = tt.TgVarT("a")
    for _ in range(DEEP):
        ty = tt.Neg(ty)
    assert sexpr(ty) == "(neg " * DEEP + '(tvar "a")' + ")" * DEEP


def test_engine_substitutions_deep():
    # _replace_where, through subst_refresh: the occurrence is at the bottom.
    t = spine(DEEP, tg.TgVar("x"))
    out = rewrite.subst_refresh(t, "x", tg.TgVar("y"))
    path = (1, 0) * DEEP
    assert tg.subterm_at(out, path) == tg.TgVar("y")
    assert out.fn is t.fn
    # subst_tatom: the type atom is in the innermost annotation.
    lam = tg.TgLam("z%1", tt.TgVarT("T"), tg.TgApp(tg.TgVar("g"), tg.TgVar("z%1")))
    out = rewrite.subst_tatom(spine(DEEP, lam), {"T": S})
    assert tg.subterm_at(out, path).ann == S
    # _replace_first_scrut: the let that scrutinises a is at the bottom.
    let = tg.LetPair("p%1", "q%1", tg.TgVar("a"), tg.TgApp(tg.TgVar("p%1"), tg.TgVar("q%1")))
    rep = tg.Pair(tg.TgVar("u"), tg.TgVar("v"))
    t = spine(DEEP, let)
    out = rewrite._replace_first_scrut(t, "a", tg.LetPair, rep)
    assert tg.subterm_at(out, path).scrut == rep
    assert tg.subterm_at(out, path[:-1]).right is tg.subterm_at(t, path[:-1]).right


def test_type_alias_passes_deep():
    # subst_tatom of one type for several atoms, and the pass that
    # resolves a run's type-atom aliases (T to U to s): the aliased atoms
    # are in the innermost annotation.
    lam = tg.TgLam("z%1", tt.Conj(tt.TgVarT("T"), tt.TgVarT("U")), tg.TgApp(tg.TgVar("g"), tg.TgVar("z%1")))
    t = spine(DEEP, lam)
    path = (1, 0) * DEEP
    out = rewrite.subst_tatom(t, dict.fromkeys(("T", "U"), S))
    assert tg.subterm_at(out, path).ann == tt.Conj(S, S)
    run = rewrite.RunState(PLAIN)
    run.aliases.update(T="U", U="s")
    out = run.leave(t)
    assert tg.subterm_at(out, path).ann == tt.Conj(S, S)
    assert rewrite.free_tatoms(out) == {"s"} and out.fn is t.fn


def test_church_1000_in_process():
    n = church(1000)
    assert typecheck_mu((), (), n) == church_type()
    image, ty = cps_term_typed((), (), n)
    assert typecheck_target(cps_context((), ()), image) == tt.Neg(cps_type(ty))
    parsed = parse_mu_term(print_mu_term(n))
    assert tm.SYNTAX.equal(parsed, n)
    verdict = eq_mu(parsed, church(1000))
    assert verdict.equal
    shared = print_target_term(verdict.shared)
    assert tg.equal(parse_target_term(shared), verdict.shared)


def test_church_1000_cold_cli():
    numeral = print_mu_term(church(1000))
    src = str(Path(mu2forge.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "mu2forge.cli", "eq", numeral, numeral],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src, "PYTHONIOENCODING": "utf-8"},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "Equal"
    assert "Traceback" not in proc.stderr


def test_church_1000_cold_cps_ast():
    numeral = print_mu_term(church(1000))
    src = str(Path(mu2forge.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "mu2forge.cli", "cps", "--ast", numeral],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src, "PYTHONIOENCODING": "utf-8"},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("(lam ") and proc.stdout.count("(") == proc.stdout.count(")")
    assert "Traceback" not in proc.stderr
