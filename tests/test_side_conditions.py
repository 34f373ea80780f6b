"""Inputs on which one side condition of a rewrite rule decides the step.

Each input below is well typed and already normal: the rule named in its
id matches its pattern at the root, and only the side condition stops
it.  Without that condition the rule would fire and leave a bound atom
free: eta-pair would keep y after deleting its binder, eta-pack and
dead-let-pack would keep the type atom X after deleting its binder.

eta-fun and star-eta have no side condition on their head: the input
that one would have to stop, a head that is the bound variable itself,
is ill typed, and the CLI refuses it before any rewrite.
"""

import pytest

from mu2forge import rewrite
from mu2forge import target_terms as tg
from mu2forge.cli import main
from mu2forge.surface import parse_target_term, parse_target_type
from mu2forge.target_typing import resolve_packs, typecheck_target

CASES = {
    # y occurs outside the pattern <x, y>.
    "eta-pair": (r"s:a/\b, f:not((a/\b)/\b)", r"let <x, y> = s in f <<x, y>, y>"),
    # X occurs outside the pattern <X | x>, in the second pack's annotation.
    "eta-pack": (
        r"s:exists Y. not Y, f:not((exists Y. not Y) /\ (exists Y. not Y)), h:not a, u:a",
        r"let <X, x> = s in f <<X | x : exists Y. not Y>, <X | \z:X. h u : exists Y. not Y>>",
    ),
    # x is dead, X is not.
    "dead-let-pack": (
        r"s:exists Y. not Y, f:not(exists Y. not Y), h:not a, u:a",
        r"let <X, x> = s in f <X | \z:X. h u : exists Y. not Y>",
    ),
}


def context(text):
    return tuple((n.strip(), parse_target_type(t)) for n, t in (part.split(":", 1) for part in text.split(",")))


@pytest.mark.parametrize("mode", ["plain", "parametric"])
@pytest.mark.parametrize("rule", list(CASES))
def test_side_condition_blocks_the_step(rule, mode):
    ctx_text, text = CASES[rule]
    ctx = context(ctx_text)
    term, _ = resolve_packs(parse_target_term(text), ctx, mode)
    ty = typecheck_target(ctx, term, mode)
    nameful = rewrite.to_nameful(term)
    assert rewrite.ALL_RULES[rule](nameful, dict(ctx), mode) is None
    out, steps = rewrite.normalize(term, ctx, mode)
    assert steps == []
    assert tg.equal(out, term)
    assert typecheck_target(ctx, out, mode) == ty


@pytest.mark.parametrize("mode", ["plain", "parametric"])
@pytest.mark.parametrize("rule", list(CASES))
def test_normalize_target_exits_2(capsys, rule, mode):
    # Each input is normal but outside the canonical grammar (its let
    # scrutinee is at a non-negated type): an input error, not a crash.
    ctx_text, text = CASES[rule]
    code = main(["normalize", "--target", "--mode", mode, "--ctx", ctx_text, text])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


@pytest.mark.parametrize("mode", ["plain", "parametric"])
def test_let_swap_keeps_a_scrutinee_that_uses_the_outer_type_atom(mode):
    # The inner let's scrutinee mentions the outer let's type atom X.
    # let-swap moves only a variable scrutinee out (its key orders every
    # other scrutinee last), and a variable holds no type atom, so no
    # occurs check on type atoms is needed to keep this let inside.
    ctx_text = r"s:exists Y. not Y, w:(not a) /\ a, f:not((not a) /\ (exists Y. not Y))"
    text = r"let <X, x> = s in let <p, q> = (let <c, d> = w in <<X | \v:X. c d : exists Y. not Y>, c>) in f <q, p>"
    ctx = context(ctx_text)
    term, _ = resolve_packs(parse_target_term(text), ctx, mode)
    ty = typecheck_target(ctx, term, mode)
    assert rewrite.ALL_RULES["let-swap"](rewrite.to_nameful(term), dict(ctx), mode) is None
    out, steps = rewrite.normalize(term, ctx, mode)
    assert rewrite.RewriteStep("let-swap", ()) not in steps
    assert typecheck_target(ctx, out, mode) == ty


#: The one input shape each rule would have to refuse without its typing
#: premise, and the typechecker's message for it.
ILL_TYPED = {
    # x applied to itself needs x : A and x : not A, that is A = not A.
    "eta-fun": (r"\x:not a. x x", "argument type ¬a does not match expected a"),
    # x : exists X. X is not a negation, so x Star applies a non-function.
    "star-eta": (r"\x:exists X. X. x *", "application of non-negation type ∃X. X"),
}


@pytest.mark.parametrize("mode", ["plain", "parametric"])
@pytest.mark.parametrize("rule", list(ILL_TYPED))
def test_head_that_is_the_bound_variable_is_ill_typed(capsys, rule, mode):
    text, message = ILL_TYPED[rule]
    code = main(["normalize", "--target", "--mode", mode, text])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.splitlines() == [f"error: {message}"]
