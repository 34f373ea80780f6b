import pytest

from mu2forge import target_terms as tg
from mu2forge import target_types as tt
from mu2forge.rewrite import normalize
from mu2forge.target_typing import (
    EscapeCheckFailed,
    NonAnswerBody,
    PARAMETRIC,
    PLAIN,
    StarInPlainMode,
    TargetTypeMismatch,
    UnboundTargetVariable,
    tg_ctx,
    typecheck_target,
)

S = tt.TgVarT("s")
T = tt.TgVarT("t")


def test_pairing_rule():
    term = tg.Pair(tg.TgVar("m"), tg.TgVar("n"))
    got = typecheck_target(tg_ctx(("m", S), ("n", T)), term)
    assert got == tt.Conj(S, T)


def test_pack_rule():
    ex = tt.exists("X", tt.Conj(tt.Neg(tt.TgVarT("X")), tt.TgVarT("X")))
    term = tg.Pack(S, tg.TgVar("k"), ex)
    got = typecheck_target(tg_ctx(("k", tt.Conj(tt.Neg(S), S))), term)
    assert got == ex


def test_star_modes():
    with pytest.raises(StarInPlainMode):
        typecheck_target(tg_ctx(), tg.STAR, PLAIN)
    assert typecheck_target(tg_ctx(), tg.STAR, PARAMETRIC) == tt.TOP


def test_non_answer_body_rejected():
    term = tg.tg_lam("x", S, tg.TgVar("x"))
    with pytest.raises(NonAnswerBody):
        typecheck_target(tg_ctx(), term)


def test_escape_check():
    bad = tg.tg_let_pack("X", "x", tg.TgVar("v"), tg.TgVar("x"))
    with pytest.raises(EscapeCheckFailed):
        typecheck_target(tg_ctx(("v", tt.TOP)), bad)


def test_unbound_and_mismatch():
    with pytest.raises(UnboundTargetVariable):
        typecheck_target(tg_ctx(), tg.TgVar("ghost"))
    with pytest.raises(TargetTypeMismatch):
        typecheck_target(
            tg_ctx(("f", tt.Neg(S)), ("x", T)), tg.TgApp(tg.TgVar("f"), tg.TgVar("x"))
        )


def _redexes():
    """One instance of each beta/eta axiom schema, with its context."""
    k, f, z = ("k", S), ("f", tt.Neg(S)), ("z", tt.Conj(tt.Neg(S), T))
    ex = tt.exists("X", tt.TgVarT("X"))
    out = []
    # beta-fun
    out.append((tg.TgApp(tg.tg_lam("x", S, tg.TgApp(tg.TgVar("f"), tg.TgVar("x"))), tg.TgVar("k")), (k, f)))
    # beta-pair
    body = tg.TgApp(tg.TgVar("x"), tg.TgVar("y"))
    pair = tg.Pair(tg.TgVar("f"), tg.TgVar("k"))
    out.append((tg.tg_let_pair("x", "y", pair, body), (k, f)))
    # beta-pack
    pk = tg.Pack(S, tg.TgVar("k"), ex)
    out.append(
        (
            tg.tg_let_pack("X", "x", pk, tg.TgApp(tg.TgVar("f2"), tg.STAR)),
            (k, ("f2", tt.Neg(ex))),
        )
    )
    # eta-fun
    out.append((tg.tg_lam("x", S, tg.TgApp(tg.TgVar("f"), tg.TgVar("x"))), (f,)))
    # eta-pair
    body = tg.TgApp(tg.TgVar("g"), tg.Pair(tg.TgVar("x"), tg.TgVar("y")))
    out.append(
        (
            tg.tg_let_pair("x", "y", tg.TgVar("z"), body),
            (z, ("g", tt.Neg(tt.Conj(tt.Neg(S), T)))),
        )
    )
    # eta-pack
    body = tg.TgApp(tg.TgVar("h"), tg.Pack(tt.TgVarT("X"), tg.TgVar("x"), ex))
    out.append(
        (
            tg.tg_let_pack("X", "x", tg.TgVar("w"), body),
            (("w", ex), ("h", tt.Neg(ex))),
        )
    )
    return out


def test_subject_reduction_for_each_axiom():
    mode = PARAMETRIC
    for term, context in _redexes():
        before = typecheck_target(context, term, mode)
        after, steps = normalize(term, context, mode)
        assert steps, f"no rewrite applied to {term}"
        assert typecheck_target(context, after, mode) == before


def test_no_lam_body_off_answer_type():
    """Structural scan: every abstraction inside a well-typed translation
    has an answer-typed body (enforced by the typing rule itself)."""
    from mu2forge import mu_types as mt
    from mu2forge.combinators import catalog
    from mu2forge.cps import cps_context, cps_term_typed
    from mu2forge.suite_runner import _entry_gamma

    for entry in catalog():
        gamma = _entry_gamma(entry)
        target, _ = cps_term_typed(gamma, (), entry.term)
        # typechecks without NonAnswerBody
        typecheck_target(cps_context(gamma, ()), target)


def test_substitution_helpers():
    t = tg.tg_lam("x", S, tg.TgApp(tg.TgVar("y"), tg.TgVar("x")))
    out = tg.subst_var(t, "y", tg.TgVar("z"))
    assert out == tg.tg_lam("x", S, tg.TgApp(tg.TgVar("z"), tg.TgVar("x")))
    ty_out = tg.subst_tvar_term(t, "s", T)
    assert ty_out == tg.tg_lam("x", T, tg.TgApp(tg.TgVar("y"), tg.TgVar("x")))


def test_paths():
    t = tg.TgApp(tg.TgVar("f"), tg.Pair(tg.TgVar("x"), tg.TgVar("y")))
    assert tg.subterm_at(t, (1, 0)) == tg.TgVar("x")
    swapped = tg.replace_at(t, (1, 0), tg.TgVar("q"))
    assert tg.subterm_at(swapped, (1, 0)) == tg.TgVar("q")


def test_structural_equality_matches_eq_without_recursion():
    def nest(n, leaf, hint="x"):
        t = leaf
        for _ in range(n):
            t = tg.TgLam(hint, tt.Neg(S), tg.TgApp(tg.TgBVar(0), tg.Pair(t, tg.STAR)))
        return t

    pairs = [
        (nest(3, tg.TgVar("a")), nest(3, tg.TgVar("a"), hint="y")),  # hints not compared
        (nest(3, tg.TgVar("a")), nest(3, tg.TgVar("b"))),
        (tg.Pack(S, tg.TgVar("k"), tt.TOP), tg.Pack(T, tg.TgVar("k"), tt.TOP)),
        (tg.TgVar("a"), tg.TgBVar(0)),
    ]
    for a, b in pairs:
        assert tg.equal(a, b) == (a == b)
    assert tg.equal(nest(5000, tg.TgVar("a")), nest(5000, tg.TgVar("a"), hint="y"))
    assert not tg.equal(nest(5000, tg.TgVar("a")), nest(5000, tg.TgVar("b")))
