import pytest

from mu2forge import mu_terms as tm
from mu2forge import mu_types as mt
from mu2forge import target_terms as tg
from mu2forge import target_types as tt
from mu2forge.canonical import (
    ANSWER,
    CONTINUATION,
    PROGRAM,
    canonicalize,
    eq_target,
)
from mu2forge.combinators import church, church_succ, church_zero, dne
from mu2forge.cps import cps_context, cps_term_typed
from mu2forge.mu_typing import ctx
from mu2forge.rewrite import ReplayError, RewriteStep, beta_normalize, normalize, replay
from mu2forge.target_types import NotInImageType
from mu2forge.target_typing import PARAMETRIC, PLAIN, tg_ctx

S = tt.TgVarT("s")


def test_beta_fun():
    # (lam x. x k) y  ->  y k
    t = tg.TgApp(
        tg.tg_lam("x", tt.Neg(S), tg.TgApp(tg.TgVar("x"), tg.TgVar("k"))), tg.TgVar("y")
    )
    out = beta_normalize(t, tg_ctx(("k", S), ("y", tt.Neg(S))))
    assert out == tg.TgApp(tg.TgVar("y"), tg.TgVar("k"))


def test_beta_pair_let():
    # let <x,y> = <L, M> in x y  ->  L M
    t = tg.tg_let_pair(
        "x",
        "y",
        tg.Pair(tg.TgVar("L"), tg.TgVar("M")),
        tg.TgApp(tg.TgVar("x"), tg.TgVar("y")),
    )
    out = beta_normalize(t, tg_ctx(("L", tt.Neg(S)), ("M", S)))
    assert out == tg.TgApp(tg.TgVar("L"), tg.TgVar("M"))


def test_golden_dne_normal_form():
    """The normal form of the double-negation eliminator's image."""
    from pathlib import Path

    from mu2forge.printer import print_target_term

    target, _ = cps_term_typed((), (), dne(mt.TVar("s")))
    form = canonicalize(target, None, PLAIN, ())
    text = print_target_term(form.term) + "\n"
    golden = Path(__file__).parent / "golden" / "cps-dne.txt"
    assert golden.exists(), "golden file missing"
    assert text == golden.read_text(encoding="utf-8")


def test_program_variable_classification():
    form = canonicalize(tg.TgVar("x"), tt.Neg(S), PLAIN, tg_ctx(("x", tt.Neg(S))))
    assert form.kind == PROGRAM and form.term == tg.TgVar("x")


def test_eta_collapse_to_program_variable():
    t = tg.tg_lam("k", S, tg.TgApp(tg.TgVar("x"), tg.TgVar("k")))
    form = canonicalize(t, tt.Neg(S), PLAIN, tg_ctx(("x", tt.Neg(S))))
    assert form.kind == PROGRAM and form.term == tg.TgVar("x")


def test_parametric_bold_mu_image():
    # the image of  mu* a:s. m  is  lam a. m Star  in parametric mode
    term, _ = cps_term_typed(ctx(("m", mt.BOT)), (), tm.bold_mu("a", mt.TVar("s"), tm.Var("m")))
    tctx = cps_context(ctx(("m", mt.BOT)), ())
    form = canonicalize(term, None, PARAMETRIC, tctx)
    assert form.term == tg.TgLam("a", S, tg.TgApp(tg.TgVar("m"), tg.STAR))
    assert form.kind == PROGRAM


def test_canonicalize_idempotent():
    for source, gamma in [
        (dne(mt.TVar("s")), ()),
        (church(2), ()),
        (tm.bold_mu("a", mt.TVar("s"), tm.Var("m")), ctx(("m", mt.BOT))),
    ]:
        for mode in (PLAIN, PARAMETRIC):
            term, _ = cps_term_typed(gamma, (), source)
            tctx = cps_context(gamma, ())
            once = canonicalize(term, None, mode, tctx)
            twice = canonicalize(once.term, once.type, mode, tctx)
            assert twice.term == once.term, (mode, source)


def test_eq_reflexive_and_pair_eta():
    m = tg.TgVar("m")
    assert eq_target(m, m, PLAIN, tg_ctx(("m", tt.Neg(S)))).equal
    # (let <x,y> = M in N[<x,y>/z], N[M/z])
    pairty = tt.Conj(tt.Neg(S), S)
    n_of = lambda z: tg.TgApp(tg.TgVar("g"), z)
    context = tg_ctx(("M", pairty), ("g", tt.Neg(pairty)))
    lhs = tg.tg_let_pair(
        "x", "y", tg.TgVar("M"), n_of(tg.Pair(tg.TgVar("x"), tg.TgVar("y")))
    )
    rhs = n_of(tg.TgVar("M"))
    verdict = eq_target(lhs, rhs, PLAIN, context)
    assert verdict.equal


def test_church_images_distinct():
    one = tm.App(church_succ(), church_zero())
    two = tm.App(church_succ(), tm.App(church_succ(), church_zero()))
    lt, _ = cps_term_typed((), (), one)
    rt, _ = cps_term_typed((), (), two)
    assert not eq_target(lt, rt, PLAIN).equal


def test_not_in_image_type():
    with pytest.raises(NotInImageType):
        canonicalize(
            tg.Pair(tg.TgVar("a"), tg.TgVar("b")),
            tt.Conj(S, S),  # not of a translated shape: left is not negated
            PLAIN,
            tg_ctx(("a", S), ("b", S)),
        )


def test_type_mismatch_rejected():
    from mu2forge.target_typing import TargetTypeMismatch

    with pytest.raises(TargetTypeMismatch):
        eq_target(tg.TgVar("a"), tg.TgVar("b"), PLAIN, tg_ctx(("a", S), ("b", tt.Neg(S))))


def test_trace_replay_roundtrip():
    for source, gamma, mode in [
        (dne(mt.TVar("s")), (), PLAIN),
        (dne(mt.TVar("s")), (), PARAMETRIC),
        (church(2), (), PLAIN),
        (tm.bold_mu("a", mt.TVar("s"), tm.Var("m")), ctx(("m", mt.BOT)), PARAMETRIC),
    ]:
        term, _ = cps_term_typed(gamma, (), source)
        tctx = cps_context(gamma, ())
        normal, steps = normalize(term, tctx, mode)
        replayed = replay(term, steps, tctx, mode)
        assert replayed == normal


def test_trace_render_parse_roundtrip():
    step = RewriteStep("beta-pair", (0, 1, 2))
    assert RewriteStep.parse(step.render()) == step
    assert RewriteStep.parse(RewriteStep("eta-fun", ()).render()) == RewriteStep(
        "eta-fun", ()
    )


def test_replay_rejects_bogus_step():
    term, _ = cps_term_typed((), (), church(1))
    with pytest.raises(ReplayError):
        replay(term, [RewriteStep("beta-pair", ())], (), PLAIN)
    with pytest.raises(ReplayError):
        replay(term, [RewriteStep("no-such-rule", ())], (), PLAIN)


def test_classification_of_corpus_images():
    """Every catalog image canonicalizes into the grammar (the executable
    premise of the fullness argument)."""
    from mu2forge.combinators import catalog
    from mu2forge.suite_runner import _entry_gamma

    for entry in catalog():
        gamma = _entry_gamma(entry)
        term, _ = cps_term_typed(gamma, (), entry.term)
        tctx = cps_context(gamma, ())
        for mode in (PLAIN, PARAMETRIC):
            form = canonicalize(term, None, mode, tctx)
            assert form.kind == PROGRAM


def test_classification_of_generated_images():
    """Generated well-typed images also land in the grammar, in both
    modes, with idempotent canonicalization and replayable traces."""
    from mu2forge.theory import GaveUp, gen_judgement

    checked = 0
    seed = 140_000
    while checked < 60:
        try:
            gamma, delta, source, _ = gen_judgement(seed, budget=5)
        except GaveUp:
            seed += 1
            continue
        term, _ = cps_term_typed(gamma, delta, source)
        tctx = cps_context(gamma, delta)
        for mode in (PLAIN, PARAMETRIC):
            form = canonicalize(term, None, mode, tctx)
            assert form.kind == PROGRAM, (seed, mode)
            again = canonicalize(form.term, form.type, mode, tctx)
            assert again.term == form.term, (seed, mode)
            assert replay(term, list(form.trace), tctx, mode) == form.term
        checked += 1
        seed += 1


def test_answer_and_continuation_classification():
    ans = tg.TgApp(tg.TgVar("x"), tg.TgVar("k"))
    form = canonicalize(ans, None, PLAIN, tg_ctx(("x", tt.Neg(S)), ("k", S)))
    assert form.kind == ANSWER
    cont = tg.Pair(tg.TgVar("x"), tg.TgVar("k"))
    form = canonicalize(
        cont, None, PLAIN, tg_ctx(("x", tt.Neg(S)), ("k", S))
    )
    assert form.kind == CONTINUATION


# The sha256 of every rendered trace step ("rule path") for the core axiom
# instances and S^n O = n (n = 1..6), under both theories.  A change to a
# rule, to the search order or to child-slot numbering moves it.
TRACE_DIGEST = "77e12d0b00a153d5a57735d263d4ec2455f4379a6f96cdafba42d93749f80c71"


def test_rewrite_traces_pinned():
    import hashlib

    from mu2forge.theory import BETA_ETA, LAMBDA_MU_2P, core_axiom_instances, eq_mu

    lines = []

    def record(label, verdict):
        lines.append(f"{label} {verdict.equal}")
        for side in (verdict.left_trace, verdict.right_trace):
            lines.extend(step.render() for step in side)
            lines.append("--")

    for theory in (BETA_ETA, LAMBDA_MU_2P):
        for inst in core_axiom_instances():
            record(inst.name, eq_mu(inst.left, inst.right, theory, inst.gamma, inst.delta))
        t = church_zero()
        for n in range(1, 7):
            t = tm.App(church_succ(), t)
            record(f"S^{n}", eq_mu(t, church(n), theory))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == TRACE_DIGEST
