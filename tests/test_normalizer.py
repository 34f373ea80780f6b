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
from mu2forge import rewrite
from mu2forge.rewrite import ReplayError, RewriteStep, normalize, replay
from mu2forge.target_types import NotInImageType
from mu2forge.target_typing import PARAMETRIC, PLAIN

S = tt.TgVarT("s")


def beta_normalize(term, context=()):
    """Contract all beta redexes (function, pair-let, pack-let)."""
    t = rewrite._run(rewrite.to_nameful(term), dict(context), PLAIN, [rewrite._BETA], [])
    return rewrite.from_nameful(t)


def test_beta_fun():
    # (lam x. x k) y  ->  y k
    t = tg.TgApp(
        tg.close_binders(tg.TgLam("x", tt.Neg(S), tg.TgApp(tg.TgVar("x"), tg.TgVar("k")))), tg.TgVar("y")
    )
    out = beta_normalize(t, (("k", S), ("y", tt.Neg(S))))
    assert out == tg.TgApp(tg.TgVar("y"), tg.TgVar("k"))


def test_beta_pair_let():
    # let <x,y> = <L, M> in x y  ->  L M
    t = tg.close_binders(tg.LetPair(
        "x",
        "y",
        tg.Pair(tg.TgVar("L"), tg.TgVar("M")),
        tg.TgApp(tg.TgVar("x"), tg.TgVar("y")),
    ))
    out = beta_normalize(t, (("L", tt.Neg(S)), ("M", S)))
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
    form = canonicalize(tg.TgVar("x"), tt.Neg(S), PLAIN, (("x", tt.Neg(S)),))
    assert form.kind == PROGRAM and form.term == tg.TgVar("x")


def test_eta_collapse_to_program_variable():
    t = tg.close_binders(tg.TgLam("k", S, tg.TgApp(tg.TgVar("x"), tg.TgVar("k"))))
    form = canonicalize(t, tt.Neg(S), PLAIN, (("x", tt.Neg(S)),))
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
    assert eq_target(m, m, PLAIN, (("m", tt.Neg(S)),)).equal
    # (let <x,y> = M in N[<x,y>/z], N[M/z])
    pairty = tt.Conj(tt.Neg(S), S)
    n_of = lambda z: tg.TgApp(tg.TgVar("g"), z)
    context = (("M", pairty), ("g", tt.Neg(pairty)))
    lhs = tg.close_binders(tg.LetPair(
        "x", "y", tg.TgVar("M"), n_of(tg.Pair(tg.TgVar("x"), tg.TgVar("y")))
    ))
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
            (("a", S), ("b", S)),
        )


def test_type_mismatch_rejected():
    from mu2forge.target_typing import TargetTypeMismatch

    with pytest.raises(TargetTypeMismatch):
        eq_target(tg.TgVar("a"), tg.TgVar("b"), PLAIN, (("a", S), ("b", tt.Neg(S))))


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
    form = canonicalize(ans, None, PLAIN, (("x", tt.Neg(S)), ("k", S)))
    assert form.kind == ANSWER
    cont = tg.Pair(tg.TgVar("x"), tg.TgVar("k"))
    form = canonicalize(
        cont, None, PLAIN, (("x", tt.Neg(S)), ("k", S))
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


# The sha256 of the printed canonical forms of both sides of the same
# equations plus S^12 O = 12 and S^24 O = 24.  The printed form does not
# depend on the global fresh counter (repr does: never hash repr).
CANONICAL_DIGEST = "bb1ee04e4262daf0909e2c65d93f2f890e07c671b746ee65474834a6aa9ebaa6"


def test_canonical_forms_pinned():
    import hashlib

    from mu2forge.printer import print_target_term
    from mu2forge.theory import BETA_ETA, LAMBDA_MU_2P, core_axiom_instances, eq_mu

    lines = []

    def record(label, verdict):
        lines.append(f"{label} {verdict.equal}")
        lines.append(print_target_term(verdict.left))
        lines.append(print_target_term(verdict.right))

    for theory in (BETA_ETA, LAMBDA_MU_2P):
        for inst in core_axiom_instances():
            record(inst.name, eq_mu(inst.left, inst.right, theory, inst.gamma, inst.delta))
        t = church_zero()
        for n in range(1, 25):
            t = tm.App(church_succ(), t)
            if n <= 6 or n in (12, 24):
                record(f"S^{n}", eq_mu(t, church(n), theory))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == CANONICAL_DIGEST


def succ_power(n):
    t = church_zero()
    for _ in range(n):
        t = tm.App(church_succ(), t)
    return t


@pytest.mark.parametrize("n, steps", [(16, 197), (32, 389), (64, 773)])
def test_numeral_step_counts_pinned(n, steps):
    """S^n O = n: steps on the S^n O side, then on the numeral side."""
    from mu2forge.theory import BETA_ETA, LAMBDA_MU_2P, eq_mu

    for theory in (BETA_ETA, LAMBDA_MU_2P):
        verdict = eq_mu(succ_power(n), church(n), theory)
        assert verdict.equal
        assert (len(verdict.left_trace), len(verdict.right_trace)) == (steps, 5), theory


# -- the invariants the rewrite engine's sharing relies on


def assert_binders_scoped(t):
    """Every binder atom of nameful t is bound exactly once, and each of
    its occurrences (term or type) lies inside that binder's scope."""
    binders = set()

    def bind(node):
        match node:
            case tg.TgLam(x, _, _):
                atoms = (x,)
            case tg.LetPair(x, y, _, _):
                atoms = (x, y)
            case tg.LetPack(tv, x, _, _):
                atoms = (tv, x)
            case _:
                atoms = ()
        for a in atoms:
            assert a not in binders, f"{a} is bound twice"
            binders.add(a)
        for kid in tg.children(node):
            bind(kid)

    bind(t)
    scope = set()

    def inside(atoms):
        escaped = (atoms & binders) - scope
        assert not escaped, f"{escaped} free outside its scope"

    def under(atoms, body):
        scope.update(atoms)
        walk(body)
        scope.difference_update(atoms)

    def walk(node):
        match node:
            case tg.TgVar(n):
                inside({n})
            case tg.TgLam(x, ann, body):
                inside(tt.ftv(ann))
                under((x,), body)
            case tg.LetPair(x, y, scrut, body):
                walk(scrut)
                under((x, y), body)
            case tg.LetPack(tv, x, scrut, body):
                walk(scrut)
                under((tv, x), body)
            case tg.Pack(w, payload, ex):
                inside(tt.ftv(w) | tt.ftv(ex))
                walk(payload)
            case _:
                for kid in tg.children(node):
                    walk(kid)

    walk(t)


def replay_steps(term, context, mode, normal, trace, seen):
    """Replay the engine's trace for term one step at a time with the
    follower `replay` runs, under one run's state; seen(t) gets every
    nameful term in between, with the run's type-atom aliases resolved.
    Every step is observed once, and both this walk and `replay` end in
    the engine's own result."""
    from mu2forge import rewrite

    z, run = rewrite._Zipper(rewrite.to_nameful(term), dict(context)), rewrite.RunState(mode)
    observed = 0
    for step in trace:
        rewrite._follow(z, [step], run)
        observed += 1
        seen(run.leave(z.unwind()))
    assert observed == len(trace)
    assert tg.equal(rewrite.from_nameful(run.leave(z.node)), rewrite.from_nameful(normal))
    assert tg.equal(rewrite.replay(term, trace, context, mode), rewrite.from_nameful(normal))
    return observed


def test_binder_atoms_unique_after_normalization():
    """Binder atoms stay unique and scoped after normalizing every catalog
    image and S^n O (n <= 8) in both modes; for the catalog, n <= 4 and
    (lam f. lam x. f (f x)) (lam y. y), whose beta steps duplicate an
    abstraction, also after every single step of the trace, replayed."""
    from mu2forge import rewrite
    from mu2forge.combinators import catalog
    from mu2forge.suite_runner import _entry_gamma

    steps_checked = 0
    images = [(_entry_gamma(entry), entry.term, True) for entry in catalog()]
    images += [((), succ_power(n), n <= 4) for n in range(9)]
    a = mt.TVar("a")
    f, x = tm.Var("f"), tm.Var("x")
    twice = tm.lam("f", mt.Arrow(a, a), tm.lam("x", a, tm.App(f, tm.App(f, x))))
    images.append(((), tm.App(twice, tm.lam("y", a, tm.Var("y"))), True))
    for gamma, source, every_step in images:
        term, _ = cps_term_typed(gamma, (), source)
        context = cps_context(gamma, ())
        for mode in (PLAIN, PARAMETRIC):
            t = rewrite.to_nameful(term)
            assert_binders_scoped(t)
            normal, trace = rewrite.normalize_nameful(t, dict(context), mode)
            assert_binders_scoped(normal)
            if every_step:
                steps_checked += replay_steps(
                    term, context, mode, normal, trace, assert_binders_scoped
                )
    assert steps_checked > 500


def test_subst_refresh_shares_untouched_subtrees():
    from mu2forge.rewrite import free_atoms, subst_refresh

    x, k = tg.fresh("x"), tg.fresh("k")
    untouched = tg.TgLam(k, S, tg.TgApp(tg.TgVar("g"), tg.TgVar(k)))
    head = tg.TgVar("f")
    body = tg.Pair(untouched, tg.TgApp(head, tg.TgVar(x)))
    before = (repr(body), hash(body))
    assert free_atoms(body) == {"f", "g", x}
    # the memo is not a field: equality, hash and repr ignore it
    assert (repr(body), hash(body)) == before
    assert body == tg.Pair(untouched, tg.TgApp(tg.TgVar("f"), tg.TgVar(x)))
    rep = tg.TgVar("m")
    out = subst_refresh(body, x, rep)
    assert out.left is untouched
    assert out.right.fn is head
    assert out.right.arg is rep
    assert subst_refresh(untouched, x, rep) is untouched


def test_subst_refresh_reuses_first_copy():
    from mu2forge.rewrite import from_nameful, subst_refresh

    x, k = tg.fresh("x"), tg.fresh("k")
    rep = tg.TgLam(k, S, tg.TgApp(tg.TgVar("m"), tg.TgVar(k)))
    body = tg.Pair(
        tg.TgApp(tg.TgVar("f"), tg.TgVar(x)), tg.TgApp(tg.TgVar("g"), tg.TgVar(x))
    )
    out = subst_refresh(body, x, rep)
    first, second = out.left.arg, out.right.arg
    assert first is rep
    assert second is not rep and second.hint != k
    assert from_nameful(second) == from_nameful(rep)
    assert_binders_scoped(out)


# -- the search's rule-head table


def _catalog_and_numerals(max_n):
    from mu2forge.combinators import catalog
    from mu2forge.suite_runner import _entry_gamma

    out = []
    for entry in catalog():
        gamma = _entry_gamma(entry)
        out.append((cps_term_typed(gamma, (), entry.term)[0], dict(cps_context(gamma, ()))))
    for n in range(max_n + 1):
        out.append((cps_term_typed((), (), succ_power(n))[0], {}))
    return out


def _nodes(t, env):
    """Every node of nameful t with its typing environment."""
    from mu2forge import rewrite

    todo = [(t, env)]
    while todo:
        node, env = todo.pop()
        yield node, env
        todo.extend((kid, rewrite._env_through(node, i, env)) for i, kid in enumerate(tg.children(node)))


def test_rule_heads_sound():
    """Every rule declares its heads; at every node of the catalog images
    and of S^n O (n <= 6), their normal forms and, for the catalog and
    n <= 2, every term in between (replayed from the trace), in both
    modes, a rule applies only at its heads, and a beta rule (the search
    does not keep env current for them) gives the same result without
    env."""
    from mu2forge import rewrite

    groups = (rewrite.BETA_RULES, rewrite.ETA_RULES, rewrite.HOIST_RULES,
              rewrite.STAR_RULES, rewrite.EXPAND_RULES, rewrite.SHARE_RULES)
    rules = {name: rule for group in groups for name, rule in group}
    assert rules.keys() == rewrite.ALL_RULES.keys()
    for rule in rules.values():
        assert rule.heads and rule.heads <= {tg.TgVar, tg.TgLam, tg.TgApp, tg.Pair, tg.LetPair, tg.Pack, tg.LetPack}
    beta = {name for name, _ in rewrite.BETA_RULES}

    terms = []
    images = _catalog_and_numerals(6)
    catalog_size = len(images) - 7
    for index, (term, env) in enumerate(images):
        every_step = index < catalog_size + 3
        for mode in (PLAIN, PARAMETRIC):
            t = rewrite.to_nameful(term)
            terms.append((t, env))
            normal, trace = rewrite.normalize_nameful(t, env, mode)
            terms.append((normal, env))
            if every_step:
                record = lambda out, env=env: terms.append((out, env))
                replay_steps(term, tuple(env.items()), mode, normal, trace, record)
    visits = fired = 0
    for root, root_env in terms:
        for node, env in _nodes(root, root_env):
            for mode in (PLAIN, PARAMETRIC):
                for name, rule in rules.items():
                    visits += 1
                    out = rule(node, env, rewrite.RunState(mode))
                    if node.__class__ not in rule.heads:
                        assert out is None, (name, node)
                    elif out is not None:
                        fired += 1
                        if name in beta:
                            again = rule(node, None, rewrite.RunState(mode))
                            assert rewrite.from_nameful(again) == rewrite.from_nameful(out), name
    assert visits > 1_000_000 and fired > 5000


def test_results_do_not_depend_on_fresh_counter(monkeypatch):
    """Typing calls fresh less often than the rewrite's own passes, so no
    result may depend on the counter: traces, printed canonical forms and
    eq_mu verdicts are the same after the counter jumps by at least 10 000
    to a longer atom suffix."""
    import itertools

    from mu2forge import mu_terms as tm
    from mu2forge.printer import print_target_term
    from mu2forge.theory import BETA_ETA, LAMBDA_MU_2P, eq_mu

    def run():
        out = []
        for term, env in _catalog_and_numerals(6):
            for mode in (PLAIN, PARAMETRIC):
                form = canonicalize(term, None, mode, tuple(env.items()))
                out.append((print_target_term(form.term), [s.render() for s in form.trace]))
        for theory in (BETA_ETA, LAMBDA_MU_2P):
            for n in range(7):
                verdict = eq_mu(succ_power(n), church(n), theory)
                out.append((verdict.equal, print_target_term(verdict.left), print_target_term(verdict.right)))
                out.append([s.render() for s in verdict.left_trace + verdict.right_trace])
        return out

    first = run()
    start = next(tm._fresh_counter)
    monkeypatch.setattr(tm, "_fresh_counter", itertools.count(10 ** len(str(start + 10_000))))
    assert run() == first
