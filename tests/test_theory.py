import hashlib
import random

import pytest

from mu2forge import mu_terms as tm
from mu2forge import mu_types as mt
from mu2forge.mu_typing import TypeMismatch, ctx, typecheck_mu
from mu2forge.printer import print_mu_term, print_mu_type
from mu2forge.theory import (
    BETA_ETA,
    LAMBDA_MU_2P,
    GaveUp,
    additional_axiom_instances,
    check_schema,
    core_axiom_instances,
    eq_mu,
    gen_judgement,
    gen_type,
    gen_typed_term,
)

A, B = mt.TVar("a"), mt.TVar("b")


def test_core_schemas_equal_under_beta_eta():
    for inst in core_axiom_instances():
        verdict = check_schema(inst, BETA_ETA)
        assert verdict.equal, inst.name


def test_mu_eta_example():
    m = tm.Var("m")
    assert eq_mu(tm.mu("a", A, "a", m), m, BETA_ETA, ctx(("m", A))).equal


def test_additional_axioms_split_theories():
    for presentation, instances in additional_axiom_instances().items():
        for inst in instances:
            assert check_schema(inst, LAMBDA_MU_2P).equal, (presentation, inst.name)
            assert not check_schema(inst, BETA_ETA).equal, (presentation, inst.name)


def test_presentations_cover_three_each():
    instances = additional_axiom_instances()
    assert set(instances) == {"discard", "falsity", "structural"}
    assert all(len(v) == 3 for v in instances.values())


def test_renaming_axiom_only_in_parametric_theory():
    # [a'](mu* a:s. M) = M[a'/a] needs the additional axioms
    p = tm.Var("p")
    used = tm.App(p, tm.named("a0", tm.Var("q")))
    lhs = tm.named("d", tm.bold_mu("a0", A, used))
    rhs = tm.App(p, tm.named("d", tm.Var("q")))
    g = ctx(("p", mt.Arrow(mt.BOT, mt.BOT)), ("q", A))
    d = ctx(("d", A))
    assert eq_mu(lhs, rhs, LAMBDA_MU_2P, g, d).equal
    assert not eq_mu(lhs, rhs, BETA_ETA, g, d).equal


def test_eq_mu_type_mismatch():
    with pytest.raises(TypeMismatch):
        eq_mu(tm.Var("x"), tm.Var("y"), BETA_ETA, ctx(("x", A), ("y", B)))


def test_generator_deterministic():
    t1 = gen_typed_term(42, 5, ctx(("v", A)), ctx(), mt.Arrow(A, A))
    t2 = gen_typed_term(42, 5, ctx(("v", A)), ctx(), mt.Arrow(A, A))
    assert t1 == t2


def test_generator_wellTyped_and_goal_directed():
    goal = mt.Arrow(A, A)
    term = gen_typed_term(7, 3, ctx(), ctx(), goal)
    assert typecheck_mu(ctx(), ctx(), term) == goal
    # bot -> s is inhabited within a small budget (via abort-style terms)
    goal = mt.Arrow(mt.BOT, A)
    found = None
    for seed in range(50):
        try:
            found = gen_typed_term(seed, 4, ctx(), ctx(), goal)
            break
        except GaveUp:
            continue
    assert found is not None
    assert typecheck_mu(ctx(), ctx(), found) == goal


def test_generator_covers_all_formers():
    seen = set()
    for seed in range(250):
        try:
            _, _, term, _ = gen_judgement(seed, budget=6)
        except GaveUp:
            continue
        stack = [term]
        while stack:
            node = stack.pop()
            seen.add(type(node).__name__)
            match node:
                case tm.Lam(_, _, body) | tm.TyLam(_, body) | tm.Mu(_, _, _, body):
                    stack.append(body)
                case tm.App(fn, arg):
                    stack.extend((fn, arg))
                case tm.TyApp(fn, _):
                    stack.append(fn)
    assert {"Var", "Lam", "App", "TyLam", "TyApp", "Mu"} <= seen


def test_gave_up():
    from mu2forge.theory import _inhabited

    with pytest.raises(GaveUp):
        gen_typed_term(0, 1, ctx(), ctx(), mt.TVar("zq"))
    # Nothing has type zq, and a mu only re-asks for zq or for a lam body
    # of type zq, so no budget helps.
    zq = mt.TVar("zq")
    assert not _inhabited(6, (), (), zq)
    with pytest.raises(GaveUp):
        gen_typed_term(0, 6, ctx(), ctx(), zq)
    # c is reachable only as h x y, built by app at domain b: the function
    # h x : b -> c needs app-var, so budget 2 on each side, so budget 4.
    c = mt.TVar("c")
    gamma = ctx(("h", mt.Arrow(A, mt.Arrow(B, c))), ("x", A), ("y", B))
    types = [ty for _, ty in gamma]
    assert not _inhabited(3, types, (), c)
    assert _inhabited(4, types, (), c)
    with pytest.raises(GaveUp):
        gen_typed_term(0, 3, gamma, ctx(), c)
    term = gen_typed_term(0, 4, gamma, ctx(), c)
    assert typecheck_mu(gamma, ctx(), term) == c


def test_inhabitation_filter_matches_unfiltered_search():
    """Over criterion 1's first seeds, the pre-filter rejects exactly the
    goals on which all 64 restarts of the raw search fail, and a goal it
    passes yields the raw search's term."""
    from mu2forge.theory import _gen, _inhabited

    rejected = 0
    for seed in range(20240, 20350):
        rng = random.Random(seed)  # the draws gen_judgement makes
        gamma = ctx(("v1", gen_type(rng, 2)), ("v2", gen_type(rng, 2)))
        delta = ctx(("k1", gen_type(rng, 2)),)
        goal = gen_type(rng, 2)
        term_seed = rng.randrange(1 << 30)
        search = random.Random(term_seed)
        found = None
        for _ in range(64):
            found = _gen(search, 6, gamma, delta, goal, 0)
            if found is not None:
                break
        inhabited = _inhabited(6, [ty for _, ty in gamma], [ty for _, ty in delta], goal)
        # a rejected goal fails every restart; a found term is never rejected
        assert inhabited or found is None, seed
        # and on this range every give-up is decided by the filter
        assert found is not None or not inhabited, seed
        if inhabited:
            assert gen_typed_term(term_seed, 6, gamma, delta, goal) == found, seed
        else:
            rejected += 1
    assert rejected == 39


def test_beta_substitution_coherence_on_generated_terms():
    """(lam x. M) N equals M[N/x] for generated M and N: the oracle's
    beta agrees with the kernel's substitution through arbitrary
    structure."""
    import random

    from mu2forge.theory import gen_type

    checked = 0
    seed = 310_000
    while checked < 40:
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
        redex = tm.App(tm.lam("x", sigma_x, m), n)
        contractum = tm.subst_term(m, "x", n)
        assert eq_mu(redex, contractum, BETA_ETA, gamma, delta).equal, seed
        checked += 1
        seed += 1


def test_structural_mu_axiom_on_generated_bodies():
    """(mu a:s1->s2. [d] L) n  =  mu b. ([d] L)[[b](- n)/[a](-)]  with L
    generated, exercising the mixed substitution through arbitrary
    structure."""
    import random

    from mu2forge.theory import gen_type

    checked = 0
    seed = 470_000
    while checked < 30:
        rng = random.Random(seed)
        s1, s2 = gen_type(rng, 1), gen_type(rng, 1)
        arr = mt.Arrow(s1, s2)
        td = gen_type(rng, 1)
        gamma = ctx(("v1", arr), ("n", s1))
        delta = ctx(("d", td),)
        try:
            body = gen_typed_term(seed, 5, gamma, (("a", arr),) + delta, td)
        except GaveUp:
            seed += 1
            continue
        lhs = tm.App(tm.mu("a", arr, "d", body), tm.Var("n"))
        naming = tm.mixed_subst(tm.named("d", body), "a", tm.AppArg(tm.Var("n")), b="b")
        tgt, rewritten = tm.match_named(naming)
        assert isinstance(tgt, tm.FName)
        rhs = tm.mu("b", s2, tgt.name, rewritten)
        assert eq_mu(lhs, rhs, BETA_ETA, gamma, delta).equal, seed
        checked += 1
        seed += 1


def test_eta_wrappers_equal_on_generated_terms():
    """Fuzz the oracle: a generated term equals its eta-expansions and its
    trivial mu-wrapping under the plain theory."""
    checked = 0
    seed = 260_000
    while checked < 40:
        try:
            gamma, delta, term, ty = gen_judgement(seed, budget=5)
        except GaveUp:
            seed += 1
            continue
        wrapped = tm.mu("w", ty, "w", term)
        assert eq_mu(term, wrapped, BETA_ETA, gamma, delta).equal, seed
        # a plain-theory Equal stays Equal in the parametric theory
        assert eq_mu(term, wrapped, LAMBDA_MU_2P, gamma, delta).equal, seed
        if isinstance(ty, mt.Arrow):
            expanded = tm.lam("e", ty.dom, tm.App(term, tm.Var("e")))
            assert eq_mu(term, expanded, BETA_ETA, gamma, delta).equal, seed
        if isinstance(ty, mt.Forall):
            expanded = tm.tylam("E", tm.TyApp(term, mt.TVar("E")))
            assert eq_mu(term, expanded, BETA_ETA, gamma, delta).equal, seed
        checked += 1
        seed += 1


# ---------------------------------------------------------------------------
# The seeded corpus the acceptance gate tests, pinned by printed form.  The
# loops mirror suite_runner._judgements, which draws criterion 1's
# judgements and criterion 4's instances; a generator change that alters
# which seeds give up or which term a seed yields changes a digest.
# The digests were taken from the generator before give-ups were decided
# by the inhabitation pre-filter.

CRITERION_1_SHA256 = "fcca7769c32ef5d80c411f54125b2c62e1edfb2a77ace0a09d3bbf743e115942"
TERM_IN_TERM_SHA256 = "7331990ba9bf14b222859c3ddebadc40d6c550e618c0935e6f903b02175d7e00"
TYPE_IN_TERM_SHA256 = "9b568e4535b579caf11e8352bb82828dfcf03c1874d12ef62a554178a50a61c0"


def _zone(z):
    return ", ".join(f"{x}:{print_mu_type(s)}" for x, s in z)


def _judgement_corpus(seed, count, budget):
    lines = []
    s = seed
    while len(lines) < count:
        try:
            gamma, delta, term, ty = gen_judgement(s, budget=budget)
        except GaveUp:
            s += 1
            continue
        lines.append(
            f"{s}\t{_zone(gamma)}\t{_zone(delta)}\t{print_mu_term(term)}\t{print_mu_type(ty)}"
        )
        s += 1
    return lines


def _term_in_term_corpus(seed, count):
    lines = []
    s = seed
    while len(lines) < count:
        rng = random.Random(s)
        sigma_x = gen_type(rng, 2)
        gamma = ctx(("v1", gen_type(rng, 2)), ("v2", mt.Arrow(sigma_x, sigma_x)))
        delta = ctx(("k1", gen_type(rng, 2)))
        try:
            m = gen_typed_term(s, 5, gamma + (("xsubst", sigma_x),), delta, gen_type(rng, 2))
            n = gen_typed_term(s + 1, 4, gamma, delta, sigma_x)
        except GaveUp:
            s += 1
            continue
        lines.append(
            f"{s}\t{_zone(gamma)}\t{_zone(delta)}\t{print_mu_type(sigma_x)}"
            f"\t{print_mu_term(m)}\t{print_mu_term(n)}"
        )
        s += 1
    return lines


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_generator_corpus_pinned():
    assert _digest(_judgement_corpus(20240, 1000, 6)) == CRITERION_1_SHA256
    assert _digest(_term_in_term_corpus(77, 200)) == TERM_IN_TERM_SHA256
    assert _digest(_judgement_corpus(77 + 10_000, 200, 5)) == TYPE_IN_TERM_SHA256


# Every decision of the inhabitation pre-filter over the corpus shapes
# (gen_judgement at budgets 6 and 5; the term-in-term lemma's two terms
# at budgets 5 and 4), pinned with its inputs.  A rewrite of `_inhabited`
# that changes one boolean changes the digest.

INHABITATION_SHA256 = "ed1bc62df605555e37a37a41a3f40b7399cb2292bae02c507c628d04b5bb012c"


def test_inhabitation_decisions_pinned(monkeypatch):
    from mu2forge import theory

    decide = theory._inhabited
    lines = []

    def recorded(budget, gamma_types, delta_types, goal):
        got = decide(budget, gamma_types, delta_types, goal)
        shown = [", ".join(map(print_mu_type, z)) for z in (gamma_types, delta_types)]
        lines.append(f"{budget}\t{shown[0]}\t{shown[1]}\t{print_mu_type(goal)}\t{int(got)}")
        return got

    monkeypatch.setattr(theory, "_inhabited", recorded)
    for s in range(600):
        for budget in (6, 5):
            try:
                gen_judgement(s, budget=budget)
            except GaveUp:
                pass
        rng = random.Random(s)
        sigma_x = gen_type(rng, 2)
        gamma = ctx(("v1", gen_type(rng, 2)), ("v2", mt.Arrow(sigma_x, sigma_x)))
        delta = ctx(("k1", gen_type(rng, 2)))
        try:
            gen_typed_term(s, 5, gamma + (("xsubst", sigma_x),), delta, gen_type(rng, 2))
            gen_typed_term(s + 1, 4, gamma, delta, sigma_x)
        except GaveUp:
            pass
    assert (len(lines), sum(line.endswith("0") for line in lines)) == (2223, 739)
    assert _digest(lines) == INHABITATION_SHA256
