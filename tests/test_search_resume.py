"""The resumable redex search against a search from the root.

`rewrite._run` resumes each rule group's leftmost-outermost search where
that group last left off.  Here a reference engine, which restarts every
search at the root, runs the same three phases beside the engine's trace:
at every step both must pick the same rule at the same path, and both
must end in the same normal form.  The reference restarts every phase
from the root too, so it also checks that a phase may skip the groups
whose rules the previous phase's output is already normal for.
"""

from itertools import chain

import pytest

from mu2forge import mu_terms as tm
from mu2forge import mu_types as mt
from mu2forge import rewrite
from mu2forge import target_terms as tg
from mu2forge import target_types as tt
from mu2forge.combinators import catalog, church_succ, church_zero
from mu2forge.cps import cps_context, cps_term_typed
from mu2forge.suite_runner import _entry_gamma
from mu2forge.surface import parse_target_term
from mu2forge.target_typing import PARAMETRIC, PLAIN, resolve_nameful, typecheck_target
from mu2forge.theory import gen_judgement

#: theory.gen_judgement seeds (budget 6) that do not give up.
GENERATED_SEEDS = (
    160002, 160003, 160004, 160005, 160006, 160010, 160011, 160012, 160014, 160015,
    160017, 160018, 160023, 160025, 160026, 160030, 160031, 160032, 160033, 160035,
    160036, 160037, 160038, 160039, 160042, 160043, 160044, 160046, 160047, 160049,
)


def beta_normalize(term, context=()):
    """Contract all beta redexes (function, pair-let, pack-let)."""
    t = rewrite._run(rewrite.to_nameful(term), dict(context), PLAIN, [rewrite._BETA], [])
    return rewrite.from_nameful(t)


def resolve_packs(term, context, mode=PLAIN):
    """resolve_nameful's rebuild, closed, and its type."""
    made, ty = resolve_nameful(term, context, mode)
    return rewrite.from_nameful(made), ty


def reference_find(t, group, env, run, path=()):
    """The first redex of group in t in preorder, searched from the root:
    (rule name, path, contractum) or None."""
    rules, threads_env = group[:2]  # the table below the root, and its env flag
    for name, rule in rules[t.__class__]:
        if name == "hoist-lam" and path == ():
            continue
        out = rule(t, env, run)
        if out is not None:
            return name, path, out
    for i, kid in enumerate(tg.children(t)):
        kid_env = rewrite._env_through(t, i, env) if threads_env else env
        hit = reference_find(kid, group, kid_env, run, path + (i,))
        if hit is not None:
            return hit
    return None


def reference_steps(t, env, mode, phases):
    """Run the phases with reference_find; yields (step, term after it).
    Each step runs under a state of its own and leaves it at once, so a
    type-atom alias that beta-pack records is substituted in the same
    step, as an eager engine would."""
    for groups in phases:
        while True:
            hit, run = None, rewrite.RunState(mode)
            for group in groups:
                hit = reference_find(t, group, env, run)
                if hit is not None:
                    break
            if hit is None:
                break
            name, path, out = hit
            t = run.leave(tg.replace_at(t, path, out))
            yield rewrite.RewriteStep(name, path), t


def assert_same_search(term, env, mode, phases, run):
    """run(nameful term) -> (normal form, trace) takes the same steps as
    the reference running phases, one by one; returns the step count."""
    t = rewrite.to_nameful(term)
    normal, trace = run(t)
    index = -1
    last = t
    for index, (step, last) in enumerate(reference_steps(t, env, mode, phases)):
        assert index < len(trace), f"the engine stopped early, before {step.render()}"
        assert trace[index] == step, (index, trace[index].render(), step.render())
    assert index + 1 == len(trace)
    assert tg.equal(rewrite.from_nameful(last), rewrite.from_nameful(normal))
    return len(trace)


def succ_power(n):
    t = church_zero()
    for _ in range(n):
        t = tm.App(church_succ(), t)
    return t


def catalog_images():
    for entry in catalog():
        gamma = _entry_gamma(entry)
        yield entry.name, cps_term_typed(gamma, (), entry.term)[0], dict(cps_context(gamma, ()))


def numeral_images():
    for n in range(9):
        yield f"S^{n} O", cps_term_typed((), (), succ_power(n))[0], {}


def generated_images():
    for seed in GENERATED_SEEDS:
        gamma, delta, source, _ = gen_judgement(seed, budget=6)
        yield seed, cps_term_typed(gamma, delta, source)[0], dict(cps_context(gamma, delta))


S, T = tt.TgVarT("s"), tt.TgVarT("t")
PARENT_CONTEXT = (
    ("u", S), ("v", T), ("w", S), ("g", tt.Neg(S)), ("z", tt.Conj(S, T)),
    ("f", tt.Neg(tt.Conj(T, S))), ("m", tt.Neg(tt.Conj(S, tt.Neg(S)))),
)
#: Terms in which a step makes a beta redex at its parent, which only
#: the beta group's parent re-test finds: a beta-pair step whose
#: contractum is a pair in scrutinee position, an abstraction in function
#: position or a pack in scrutinee position, and a dead-let-pair step
#: (eta group) whose contractum is a pair in scrutinee position.  None
#: of the images above has such a step.
PARENT_TERMS = (
    "let <x, y> = (let <a, b> = <u, v> in <b, a>) in f <x, y>",
    "(let <a, b> = <\\k:s. g k, w> in a) w",
    "let <x, y> = (let <a, b> = z in <v, u>) in m <y, \\k:s. g k>",
    "let <X, x> = (let <a, b> = <<s | <g, w>>, w> in a) in let <p, q> = x in (\\k:X. p k) q",
)


def parent_images():
    for text in PARENT_TERMS:
        term, _ = resolve_packs(parse_target_term(text), PARENT_CONTEXT)
        typecheck_target(PARENT_CONTEXT, term)
        yield text, term, dict(PARENT_CONTEXT)


@pytest.mark.parametrize("images", [catalog_images, numeral_images, generated_images, parent_images])
@pytest.mark.parametrize("mode", [PLAIN, PARAMETRIC])
def test_resumed_search_matches_search_from_root(images, mode):
    phases = (rewrite._contract_groups(mode), rewrite._expand_groups(mode),
              rewrite._contract_groups(mode))
    steps = 0
    for label, term, env in images():
        run = lambda t: rewrite.normalize_nameful(t, env, mode)
        try:
            steps += assert_same_search(term, env, mode, phases, run)
        except AssertionError as failure:
            raise AssertionError(f"{label}: {failure}") from None
    assert steps > 0


def test_beta_only_matches_search_from_root():
    """beta_normalize runs the same engine on the beta group alone."""
    a = mt.TVar("a")
    f, x = tm.Var("f"), tm.Var("x")
    twice = tm.lam("f", mt.Arrow(a, a), tm.lam("x", a, tm.App(f, tm.App(f, x))))
    for source in (tm.App(twice, tm.lam("y", a, tm.Var("y"))), succ_power(6)):
        term = cps_term_typed((), (), source)[0]
        steps = []
        out = rewrite._run(rewrite.to_nameful(term), {}, PLAIN, [rewrite._BETA], steps)
        run = lambda t: (out, steps)
        assert assert_same_search(term, {}, PLAIN, ([rewrite._BETA],), run) > 0
        assert tg.equal(beta_normalize(term), rewrite.from_nameful(out))


GROUPS = {"beta": rewrite._BETA, "eta": rewrite._ETA, "hoist": rewrite._HOIST,
          "star": rewrite._STAR, "expand": rewrite._EXPAND, "share": rewrite._SHARE}


@pytest.fixture
def searched(monkeypatch):
    """Per `_run` call (one phase of one side), the names of the groups
    searched before its first step, in order."""
    names = {id(group): name for name, group in GROUPS.items()}
    runs = []  # per call: its step list, that list's length before it, the groups searched
    real_run, real_search, real_beta = rewrite._run, rewrite._search, rewrite._search_beta

    def run(t, env, mode, groups, steps, normal=frozenset()):
        runs.append((steps, len(steps), []))
        return real_run(t, env, mode, groups, steps, normal)

    def note(name):
        steps, start, seen = runs[-1]
        if len(steps) == start:
            seen.append(name)

    def search(z, group, *args):
        note(names[id(group)])
        return real_search(z, group, *args)

    def search_beta(*args):
        note("beta")
        return real_beta(*args)

    monkeypatch.setattr(rewrite, "_run", run)
    monkeypatch.setattr(rewrite, "_search", search)
    monkeypatch.setattr(rewrite, "_search_beta", search_beta)
    return runs


def assert_phases_carry(runs, mode, sides=1):
    """Phase 1 searches its groups in priority order until one steps;
    phase 2 starts with expand alone and phase 3 with eta alone, the only
    groups not covered by the phase before."""
    first = ["beta", "eta", "hoist"] + (["star"] if mode == PARAMETRIC else [])
    assert len(runs) == 3 * sides
    for i, (_, _, seen) in enumerate(runs):
        phase = i // sides + 1
        if phase == 1:
            assert seen and seen == first[: len(seen)], seen
        else:
            assert seen == (["expand"] if phase == 2 else ["eta"]), (phase, seen)


@pytest.mark.parametrize("mode", [PLAIN, PARAMETRIC])
def test_each_phase_skips_the_groups_the_last_one_covered(searched, mode):
    for label, term, env in chain(catalog_images(), numeral_images()):
        searched.clear()
        rewrite.normalize_nameful(rewrite.to_nameful(term), env, mode)
        try:
            assert_phases_carry(searched, mode)
        except AssertionError as failure:
            raise AssertionError(f"{label}: {failure}") from None


@pytest.mark.parametrize("mode", [PLAIN, PARAMETRIC])
def test_lockstep_sides_carry_one_set(searched, mode):
    """Two sides that never meet each run every phase, both starting
    from what the phase before covered."""
    images = [(term, env) for _, term, env in numeral_images()]
    for (left, env), (right, _) in zip(images, images[1:]):
        searched.clear()
        met = rewrite.normalize_pair(rewrite.to_nameful(left), rewrite.to_nameful(right), (), mode)[4]
        assert met is None
        assert_phases_carry(searched, mode, sides=2)


#: Rule tests (`rewrite._test` calls) of normalize_nameful over the images,
#: per mode.  A search from the root at every phase made 8797 and 11146
#: over the catalog, 3992 and 4930 over the numerals; a search from a
#: resume path to the end of the term 6919, 8748, 2914 and 3536.
TEST_COUNTS = {(catalog_images, PLAIN): 6407, (catalog_images, PARAMETRIC): 8066,
               (numeral_images, PLAIN): 2722, (numeral_images, PARAMETRIC): 3280}


@pytest.mark.parametrize("images, mode", TEST_COUNTS, ids=lambda v: getattr(v, "__name__", v))
def test_rule_test_counts(monkeypatch, images, mode):
    real, count = rewrite._test, [0]

    def counted(*args):
        count[0] += 1
        return real(*args)

    monkeypatch.setattr(rewrite, "_test", counted)
    for _, term, env in images():
        rewrite.normalize_nameful(rewrite.to_nameful(term), env, mode)
    assert count[0] == TEST_COUNTS[images, mode]


@pytest.mark.parametrize("mode", [PLAIN, PARAMETRIC])
def test_resumed_search_inputs_lower_a_floor(monkeypatch, mode):
    """The inputs of test_resumed_search_matches_search_from_root take
    steps outside the subtree that a group's search was bounded to, so
    that test checks `_run`'s floor-lowering branch (`rewrite._meet`)."""
    real, count = rewrite._meet, [0]

    def counted(*args):
        count[0] += 1
        return real(*args)

    monkeypatch.setattr(rewrite, "_meet", counted)
    for images in (catalog_images, numeral_images, generated_images, parent_images):
        for _, term, env in images():
            rewrite.normalize_nameful(rewrite.to_nameful(term), env, mode)
    assert count[0] > 0


def test_a_step_above_the_bounded_subtree_lowers_the_floor():
    """Three toy groups after beta, each one rule on variable names: z
    turns into a, which makes an A redex at the root; A's contractum puts
    a W redex in the root's right child.  W found nothing before z's
    step, so that step bounds W to z's subtree; A steps at the root, above
    it, before W is searched again, and W must then scan the whole term."""
    def rename(old, new):
        return lambda t, env, mode: tg.TgVar(new) if t.name == old else None

    def a_rule(t, env, mode):
        arg = t.arg
        if arg.__class__ is tg.TgApp and arg.arg.__class__ is tg.TgApp and arg.arg.arg == tg.TgVar("a"):
            return tg.Pair(tg.TgVar("x"), tg.TgVar("w"))
        return None

    toys = (("A", a_rule, tg.TgApp), ("W", rename("w", "v"), tg.TgVar), ("Z", rename("z", "a"), tg.TgVar))
    groups = [rewrite._BETA] + [rewrite._by_head(((name, rewrite._at(rule, head)),)) for name, rule, head in toys]
    app, v = tg.TgApp, tg.TgVar
    term = app(v("f"), app(v("g"), app(v("h"), v("z"))))
    steps = []
    out = rewrite._run(term, {}, PLAIN, groups, steps)
    expected = [step for step, _ in reference_steps(term, {}, PLAIN, (groups,))]
    assert [s.render() for s in expected] == ["Z 1.1.1", "A root", "W 1"]
    assert steps == expected
    assert out == tg.Pair(v("x"), v("v"))


#: Own-set computations of the free-atom memos (calls of the entries of
#: `rewrite._OWN_ATOMS` and `rewrite._OWN_TATOMS`) by normalize_nameful
#: over the images, per mode: (term-atom sets, type-atom sets).  While
#: beta-pack substituted every witness at once the type-atom sets were
#: 7, 7, 1602 and 1602; a witness that is a type atom now becomes an
#: alias, resolved once as each run ends.
FILL_COUNTS = {(catalog_images, PLAIN): (2262, 15), (catalog_images, PARAMETRIC): (2345, 15),
               (numeral_images, PLAIN): (3453, 320), (numeral_images, PARAMETRIC): (3453, 320)}


@pytest.mark.parametrize("images, mode", FILL_COUNTS, ids=lambda v: getattr(v, "__name__", v))
def test_memo_fill_counts(monkeypatch, images, mode):
    fills = {rewrite._ATOMS: 0, rewrite._TATOMS: 0}
    for key, own in ((rewrite._ATOMS, rewrite._OWN_ATOMS), (rewrite._TATOMS, rewrite._OWN_TATOMS)):
        # The one Star node is shared by every term: fill its set anew here.
        monkeypatch.delitem(tg.STAR.__dict__, key, raising=False)
        for cls, fill in list(own.items()):
            def counted(t, fill=fill, key=key):
                fills[key] += 1
                return fill(t)

            monkeypatch.setitem(own, cls, counted)
    for _, term, env in images():
        rewrite.normalize_nameful(rewrite.to_nameful(term), env, mode)
    assert (fills[rewrite._ATOMS], fills[rewrite._TATOMS]) == FILL_COUNTS[images, mode]


def test_replace_at_is_one_frame_deep():
    """replace_at rebuilds a path far deeper than the recursion limit."""
    import sys

    depth = 3 * sys.getrecursionlimit()
    t = tg.TgVar("z")
    for _ in range(depth):
        t = tg.TgApp(t, tg.TgVar("a"))
    path = (0,) * depth
    out = tg.replace_at(t, path, tg.TgVar("w"))
    assert tg.subterm_at(out, path) == tg.TgVar("w")
    assert out.arg is t.arg
