"""The resumable redex search against a search from the root.

`rewrite._run` resumes each rule group's leftmost-outermost search where
that group last left off.  Here a reference engine, which restarts every
search at the root, runs the same three phases beside the engine's trace:
at every step both must pick the same rule at the same path, and both
must end in the same normal form.
"""

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
from mu2forge.target_typing import PARAMETRIC, PLAIN, resolve_packs, typecheck_target
from mu2forge.theory import gen_judgement

#: theory.gen_judgement seeds (budget 6) that do not give up.
GENERATED_SEEDS = (
    160002, 160003, 160004, 160005, 160006, 160010, 160011, 160012, 160014, 160015,
    160017, 160018, 160023, 160025, 160026, 160030, 160031, 160032, 160033, 160035,
    160036, 160037, 160038, 160039, 160042, 160043, 160044, 160046, 160047, 160049,
)


def reference_find(t, group, env, mode, path=()):
    """The first redex of group in t in preorder, searched from the root:
    (rule name, path, contractum) or None."""
    rules, threads_env = group[:2]  # the table below the root, and its env flag
    for name, rule in rules[t.__class__]:
        if name == "hoist-lam" and path == ():
            continue
        out = rule(t, env, mode)
        if out is not None:
            return name, path, out
    for i, kid in enumerate(tg.children(t)):
        kid_env = rewrite._env_through(t, i, env) if threads_env else env
        hit = reference_find(kid, group, kid_env, mode, path + (i,))
        if hit is not None:
            return hit
    return None


def reference_steps(t, env, mode, phases):
    """Run the phases with reference_find; yields (step, term after it)."""
    for groups in phases:
        while True:
            hit = None
            for group in groups:
                hit = reference_find(t, group, env, mode)
                if hit is not None:
                    break
            if hit is None:
                break
            name, path, out = hit
            t = tg.replace_at(t, path, out)
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
        assert tg.equal(rewrite.beta_normalize(term), rewrite.from_nameful(out))


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
