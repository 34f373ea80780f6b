"""Type-atom aliases against eager substitution.

A beta-pack step whose witness is a type atom Y does not substitute Y
for the let's atom X: X becomes an alias of Y for the rest of the run
(`rewrite.RunState`).  Four places read type atoms themselves and must
see through an alias: (a) eta-pack's pattern match, (b) whether a
let-pack atom occurs (dead-let-pack, and eta-pack's walk over the body),
(c) a copy that renames its binders, and (d) the end of a run.  A
witness that is not an atom is substituted for its atom and for every
atom aliased to it.

Each input below makes one of them decide a step.  The engine must take
the same steps, and reach the same normal form, as the reference of
`test_search_resume`, which leaves its state after every step and so
substitutes each witness at once.  The escape check asks that no result
of a run, of the lockstep pair or of replay holds a type atom that is
free neither in its input nor in its context.
"""

import pytest

from mu2forge import rewrite
from mu2forge import target_terms as tg
from mu2forge import target_types as tt
from mu2forge.surface import parse_target_term, parse_target_type
from mu2forge.target_typing import PARAMETRIC, PLAIN, resolve_nameful, typecheck_target
from test_search_resume import assert_same_search, catalog_images, generated_images, numeral_images

UNIT = r"exists Y. not Y"

#: name -> (context, term, the engine's trace in both modes).  In each,
#: the inner beta-pack step (at 1, or 1.0.1) makes V an alias of the
#: outer let's atom; the step after it holds only modulo that alias.
CASES = {
    # (a) The pattern <X | x> occurs only as <V | x>.
    "eta-pack-pattern": (
        rf"s:{UNIT}, f:not({UNIT})",
        rf"let <X, x> = s in let <V, v> = <X | x : {UNIT}> in f <V | v : {UNIT}>",
        ["beta-pack 1", "eta-pack root"],
    ),
    # (b) x is dead and X occurs only as V: the let stays.
    "dead-let-pack": (
        rf"s:{UNIT}, g:not({UNIT}), h:not a, u:a",
        rf"let <X, x> = s in let <V, v> = <X | h : exists Y. not a> in g <V | \z:V. h u : {UNIT}>",
        ["beta-pack 1"],
    ),
    # (b) x occurs only in the pattern, but X also occurs as V outside it.
    "eta-pack-walk": (
        rf"s:{UNIT}, f:not(({UNIT}) /\ ({UNIT})), h:not a, u:a",
        rf"let <X, x> = s in let <V, v> = <X | h : exists Y. not a> in "
        rf"f <<X | x : {UNIT}>, <V | \z:V. h u : {UNIT}>>",
        ["beta-pack 1"],
    ),
    # A witness that is not an atom, not a. eta-pair makes the outer
    # scrutinee a pack after V became an alias of X; not a replaces both.
    "several-atoms": (
        rf"w:(not a) /\ b, g:not({UNIT}), h:not a, u:a",
        rf"let <X, x> = (let <c, d> = w in <not a | <c, d> : exists Y. Y /\ b>) in "
        rf"let <V, v> = <X | h : exists Y. not a> in g <V | \z:V. h u : {UNIT}>",
        ["beta-pack 1", "eta-pair 0", "beta-pack root"],
    ),
    # (c) beta-fun copies its argument, in which V is an alias of Z and
    # Z is bound: the copy renames Z, so it must read V as Z first.
    "copy": (
        rf"w:b /\ b, m:not((not a) /\ (not a)), s:{UNIT}, g:not({UNIT}), h:not a, u:a",
        rf"(let <c, d> = w in \y:not a. m <y, y>) "
        rf"(\r:a. let <Z, z> = s in let <V, v> = <Z | z : {UNIT}> in g <V | \k:V. h u : {UNIT}>)",
        ["beta-pack 1.0.1", "dead-let-pair 0", "beta-fun root", "hoist-lam 1.0", "hoist-pair-left 1",
         "dedup-pack 1", "beta-pack 1.1.1.0", "hoist-app-arg root"],
    ),
}


def context(text):
    return tuple((n.strip(), parse_target_type(t)) for n, t in (part.split(":", 1) for part in text.split(",")))


def phases(mode):
    return rewrite._contract_groups(mode), rewrite._expand_groups(mode), rewrite._contract_groups(mode)


@pytest.mark.parametrize("mode", [PLAIN, PARAMETRIC])
@pytest.mark.parametrize("case", list(CASES))
def test_alias_decides_the_step_as_eager_substitution_does(case, mode):
    ctx_text, text, trace = CASES[case]
    ctx = context(ctx_text)
    made, ty = resolve_nameful(parse_target_term(text), ctx, mode)
    term, env = rewrite.from_nameful(made), dict(ctx)
    run = lambda t: rewrite.normalize_nameful(t, env, mode)
    assert assert_same_search(term, env, mode, phases(mode), run) == len(trace)
    normal, steps = rewrite.normalize(term, ctx, mode)
    assert [step.render() for step in steps] == trace
    assert typecheck_target(ctx, normal, mode) == ty
    assert tg.equal(rewrite.replay(term, steps, ctx, mode), normal)


def free_tatoms(t, env) -> frozenset[str]:
    """The free type atoms of a nameful or closed term, with its context's."""
    closed = tg.close_binders(t)
    return tg.free_tvars(closed).union(*map(tt.ftv, env.values()))


@pytest.mark.parametrize("images", [catalog_images, numeral_images, generated_images])
@pytest.mark.parametrize("mode", [PLAIN, PARAMETRIC])
def test_no_type_atom_escapes_a_run(images, mode):
    for label, term, env in images():
        t, steps, normal = rewrite.to_nameful(term), [], frozenset()
        free = free_tatoms(t, env)
        for groups in phases(mode):
            t = rewrite._run(t, env, mode, groups, steps, normal)
            normal = rewrite._covered(groups)
            assert free_tatoms(t, env) <= free, (label, "_run")
        # Equal sides meet at once: the right side follows every step.
        left, _, right, _, met = rewrite.normalize_pair(
            rewrite.to_nameful(term), rewrite.to_nameful(term), tuple(env.items()), mode
        )
        assert met == "inputs"
        assert free_tatoms(left, env) <= free and free_tatoms(right, env) <= free, (label, "normalize_pair")
        assert free_tatoms(rewrite.replay(term, steps, tuple(env.items()), mode), env) <= free, (label, "replay")


@pytest.mark.parametrize(
    "rewrite_atom",
    [lambda t: rewrite.subst_tatom(t, {"a": tt.TgVarT("b")}), lambda t: rewrite._read(t, {"a": "b"})],
    ids=["subst_tatom", "read-through-alias"],
)
def test_a_pack_has_its_witness_and_existential_annotation_rewritten(rewrite_atom):
    """A type substitution, and a read through an alias, rewrite both
    annotations of a pack: its witness and its existential type."""
    made, _ = resolve_nameful(parse_target_term(r"<a | h : exists Y. not a>"), context("h:not a"), PLAIN)
    want, _ = resolve_nameful(parse_target_term(r"<b | h : exists Y. not b>"), context("h:not b"), PLAIN)
    got = rewrite_atom(made)
    assert got.witness == want.witness == tt.TgVarT("b")
    assert got.ex_ann == want.ex_ann
    assert tg.equal(rewrite.from_nameful(got), rewrite.from_nameful(want))
