"""The lockstep pair driver behind eq_target, against two independent
`normalize` calls as the reference."""

from collections import Counter

import pytest

from mu2forge import inverse, rewrite, target_typing, theory
from mu2forge import canonical
from mu2forge import mu_terms as tm
from mu2forge import target_terms as tg
from mu2forge import target_types as tt
from mu2forge.combinators import church, church_succ, church_zero, identity
from mu2forge.cps import cps_context, cps_term_typed
from mu2forge.printer import print_target_term, sexpr_target_term
from mu2forge.rewrite import from_nameful, normalize, normalize_pair, to_nameful
from mu2forge.target_typing import PARAMETRIC, PLAIN
from mu2forge.theory import (
    BETA_ETA,
    LAMBDA_MU_2P,
    GaveUp,
    additional_axiom_instances,
    core_axiom_instances,
    eq_mu,
    gen_judgement,
)

GENERATOR_SEEDS = 12  # the first generated judgements from seed 140 000


def succ_power(n):
    t = church_zero()
    for _ in range(n):
        t = tm.App(church_succ(), t)
    return t


def _generated():
    seed, out = 140_000, []
    while len(out) < GENERATOR_SEEDS:
        try:
            out.append(gen_judgement(seed, budget=5))
        except GaveUp:
            pass
        seed += 1
    return out


def _input_sets():
    """Per input set, a thunk that asks the kernel its equations."""
    from mu2forge.suite_runner import criteria, decide

    gate = {criterion[0]: criterion for criterion in criteria()}

    def axioms():
        for inst in core_axiom_instances():
            for th in (BETA_ETA, LAMBDA_MU_2P):
                eq_mu(inst.left, inst.right, th, inst.gamma, inst.delta)
        for instances in additional_axiom_instances().values():
            for inst in instances:
                for th in (BETA_ETA, LAMBDA_MU_2P):
                    eq_mu(inst.left, inst.right, th, inst.gamma, inst.delta)

    def numerals():
        for th in (BETA_ETA, LAMBDA_MU_2P):
            for n in range(6):
                eq_mu(succ_power(n), church(n), th)
                eq_mu(succ_power(n), church(n + 1), th)

    def generated():
        # each image against its own normal form, and each term against
        # the identity applied to it
        for gamma, delta, source, ty in _generated():
            image, _ = cps_term_typed(gamma, delta, source)
            tctx = cps_context(gamma, delta)
            for mode in (PLAIN, PARAMETRIC):
                canonical.eq_target(image, normalize(image, tctx, mode)[0], mode, tctx)
            for th in (BETA_ETA, LAMBDA_MU_2P):
                eq_mu(source, tm.App(identity(ty), source), th, gamma, delta)

    return {
        "round trips": lambda: decide(*gate[3]),
        "axioms": axioms,
        "L-monad and focal": lambda: (decide(*gate[10]), decide(*gate[7])),
        "numerals": numerals,
        "generated": generated,
    }


@pytest.fixture(scope="module")
def recorded():
    """Per input set, the nameful (left, right, mode, context) of every
    eq_nameful call it makes: eq_mu and the round trips call it
    directly, eq_target through to_nameful."""
    real = canonical.eq_nameful
    out = {}
    with pytest.MonkeyPatch.context() as patch:
        for name, ask in _input_sets().items():
            calls = out[name] = []

            def capture(left, right, mode=PLAIN, context=(), calls=calls):
                calls.append((left, right, mode, context))
                return real(left, right, mode, context)

            for module in (canonical, theory, inverse):
                patch.setattr(module, "eq_nameful", capture)
            ask()
    return out


@pytest.fixture(scope="module")
def equations(recorded):
    """Per input set, the closed (left, right, mode, context) of every
    equation it asks."""
    return {
        name: [(from_nameful(left), from_nameful(right), mode, context) for left, right, mode, context in calls]
        for name, calls in recorded.items()
    }


def _pair(left, right, context, mode):
    """normalize_pair of two locally closed sides."""
    return normalize_pair(to_nameful(left), to_nameful(right), context, mode)


def test_input_sets_sizes(equations):
    assert {name: len(calls) for name, calls in equations.items()} == {
        "round trips": 23,
        "axioms": 2 * (len(core_axiom_instances())
                       + sum(map(len, additional_axiom_instances().values()))),
        "L-monad and focal": 18,
        "numerals": 24,
        "generated": 4 * GENERATOR_SEEDS,
    }


def test_eq_target_matches_two_normalize_calls(equations, monkeypatch):
    """Same verdict, traces and printed normal forms, binder names
    included, as two independent normalize calls; eq_target itself no
    longer calls normalize.  The sides meet exactly when they are
    Equal."""

    def refuse(*args, **kwargs):
        raise AssertionError("eq_target called normalize")

    for calls in equations.values():
        for left, right, mode, context in calls:
            with monkeypatch.context() as patch:
                patch.setattr(rewrite, "normalize", refuse)
                verdict = canonical.eq_target(left, right, mode, context)
            lnorm, lsteps = normalize(left, context, mode)
            rnorm, rsteps = normalize(right, context, mode)
            assert verdict.equal == tg.equal(lnorm, rnorm)
            assert verdict.equal == (_pair(left, right, context, mode)[4] is not None)
            assert verdict.left_trace == tuple(lsteps)
            assert verdict.right_trace == tuple(rsteps)
            for got, want in ((verdict.left, lnorm), (verdict.right, rnorm)):
                assert print_target_term(got) == print_target_term(want)
                assert sexpr_target_term(got) == sexpr_target_term(want)


def test_meeting_points_pinned(equations):
    """Where the two sides of each equation meet.  A change that stops
    them meeting shifts these counts instead of only running slower."""
    met = {
        name: Counter(_pair(left, right, context, mode)[4] for left, right, mode, context in calls)
        for name, calls in equations.items()
    }
    assert met == {
        "round trips": Counter({"ahead 1": 23}),  # the canonical side takes no phase-1 step
        "axioms": Counter({"ahead 1": 15, "outputs 1": 14, None: 9}),
        "L-monad and focal": Counter({"ahead 1": 9, "outputs 1": 9}),
        "numerals": Counter({"outputs 1": 10, "inputs": 2, None: 12}),
        "generated": Counter({"outputs 1": 24, "ahead 1": 20, "inputs": 4}),
    }


def test_nameful_images_give_what_opening_gives(recorded):
    """eq_nameful on the nameful sides that eq_mu and the round trips
    hand it, and eq_target on their closed forms: the same verdict,
    traces, normal forms (printed and as s-expressions) and meeting
    point."""
    checked = 0
    for calls in recorded.values():
        for left, right, mode, context in calls:
            closed = from_nameful(left), from_nameful(right)
            nameful = canonical.eq_nameful(left, right, mode, context)
            opened = canonical.eq_target(*closed, mode, context)
            assert nameful.equal == opened.equal
            assert nameful.left_trace == opened.left_trace
            assert nameful.right_trace == opened.right_trace
            for got, want in ((nameful.left, opened.left), (nameful.right, opened.right)):
                assert print_target_term(got) == print_target_term(want)
                assert sexpr_target_term(got) == sexpr_target_term(want)
            assert normalize_pair(left, right, context, mode)[4] == _pair(*closed, context, mode)[4]
            checked += 1
    assert checked > 100


def test_eq_mu_opens_no_cps_image(monkeypatch):
    """eq_mu hands eq_nameful each CPS image as the translation builds
    it, so nothing opens a closed image with to_nameful."""
    images, opened = [], []
    real_eq_nameful, real_to_nameful = canonical.eq_nameful, tg.to_nameful

    def capture(left, right, *rest):
        images.extend((from_nameful(left), from_nameful(right)))
        return real_eq_nameful(left, right, *rest)

    def counted(t):
        opened.append(t)
        return real_to_nameful(t)

    monkeypatch.setattr(theory, "eq_nameful", capture)
    for module in (tg, target_typing, rewrite):
        monkeypatch.setattr(module, "to_nameful", counted)
    assert eq_mu(succ_power(6), church(6), BETA_ETA).equal
    assert len(images) == 2
    assert not [t for t in opened for image in images if tg.equal(t, image)]


def test_sides_meet_up_to_a_let_pack_type_atom_in_an_annotation():
    """After phase 1 the sides differ only in the atom each opened for
    X, which the pack's witness names: they meet there, and each side
    is still the one two normalize calls give."""
    X, ALL = tt.TgVarT("X"), tt.exists("Y", tt.TgVarT("Y"))
    context = (("c", tt.exists("X", tt.Conj(X, tt.Neg(X)))), ("g", tt.Neg(ALL)))

    def term(head):
        g = tg.TgApp(head, tg.Pack(X, tg.TgVar("x"), ALL))
        return tg.close_binders(tg.LetPack("X", "p", tg.TgVar("c"), tg.LetPair("x", "f", tg.TgVar("p"), g)))

    normal = term(tg.TgVar("g"))
    redex = term(tg.TgLam("q", ALL, tg.TgApp(tg.TgVar("g"), tg.TgVar("q"))))
    for left, right, met in ((redex, normal, "ahead 1"), (normal, redex, "outputs 1")):
        lnorm, lsteps, rnorm, rsteps, where = _pair(left, right, context, PLAIN)
        assert where == met
        assert (lnorm, lsteps) == normalize(left, context, PLAIN)
        assert (rnorm, rsteps) == normalize(right, context, PLAIN)
        assert canonical.eq_target(left, right, PLAIN, context).equal


def _variant(term: tg.TargetTerm) -> tg.TargetTerm:
    """term with every binder opened with other atoms and re-hinted:
    lower- and upper-case letters of each hint run in reverse order, so
    atom names sort the other way round."""

    def rehint(atom: str) -> str:
        flip = lambda c: chr(219 - ord(c)) if c.islower() else chr(155 - ord(c)) if c.isupper() else c
        return "".join(map(flip, rewrite.base_name(atom))) + "'"

    return tg.close_binders(rewrite.to_nameful(term), rehint)


def test_normalization_is_alpha_invariant(equations):
    """Each input beside an alpha-variant of itself, in both modes: the
    same trace and tg.equal normal forms.  This is the property the right
    side's following rests on: no rule reads an atom's name."""
    checked = 0
    for calls in equations.values():
        for left, right, _, context in calls:
            for term in (left, right):
                variant = _variant(term)
                assert tg.equal(variant, term)
                for mode in (PLAIN, PARAMETRIC):
                    normal, steps = normalize(term, context, mode)
                    vnormal, vsteps = normalize(variant, context, mode)
                    assert vsteps == steps
                    assert tg.equal(vnormal, normal)
                    checked += 1
    assert checked > 500


def test_followed_step_that_fails_is_a_bug():
    """The right side follows the left's steps; one that does not apply
    raises RewriteError, not a wrong answer."""
    image, _ = cps_term_typed((), (), church(1))
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(rewrite.ALL_RULES, "beta-fun", lambda t, env, mode: None)
        with pytest.raises(rewrite.RewriteError, match="cannot follow"):
            _pair(image, image, (), PLAIN)
