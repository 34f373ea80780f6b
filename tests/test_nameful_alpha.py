"""The lockstep's meeting test, `tg.nameful_equal`, against `tg.equal`
of the two closed forms as the reference; and the lockstep closes only
its two results."""

import sys

import pytest

from mu2forge import canonical, rewrite
from mu2forge import target_terms as tg
from mu2forge import target_types as tt
from mu2forge.combinators import church
from mu2forge.cps import translate
from mu2forge.rewrite import from_nameful
from test_lockstep import _input_sets

S = tt.TgVarT("s")
X, Y = tt.TgVarT("X"), tt.TgVarT("Y")
EX = tt.exists("Z", tt.TgVarT("Z"))


def reference(a, b) -> bool:
    return tg.equal(from_nameful(a), from_nameful(b))


def lam(x, body, ann=S):
    return tg.TgLam(x, ann, body)


def app(fn, arg):
    return tg.TgApp(fn, arg)


v = tg.TgVar


@pytest.fixture(scope="module")
def pairs():
    """The nameful (left, right, context, mode) of every normalize_pair
    call that test_lockstep's input sets make."""
    real, out = canonical.normalize_pair, []

    def capture(left, right, context=(), mode=canonical.PLAIN):
        out.append((left, right, context, mode))
        return real(left, right, context, mode)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(canonical, "normalize_pair", capture)
        for ask in _input_sets().values():
            ask()
    return out


def _phase_outputs(t, context, mode):
    """t and its output after each phase of its own search."""
    out, env, steps = [t], dict(context), []
    for groups in rewrite._phases(mode):
        t = rewrite._run(t, env, mode, groups, steps)
        out.append(t)
    return out


def test_agrees_with_closed_equality_on_every_phase_output(pairs):
    """Each side's input and phase outputs, every one against every
    other of both sides: a superset of what the lockstep compares.  A
    term against itself is the same object on both sides."""
    verdicts = {True: 0, False: 0}
    for left, right, context, mode in pairs:
        terms = _phase_outputs(left, context, mode) + _phase_outputs(right, context, mode)
        closed = [from_nameful(t) for t in terms]
        for a, ca in zip(terms, closed):
            for b, cb in zip(terms, closed):
                want = tg.equal(ca, cb)
                assert tg.nameful_equal(a, b) == want
                verdicts[want] += 1
    assert len(pairs) > 100 and min(verdicts.values()) > 1000


NEAR_MISSES = {
    "swapped arguments": (
        lam("x", lam("y", app(v("x"), v("y")))),
        lam("a", lam("b", app(v("b"), v("a")))),
        False,
    ),
    "renamed binders": (
        lam("x", lam("y", app(v("x"), v("y")))),
        lam("a", lam("b", app(v("a"), v("b")))),
        True,
    ),
    "free atom against the other side's binder atom": (
        lam("x", v("x")),
        lam("y", v("x")),
        False,
    ),
    "binder atom against a free atom of that name": (
        lam("x", v("y")),
        lam("y", v("y")),
        False,
    ),
    "same free atom": (lam("x", v("c")), lam("y", v("c")), True),
    # The right side binds z again inside its own scope, which no kernel
    # term does; a one-way pairing (left to right only) would accept
    # this, as x -> z and y -> z and the occurrence x meets z.
    "two left binders against one right atom": (
        lam("x", lam("y", v("x"))),
        lam("z", lam("z", v("z"))),
        False,
    ),
    "two left binders against one right atom, inner used": (
        lam("x", lam("y", v("y"))),
        lam("z", lam("z", v("z"))),
        True,
    ),
    "one left atom against two right binders": (
        lam("z", lam("z", v("z"))),
        lam("x", lam("y", v("x"))),
        False,
    ),
    "let-pair components swapped": (
        tg.LetPair("x", "y", v("c"), app(v("x"), v("y"))),
        tg.LetPair("a", "b", v("c"), app(v("b"), v("a"))),
        False,
    ),
    "let-pack type atom in an annotation and a witness": (
        tg.LetPack("X", "p", v("c"), lam("q", tg.Pack(X, v("q"), EX), tt.Neg(X))),
        tg.LetPack("Y", "r", v("c"), lam("u", tg.Pack(Y, v("u"), EX), tt.Neg(Y))),
        True,
    ),
    "let-pack type atom against a free type atom in the witness": (
        tg.LetPack("X", "p", v("c"), lam("q", tg.Pack(X, v("q"), EX), tt.Neg(X))),
        tg.LetPack("Y", "r", v("c"), lam("u", tg.Pack(S, v("u"), EX), tt.Neg(Y))),
        False,
    ),
    "let-pack type atom against a free type atom in the annotation": (
        tg.LetPack("X", "p", v("c"), lam("q", tg.Pack(X, v("q"), EX), tt.Neg(X))),
        tg.LetPack("Y", "r", v("c"), lam("u", tg.Pack(Y, v("u"), EX), tt.Neg(S))),
        False,
    ),
    "inner and outer let-pack type atoms swapped": (
        tg.LetPack("X", "p", v("c"), tg.LetPack("Y", "r", v("p"), lam("q", v("r"), tt.Conj(X, Y)))),
        tg.LetPack("A", "p2", v("c"), tg.LetPack("B", "r2", v("p2"), lam("q", v("r2"), tt.Conj(
            tt.TgVarT("B"), tt.TgVarT("A"))))),
        False,
    ),
    "exists-bound type variables swapped in an annotation": (
        lam("q", v("q"), tt.exists("A", tt.exists("B", tt.Conj(tt.TgVarT("A"), tt.TgVarT("B"))))),
        lam("q", v("q"), tt.exists("A", tt.exists("B", tt.Conj(tt.TgVarT("B"), tt.TgVarT("A"))))),
        False,
    ),
}


@pytest.mark.parametrize("name", NEAR_MISSES)
def test_near_misses(name):
    left, right, want = NEAR_MISSES[name]
    assert reference(left, right) == want
    assert tg.nameful_equal(left, right) == want
    assert tg.nameful_equal(right, left) == want


def test_shared_subterm_objects():
    """A subterm object that occurs twice repeats its binder atoms; two
    sides may share objects, free atoms included."""
    shared = lam("x", v("x"))
    free = v("x")
    cases = [
        (tg.Pair(shared, shared), tg.Pair(lam("a", v("a")), lam("b", v("b"))), True),
        (tg.Pair(shared, shared), tg.Pair(shared, lam("b", v("b"))), True),
        (tg.Pair(shared, shared), tg.Pair(shared, lam("b", v("c"))), False),
        (shared, shared, True),
        (lam("x", free), lam("y", free), False),  # x bound on the left only
        (lam("y", free), lam("z", free), True),  # x free on both sides
    ]
    for left, right, want in cases:
        assert reference(left, right) == want
        assert tg.nameful_equal(left, right) == want
        assert tg.nameful_equal(right, left) == want


def test_stack_safe_on_church_1000():
    """The CPS image of Church 1000, far deeper than the recursion limit,
    against itself, a second image and Church 999."""
    assert sys.getrecursionlimit() <= 1000
    image, _ = translate((), (), church(1000))
    again, _ = translate((), (), church(1000))
    smaller, _ = translate((), (), church(999))
    assert tg.nameful_equal(image, image)
    assert tg.nameful_equal(image, again)
    assert not tg.nameful_equal(image, smaller)
    assert not tg.nameful_equal(smaller, image)
    assert reference(image, again) and not reference(image, smaller)


def test_normalize_pair_closes_only_its_results(pairs, monkeypatch):
    """Two from_nameful calls per lockstep, wherever the sides meet; the
    copies rewrite.uniquify makes of duplicated subterms are not
    counted."""
    real, closed = rewrite.from_nameful, []

    def counted(t):
        if sys._getframe(1).f_code is not rewrite.uniquify.__code__:
            closed.append(t)
        return real(t)

    monkeypatch.setattr(rewrite, "from_nameful", counted)
    met = set()
    for left, right, context, mode in pairs:
        closed.clear()
        where = rewrite.normalize_pair(left, right, context, mode)[4]
        met.add(where if where is None else where.split()[0])
        assert len(closed) == 2, where
    assert met == {"inputs", "ahead", "outputs", None}
