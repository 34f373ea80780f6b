"""The CPS translation's per-translation type memo changes object
identity only.

`cps._Image` translates each source type object once per translation
and shares the image.  A reference builder here translates every
annotation afresh with `cps_type`; both must give the same image and
type, `==` and `repr`-identical (binder hints and raw atoms included),
and draw the same number of fresh atoms.
"""

import itertools

from mu2forge import cps
from mu2forge import mu_terms as tm
from mu2forge import target_terms as tg
from mu2forge.combinators import catalog, church
from mu2forge.mu_typing import _synth, check_contexts
from mu2forge.suite_runner import _entry_gamma
from mu2forge.theory import GaveUp, gen_judgement


class FreshTypes(cps._Image):
    """The clause images of cps._Image, each type translated afresh."""

    def type(self, ty):
        return cps.cps_type(ty)


def reference(gamma, delta, term):
    check_contexts(gamma, delta)
    image, ty = _synth(gamma, delta, term, FreshTypes())
    return tg.close_binders(image), ty


def judgements():
    for entry in catalog():
        yield entry.name, _entry_gamma(entry), (), entry.term
    for n in range(51):
        yield f"church {n}", (), (), church(n)
    found = 0
    for seed in itertools.count():
        if found == 300:
            return
        try:
            gamma, delta, term, _ = gen_judgement(seed, budget=5)
        except GaveUp:
            continue
        found += 1
        yield seed, gamma, delta, term


def drawn(monkeypatch, translate, *args):
    """translate(*args) with the fresh counter at 1, and the atoms it drew."""
    counter = itertools.count(1)
    monkeypatch.setattr(tm, "_fresh_counter", counter)
    out = translate(*args)
    return out, next(counter) - 1


def test_shared_types_change_identity_only(monkeypatch):
    count = 0
    for label, gamma, delta, term in judgements():
        (image, ty), atoms = drawn(monkeypatch, cps.cps_term_typed, gamma, delta, term)
        (want, want_ty), want_atoms = drawn(monkeypatch, reference, gamma, delta, term)
        assert (image, ty) == (want, want_ty), label
        assert (repr(image), repr(ty)) == (repr(want), repr(want_ty)), label
        assert atoms == want_atoms, label
        count += 1
    assert count == len(catalog()) + 51 + 300


def test_one_translation_per_source_type_object():
    # In the nameful image of Church 20 each application's continuation
    # k is annotated with the image of the same source type object (the
    # codomain of f's type), so the twenty annotations are one object.
    image, _ = _synth((), (), church(20), cps._Image())
    anns, todo = [], [image]
    while todo:
        t = todo.pop()
        if isinstance(t, tg.TgLam):
            anns.append(t.ann)
        todo.extend(tg.children(t))
    assert len(anns) == 23 and len({id(a) for a in anns}) == 4
