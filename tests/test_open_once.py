"""Each locally closed input is opened to the nameful form once: the
passes after `to_nameful` (typing, normalization, the canonical walk)
all run on the nameful form, and only the result is closed."""

import sys

import pytest

from mu2forge import canonical, inverse, rewrite, target_typing
from mu2forge import target_terms as tg
from mu2forge.canonical import PROGRAM, canonicalize
from mu2forge.cli import main
from mu2forge.combinators import church
from mu2forge.cps import cps_term_typed
from mu2forge.inverse import invert_term
from mu2forge.printer import print_target_term
from mu2forge.target_typing import PLAIN


@pytest.fixture
def opened(monkeypatch):
    """The terms to_nameful opens, wherever it is called from, except
    the copies that rewrite.uniquify makes of duplicated subterms."""
    real, out = rewrite.to_nameful, []

    def counted(t):
        if sys._getframe(1).f_code is not rewrite.uniquify.__code__:
            out.append(t)
        return real(t)

    for module in (tg, target_typing, rewrite, canonical, inverse):
        monkeypatch.setattr(module, "to_nameful", counted, raising=False)
    return out


def test_canonicalize_and_invert_term_open_their_input_once(opened):
    image, _ = cps_term_typed((), (), church(300))
    form = canonicalize(image, None, PLAIN)
    assert form.kind == PROGRAM
    assert len(opened) == 1 and opened[0] is image  # deep terms: no repr in a message
    opened.clear()
    kind, _ = invert_term(form.term, form.type)
    assert kind == PROGRAM
    assert len(opened) == 1 and opened[0] is form.term


def test_roundtrip_opens_the_form_once(opened):
    """The round trip's walk and its equation share one opening of
    form.term."""
    image, _ = cps_term_typed((), (), church(300))
    form = canonicalize(image, None, PLAIN)
    opened.clear()
    assert inverse.roundtrip(form).equal
    assert len(opened) == 1 and opened[0] is form.term


def test_eq_target_types_each_side_once(opened, monkeypatch, capsys):
    """`eq --target` hands each side's pack-resolving walk, its nameful
    rebuild and its type, on to the decision: one opening and one typing
    walk per side."""
    real, walks = target_typing._synth, []

    def counted(*args):
        walks.append(args[1])
        return real(*args)

    monkeypatch.setattr(target_typing, "_synth", counted)
    image = print_target_term(cps_term_typed((), (), church(300))[0])
    assert main(["eq", "--target", image, image]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "Equal"
    assert len(walks) == 2 and len(opened) == 2
