"""Each locally closed input is opened to the nameful form once: the
passes after `to_nameful` (typing, normalization, the canonical walk)
all run on the nameful form, and only the result is closed.  A command
closes only what it prints, and what the reader closes to resolve its
shadowed names."""

import sys

import pytest

from mu2forge import canonical, inverse, rewrite, target_typing
from mu2forge import target_terms as tg
from mu2forge.canonical import PROGRAM, canonicalize
from mu2forge.cli import main
from mu2forge import mu_terms as tm
from mu2forge import mu_types as mt
from mu2forge.combinators import church
from mu2forge.cps import cps_term_typed
from mu2forge.focality import FocalityCertificate, check_focal
from mu2forge.printer import print_mu_term, print_target_term
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


def test_canonicalize_and_invert_open_their_input_once(opened):
    """canonicalize opens its input once; invert_nameful, handed the
    opened term, opens nothing more."""
    image, _ = cps_term_typed((), (), church(300))
    form = canonicalize(image, None, PLAIN)
    assert form.kind == PROGRAM
    assert len(opened) == 1 and opened[0] is image  # deep terms: no repr in a message
    opened.clear()
    kind, _ = inverse.invert_nameful(tg.to_nameful(form.term), form.type)
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


@pytest.fixture
def closed(monkeypatch):
    """The terms close_binders closes, wherever it is called from, except
    the copies that rewrite.uniquify makes of duplicated subterms."""
    real, out = tg.close_binders, []

    def counted(t, hint=str):
        caller = sys._getframe(1)
        copy = caller.f_code is rewrite.from_nameful.__code__
        if not (copy and caller.f_back.f_code is rewrite.uniquify.__code__):
            out.append(t)
        return real(t, hint)

    for module in (tg, target_typing, rewrite, canonical, inverse):
        monkeypatch.setattr(module, "close_binders", counted, raising=False)
    return out


#: closes and opens per command on the printed CPS image of Church 50
COMMANDS = {
    "typecheck --target": (["typecheck", "--target"], 1, 1),
    "normalize --target": (["normalize", "--target"], 2, 1),
    "uncps": (["uncps"], 1, 1),
    "normalize": (["normalize"], 1, 0),
    "focal-check abort": (["focal-check", "--source", "bot", "--to", "s", "A[s]"], 1, 1),
    "eq --target": (["eq", "--target"], 4, 2),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_closes_only_what_it_prints(opened, closed, capsys, command):
    """The reader's close of target input, and its one opening, stay: the
    reader needs them to resolve shadowed names.  Past them the kernel
    works on the nameful term, and a command closes only the terms it
    prints."""
    argv, closes, opens = COMMANDS[command]
    numeral = church(50)
    if command == "normalize":
        argv = [*argv, print_mu_term(numeral)]
    elif argv[0] != "focal-check":
        image = print_target_term(cps_term_typed((), (), numeral)[0])
        argv = [*argv, image, image] if argv[0] == "eq" else [*argv, image]
    opened.clear()
    closed.clear()
    assert main(argv) == 0, capsys.readouterr().err
    assert (len(closed), len(opened)) == (closes, opens)


def test_check_focal_closes_the_evidence_once(opened, closed):
    """check_focal types its subject with the source typechecker and hands
    the nameful image of f x to the canonical pipeline: the evidence is
    the one term closed, and validating it the one opening."""
    a, b = mt.TVar("a"), mt.TVar("b")
    subject = tm.lam("x", mt.Arrow(a, b), tm.App(tm.Var("x"), tm.Var("N")))
    cert = check_focal(subject, mt.Arrow(a, b), b, (("N", a), ("N2", b)))
    assert isinstance(cert, FocalityCertificate)
    assert len(closed) == 1
    assert len(opened) == 1 and opened[0] is cert.evidence
