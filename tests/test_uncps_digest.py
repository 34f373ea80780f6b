"""What `uncps` answers on the printed CPS images, pinned.

`uncps` and `uncps --ast` run on the printed CPS images of the catalog,
Church 0-5 and the generator's seeds below 60, with each image's source
contexts passed as `--ctx` and `--names`: each image as printed, and
again with every pack annotation stripped, so that the kernel infers
each pack's existential before it inverts the term.  The exit code,
stdout and stderr of every call hash to one digest, and no output shows
a fresh atom.
"""

import hashlib

from mu2forge.cli import main
from mu2forge.combinators import catalog, church
from mu2forge.cps import cps_term_typed
from mu2forge.printer import print_mu_type, print_target_term
from mu2forge.suite_runner import _entry_gamma
from mu2forge.theory import GaveUp, gen_judgement

from test_target_input_digest import _strip_packs

DIGEST = "551c65a151180efb26fd52bf4abe36cd6506b9f2b1170fbdbaabd2001c3c487d"


def _bindings(context) -> str:
    return ", ".join(f"{x}:{print_mu_type(ty)}" for x, ty in context)


def _images():
    """(gamma, delta, printed image) per judgement of the corpus."""
    judgements = [(_entry_gamma(entry), (), entry.term) for entry in catalog()]
    judgements += [((), (), church(n)) for n in range(6)]
    for seed in range(60):
        try:
            gamma, delta, term, _ = gen_judgement(seed)
        except GaveUp:
            continue
        judgements.append((gamma, delta, term))
    for gamma, delta, term in judgements:
        image, _ = cps_term_typed(gamma, delta, term)
        yield _bindings(gamma), _bindings(delta), print_target_term(image)


def test_uncps_digest(capsys):
    digest = hashlib.sha256()
    calls = stripped = 0
    for gamma, delta, text in _images():
        for term in (text, _strip_packs(text)):
            stripped += term != text
            for ast in ([], ["--ast"]):
                argv = ["uncps", *ast, "--ctx", gamma, "--names", delta, term]
                code = main(argv)
                out, err = capsys.readouterr()
                assert "%" not in out + err, argv
                digest.update(repr((argv, code, out, err)).encode())
                calls += 1
    assert calls == 284 and stripped > 0
    assert digest.hexdigest() == DIGEST
