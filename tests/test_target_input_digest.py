"""What the CLI answers on target input, pinned.

`typecheck --target` and `normalize --target` run, in both modes, on the
printed CPS images of the catalog, Church 0-5 and the generator's seeds
below 60: each image as printed, and again with every pack annotation
stripped, so that the kernel infers each pack's existential.  The exit
code, stdout and stderr of all 568 calls hash to one digest, and no
output shows a fresh atom.
"""

import hashlib
import re

from mu2forge.cli import main
from mu2forge.combinators import catalog, church
from mu2forge.cps import cps_context, cps_term_typed
from mu2forge.printer import print_target_term, print_target_type
from mu2forge.suite_runner import _entry_gamma
from mu2forge.theory import GaveUp, gen_judgement

DIGEST = "a511f5f4f864bea9db4c011756287566d4f4bd13e7f19992d164ebe73d1be6ce"


def _images():
    """(context, printed image) per judgement of the corpus."""
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
        context = ", ".join(f"{x}:{print_target_type(ty)}" for x, ty in cps_context(gamma, delta))
        yield context, print_target_term(image)


def _strip_packs(text: str) -> str:
    """The term with each  <t | M : T>  written  <t | M>.  Only a pack
    prints " : ", and a type holds no angle bracket."""
    return re.sub(" : [^⟩]*⟩", "⟩", text)


def test_target_input_digest(capsys):
    digest = hashlib.sha256()
    calls = stripped = 0
    for context, text in _images():
        for term in (text, _strip_packs(text)):
            stripped += term != text
            for command in ("typecheck", "normalize"):
                for mode in ("plain", "parametric"):
                    argv = [command, "--target", "--mode", mode, "--ctx", context, term]
                    code = main(argv)
                    out, err = capsys.readouterr()
                    assert "%" not in out + err, argv
                    digest.update(repr((argv, code, out, err)).encode())
                    calls += 1
    assert calls == 568 and stripped > 0
    assert digest.hexdigest() == DIGEST
