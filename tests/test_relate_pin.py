"""The parametricity formulas of a fixed corpus of types, pinned byte for byte.

The corpus is every catalog type and the types that `gen_type` draws
from seeds 0-239, each closed over its free type variables.  For each
type the digests cover the text and the `--ast` export of its focal
free theorem, and the text of the admissible-relation formula of its
CPS image and of the negated image (the type of a translated term).
The free theorems of the first 120 types, instantiated at the graph of
abort, give equations that the oracle must decide.
"""

import hashlib
import random

import pytest

from mu2forge import mu_types as mt
from mu2forge import target_terms as tg
from mu2forge import target_types as tt
from mu2forge.combinators import abort, catalog
from mu2forge.cps import cps_type
from mu2forge.focality import check_focal
from mu2forge.relations import (
    NotFocal,
    formula_to_sexpr,
    free_theorem,
    instantiate_graph,
    print_formula,
    relate,
    rename_for_display,
)
from mu2forge.theory import LAMBDA_MU_2P, eq_mu, gen_type

SEEDS = range(240)


def closed(ty: mt.MuType) -> mt.MuType:
    for name in sorted(mt.ftv(ty), reverse=True):
        ty = mt.forall(name, ty)
    return ty


def closed_types() -> list[tuple[str, mt.MuType]]:
    """The catalog's types, then the generated ones, each closed."""
    out = [(entry.name, closed(entry.type)) for entry in catalog()]
    out += [(f"seed {s}", closed(gen_type(random.Random(s), 3))) for s in SEEDS]
    return out


def target_formula(ty: tt.TargetType):
    return relate(ty, {}, tg.TgVar("f"), tg.TgVar("g"))


OUTPUTS = {
    "free_theorem": lambda ty: print_formula(free_theorem(ty)),
    "free_theorem_ast": lambda ty: formula_to_sexpr(rename_for_display(free_theorem(ty))),
    "target_formula": lambda ty: print_formula(target_formula(cps_type(ty))),
    "negated_target_formula": lambda ty: print_formula(target_formula(tt.Neg(cps_type(ty)))),
}

DIGESTS = {
    "free_theorem": "265ecc5a3bc875c77074e424855a7c7280b20e66c863dd78d6e5cd32b501704e",
    "free_theorem_ast": "c8d59d61a6d6ce58f53002bc2514e3d45bfea0a3fb0c25a7df114b91bc0caf23",
    "negated_target_formula": "efc75b4e40c472fd40f09d910232d6c085c7084439dfc424cc513f75204da7be",
    "target_formula": "eb3bd1891eb8ca6a60afee5fbd95afeb2c29cf904da356b90e501165a086b099",
}


@pytest.fixture(scope="module")
def corpus():
    return closed_types()


def test_corpus_size(corpus):
    assert len(corpus) == len(catalog()) + len(SEEDS)
    assert all(not mt.ftv(ty) for _, ty in corpus)


@pytest.mark.parametrize("name", OUTPUTS)
def test_formulas_pinned(corpus, name):
    text = "\n".join(f"{label}\t{OUTPUTS[name](ty)}" for label, ty in corpus)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]


def test_graph_instantiation_at_abort_decides(corpus):
    """Every equation decides; none runs out of rewrite steps (in
    parametric mode an η-expanded program at ¬(∃X.X) would loop through
    star and star-eta)."""
    cert = check_focal(abort(mt.TVar("a")), mt.BOT, mt.TVar("a"))
    verdicts = []
    for _, ty in corpus[:120]:
        try:
            equations = instantiate_graph(free_theorem(ty), cert)
        except NotFocal:  # no type quantifier at the head
            continue
        for e in equations:
            verdicts.append((e.conditional, eq_mu(e.left, e.right, LAMBDA_MU_2P, e.gamma).equal))
    assert len(verdicts) == 87
    assert sum(equal for _, equal in verdicts) == 43
    assert sum(conditional for conditional, _ in verdicts) == 41
