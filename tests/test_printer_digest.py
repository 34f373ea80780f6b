"""Every printer and s-expression writer, pinned byte for byte.

Each printer runs over one named corpus: the catalog terms, their CPS
images and normal forms in both modes, S^n O for n <= 8, Church 64,
pinned generator seeds, the golden free theorems and hand-built naming
edge cases.  The digest of a printer is the sha256 of its output lines,
so a refactor of the printers cannot change a byte unseen.  Reading
each s-expression back must give the same term.
"""

import hashlib

import pytest

from mu2forge import mu_terms as tm
from mu2forge import mu_types as mt
from mu2forge import target_terms as tg
from mu2forge import target_types as tt
from mu2forge.combinators import catalog, church, church_succ, church_zero
from mu2forge.cps import cps_context, cps_term_typed, cps_type
from mu2forge.printer import (
    mu_term_from_sexpr,
    mu_type_from_sexpr,
    parse_sexpr,
    print_mu_term,
    print_mu_type,
    print_target_term,
    print_target_type,
    sexpr,
    sexpr_mu_term,
    sexpr_target_term,
    target_term_from_sexpr,
    target_type_from_sexpr,
)
from mu2forge.relations import (
    ForallTerm,
    IdentityRef,
    RelAtom,
    formula_to_sexpr,
    free_theorem,
    print_formula,
    rename_for_display,
)
from mu2forge.rewrite import normalize
from mu2forge.suite_runner import _entry_gamma, golden_theorem_types
from mu2forge.target_typing import PARAMETRIC, PLAIN
from mu2forge.theory import gen_judgement

GEN_SEEDS = (0, 1, 3, 4, 6, 8, 9, 10, 11, 13, 14, 16, 17, 18, 21, 22, 23, 24, 25, 26,
             27, 28, 30, 31, 32, 33, 34, 36, 38, 39)

A, S = mt.TVar("a"), tt.TgVarT("s")


def succ_power(n):
    t = church_zero()
    for _ in range(n):
        t = tm.App(church_succ(), t)
    return t


def edge_cases():
    """Hand-built naming cases: (label, mu types, mu terms, target types, target terms)."""
    x, bx = tm.Var("x"), tm.BVar
    tx, tb = tg.TgVar("x"), tg.TgBVar
    X = tt.TgVarT("X")
    shadow_ty = mt.forall("X", mt.Arrow(mt.TVar("X"), mt.forall("X", mt.TVar("X"))))
    return [
        ("free x under lam x",
         [], [tm.Lam("x", A, tm.App(bx(0), x))],
         [], [tg.TgLam("x", S, tg.TgApp(tb(0), tx))]),
        ("shadowing",
         [shadow_ty],
         [tm.lam("x", A, tm.lam("x", A, x)),
          tm.tylam("X", tm.lam("y", shadow_ty, tm.tylam("X", tm.Var("y")))),
          tm.mu("a", A, "a", tm.mu("a", A, "a", x))],
         [tt.exists("X", tt.Conj(X, tt.exists("X", tt.Neg(X))))],
         [tg.close_binders(tg.TgLam("x", S, tg.LetPair("x", "x", tx, tg.TgLam("x", S, tx)))),
          tg.close_binders(tg.LetPack("X", "x", tx, tg.LetPack("X", "x", tx,
                                                              tg.TgLam("y", X, tx))))]),
        ("empty and _ hints",
         [mt.Forall("", mt.TBound(0)), mt.Forall("_", mt.TBound(0))],
         [tm.Lam("", A, bx(0)), tm.Lam("_", A, tm.Lam("_", A, bx(1))),
          tm.TyLam("", tm.Lam("", mt.TBound(0), bx(0))),
          tm.Mu("", A, tm.BName(0), x), tm.Mu("_", A, tm.BName(0), x)],
         [tt.Exists("", tt.TgBoundT(0)), tt.Exists("_", tt.Neg(tt.TgBoundT(0)))],
         [tg.TgLam("", S, tb(0)), tg.TgLam("_", S, tg.TgLam("_", S, tb(1))),
          tg.LetPair("", "", tx, tg.TgApp(tb(1), tb(0))),
          tg.LetPair("_", "_", tx, tg.TgApp(tb(1), tb(0))),
          tg.LetPack("", "_", tx, tg.TgLam("", tt.TgBoundT(0), tb(1)))]),
        ("y%1 beside y",
         [],
         [tm.Lam("y%1", A, tm.App(tm.Var("y"), bx(0))),
          tm.Lam("y", A, tm.App(tm.Var("y%1"), bx(0)))],
         [],
         [tg.TgLam("y%1", S, tg.TgApp(tg.TgVar("y"), tb(0))),
          tg.TgLam("y", S, tg.TgApp(tg.TgVar("y%1"), tb(0)))]),
        ("scrutinee mentions the base name",
         [], [tm.Mu("a", A, tm.FName("a"), tm.Mu("a", A, tm.BName(1), x))],
         [],
         [tg.LetPair("x", "y", tx, tg.TgApp(tb(1), tb(0))),
          tg.LetPack("X", "x", tg.TgApp(tx, tg.Pack(X, tx, tt.TOP)),
                     tg.TgLam("k", tt.TgBoundT(0), tb(1)))]),
    ]


def build_corpus():
    """Per kind, the (label, object) pairs every printer of that kind sees."""
    out = {"mu_type": [], "mu_term": [], "tg_type": [], "tg_term": [], "formula": []}

    def source(label, gamma, delta, term, ty, normal_forms=True):
        out["mu_term"].append((label, term))
        for i, (_, s) in enumerate(gamma + delta):
            out["mu_type"].append((f"{label} ctx{i}", s))
            out["tg_type"].append((f"{label} ctx{i}", cps_type(s)))
        out["mu_type"].append((label, ty))
        out["tg_type"].append((label, cps_type(ty)))
        image, _ = cps_term_typed(gamma, delta, term)
        out["tg_term"].append((f"{label} cps", image))
        if normal_forms:
            for mode in (PLAIN, PARAMETRIC):
                form, _ = normalize(image, cps_context(gamma, delta), mode)
                out["tg_term"].append((f"{label} {mode}", form))

    for entry in catalog():
        source(entry.name, _entry_gamma(entry), (), entry.term, entry.type)
    for n in range(9):
        term = succ_power(n)
        source(f"S^{n} O", (), (), term, cps_term_typed((), (), term)[1])
    source("church 64", (), (), church(64), cps_term_typed((), (), church(64))[1], False)
    for seed in GEN_SEEDS:
        gamma, delta, term, ty = gen_judgement(seed)
        source(f"seed {seed}", gamma, delta, term, ty)
    for label, mu_types, mu_terms, tg_types, tg_terms in edge_cases():
        out["mu_type"] += [(label, t) for t in mu_types]
        out["mu_term"] += [(label, t) for t in mu_terms]
        out["tg_type"] += [(label, t) for t in tg_types]
        out["tg_term"] += [(label, t) for t in tg_terms]
    for fname, ty in golden_theorem_types():
        out["formula"].append((fname, free_theorem(ty)))
    y = ForallTerm("y%1", A, ForallTerm("y", A, RelAtom(IdentityRef(A), tm.Var("y%1"), tm.Var("y"))))
    out["formula"].append(("y%1 beside y", y))
    return out


@pytest.fixture(scope="module")
def corpus():
    return build_corpus()


PRINTERS = {
    "print_mu_type": ("mu_type", print_mu_type),
    "print_mu_term": ("mu_term", print_mu_term),
    "print_target_type": ("tg_type", print_target_type),
    "print_target_term": ("tg_term", print_target_term),
    "sexpr_mu_type": ("mu_type", sexpr),
    "sexpr_mu_term": ("mu_term", sexpr_mu_term),
    "sexpr_target_type": ("tg_type", sexpr),
    "sexpr_target_term": ("tg_term", sexpr_target_term),
    "print_formula": ("formula", print_formula),
    "formula_to_sexpr": ("formula", lambda f: formula_to_sexpr(rename_for_display(f))),
}

DIGESTS = {
    "print_mu_type": "184bd09e622f8d091c65a7579d4ae54bf810a917524a05fb48bf525ef5427432",
    "print_mu_term": "92a2b880ab75cf7e778ec628d707e492353a633aa967b28640aad64d5612ed60",
    "print_target_type": "388af62cab3df7904500408b5142ecfbad476dc80d8283f841773f29616d8529",
    "print_target_term": "e70eb3323dc59f89ab0a80f0ad9f794433cbc4f8ee1d3efdbe332b5e6fdbeee5",
    "sexpr_mu_type": "9bd726d1a1f3d0795c0ba9b1fa408ec25a44e52b20b541bc99dfc720edb01b5a",
    "sexpr_mu_term": "3d35d7ef8afacc244e56ff8baa30285933804776c3fece7686928f39b0dd5cf6",
    "sexpr_target_type": "3aa11534ca904409c79fb80ea0682923af511ff42e3afc6b00b642799bbcbf70",
    "sexpr_target_term": "145252f77c007eea4b96f73018ae94295670a18b1296f2b4e6a388883678f845",
    "print_formula": "a5a2cb76bcbf18744bd3574a94564fcbab4296926dd1d9184bf97177ce87708d",
    "formula_to_sexpr": "4adfc6883ef18f29cc3ce1ac5428d4db17f3f28ee65e6a0dc7a6faa88dce7030",
}


@pytest.mark.parametrize("name", PRINTERS)
def test_printer_output_pinned(corpus, name):
    kind, printer = PRINTERS[name]
    text = "\n".join(f"{label}\t{printer(obj)}" for label, obj in corpus[kind])
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]


READERS = {
    "mu_type": (sexpr, mu_type_from_sexpr),
    "mu_term": (sexpr_mu_term, mu_term_from_sexpr),
    "tg_type": (sexpr, target_type_from_sexpr),
    "tg_term": (sexpr_target_term, target_term_from_sexpr),
}


@pytest.mark.parametrize("kind", READERS)
def test_sexpr_reads_back(corpus, kind):
    write, read = READERS[kind]
    for label, obj in corpus[kind]:
        assert read(parse_sexpr(write(obj))) == obj, label


def test_binder_avoids_shown_name_of_renamed_atom():
    """A binder never takes the name a free atom is shown under."""
    term = tg.TgLam("h", tt.TgVarT("s"), tg.TgApp(tg.TgVar("h%1"), tg.TgBVar(0)))
    assert print_target_term(term, {"h%1": "h"}) == "λh1:s. h h1"
