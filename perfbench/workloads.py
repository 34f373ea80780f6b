"""The four benchmark workloads and their hand-written expected outcomes.

Each workload is a list of items.  An item is one decision the kernel
makes (an equation, a certificate, a judgement, a CLI invocation) with
the outcome written down here, never computed by the code under test.
A round is one pass over the list; the timed loop repeats rounds.

Functions are imported by name on purpose: the tracer wraps every
namespace that imports a public kernel function, and this module is one
of the consumers it wraps.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from mu2forge import mu_terms as tm
from mu2forge import mu_types as mt
from mu2forge import target_types as tt
from mu2forge.canonical import canonicalize
from mu2forge.combinators import (
    TypeScheme,
    abort,
    catalog,
    church,
    church_succ,
    church_type,
    church_zero,
    compose,
    dne,
    exotic_numeral,
    exotic_numeral_unfolded,
    flat,
    fold_comb,
    functorial_action,
    g_o,
    g_s,
    identity,
    in_comb,
    l_alpha,
    l_eta,
    l_map,
    l_mu,
    l_type,
    mu_fix_type,
    numeral_algebra_type,
    peirce,
    phi,
    sharp,
)
from mu2forge.cps import (
    check_subst_term_in_term,
    check_subst_type_in_term,
    check_subst_type_in_type,
    cps_context,
    cps_term_typed,
    cps_type,
)
from mu2forge.focality import NoCertificate, check_discardable, check_focal, check_repeatable
from mu2forge.inverse import roundtrip
from mu2forge.mu_typing import ctx, typecheck_mu
from mu2forge.printer import print_mu_term, print_mu_type
from mu2forge.relations import free_theorem, instantiate_graph, print_formula
from mu2forge.target_typing import PLAIN, typecheck_target
from mu2forge.theory import (
    BETA_ETA,
    LAMBDA_MU_2P,
    GaveUp,
    additional_axiom_instances,
    core_axiom_instances,
    eq_mu,
    gen_judgement,
    gen_type,
    gen_typed_term,
)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EQUAL, DISTINCT = "Equal", "Distinct"
P, BE = LAMBDA_MU_2P, BETA_ETA
A, B, C = mt.TVar("a"), mt.TVar("b"), mt.TVar("c")


@dataclass(frozen=True)
class Item:
    label: str
    run: Callable[[], object]
    expected: object


def verdict(v) -> str:
    return EQUAL if v.equal else DISTINCT


def equation(label, left, right, theory, expected, gamma=(), delta=()) -> Item:
    return Item(label, lambda: verdict(eq_mu(left, right, theory, gamma, delta)), expected)


# ---------------------------------------------------------------------------
# corpus: generator search plus the translation's soundness checks.
#
# Round r draws fresh generator seeds, so nothing a program might cache
# across calls is reused between rounds.


JUDGEMENTS_PER_ROUND = 60  # each followed by one of the three substitution lemmas
SEEDS_PER_ROUND = 100_000  # disjoint seed ranges for rounds and runs


class Corpus:
    def __init__(self, seed: int):
        self.seed = seed
        self.round0: list[tuple[int, tuple]] = []

    def round(self, r: int) -> list[Item]:
        base = (self.seed * 1000 + r) * SEEDS_PER_ROUND
        if r == 0:
            self.round0 = []
        cursors = {"judgement": base, "term-in-term": base + 30_000, "type-in-term": base + 60_000,
                   "type-in-type": base + 90_000}

        def take(kind: str) -> int:
            s = cursors[kind]
            cursors[kind] = s + 1
            return s

        def judgement_item() -> str:
            while True:
                s = take("judgement")
                try:
                    judgement = gen_judgement(s, budget=6)
                except GaveUp:
                    continue
                break
            gamma, delta, term, ty = judgement
            if r == 0:
                self.round0.append((s, judgement))
            sigma = typecheck_mu(gamma, delta, term)
            target, cps_ty = cps_term_typed(gamma, delta, term)
            got = typecheck_target(cps_context(gamma, delta), target)
            return "sound" if sigma == ty == cps_ty and got == tt.Neg(cps_type(sigma)) else "unsound"

        def type_in_type() -> str:
            rng = random.Random(take("type-in-type"))
            rep = check_subst_type_in_type(gen_type(rng, 3), "a", gen_type(rng, 2))
            return "holds" if rep.holds else "fails"

        def term_in_term() -> str:
            while True:
                s = take("term-in-term")
                rng = random.Random(s)
                sigma_x = gen_type(rng, 2)
                gamma = ctx(("v1", gen_type(rng, 2)), ("v2", mt.Arrow(sigma_x, sigma_x)))
                delta = ctx(("k1", gen_type(rng, 2)))
                try:
                    m = gen_typed_term(s, 5, gamma + (("xsubst", sigma_x),), delta, gen_type(rng, 2))
                    n = gen_typed_term(s + 1, 4, gamma, delta, sigma_x)
                except GaveUp:
                    continue
                rep = check_subst_term_in_term(gamma + (("xsubst", sigma_x),), delta, m, "xsubst", n)
                return "holds" if rep.holds else "fails"

        def type_in_term() -> str:
            while True:
                s = take("type-in-term")
                try:
                    gamma, delta, term, _ = gen_judgement(s, budget=5)
                except GaveUp:
                    continue
                rep = check_subst_type_in_term(gamma, delta, term, "a", gen_type(random.Random(s), 2))
                return "holds" if rep.holds else "fails"

        lemmas = [("type-in-type", type_in_type), ("term-in-term", term_in_term),
                  ("type-in-term", type_in_term)]
        items = []
        for i in range(JUDGEMENTS_PER_ROUND):
            kind, check = lemmas[i % 3]
            items.append(Item("judgement", judgement_item, "sound"))
            items.append(Item(kind, check, "holds"))
        return items

    @staticmethod
    def print_judgement(seed: int, judgement) -> str:
        gamma, delta, term, ty = judgement

        def zone(z):
            return ", ".join(f"{x}:{print_mu_type(s)}" for x, s in z)

        return f"{seed}\t{zone(gamma)}\t{zone(delta)}\t{print_mu_term(term)}\t{print_mu_type(ty)}"

    def fingerprint(self) -> tuple[str, int]:
        """sha256 of the printed round-0 judgements, and how many there are."""
        lines = [self.print_judgement(s, j) for s, j in self.round0]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest(), len(lines)

    def recheck(self, count: int = 20) -> list[str]:
        """Regenerate the first round-0 judgements at a later fresh-name
        state; the printed corpus must not depend on that state."""
        bad = []
        for s, judgement in self.round0[:count]:
            again = gen_judgement(s, budget=6)
            if self.print_judgement(s, again) != self.print_judgement(s, judgement):
                bad.append(f"judgement at generator seed {s} prints differently when regenerated")
        return bad


# ---------------------------------------------------------------------------
# numerals: each item is one long rewrite.  S^n O = n is Equal and
# S^n O = n+1 is Distinct in both theories; odd n ask the first
# question and even n the second, so both verdicts span the sizes.

NUMERAL_TABLE = (
    # n, m, BetaEta, LambdaMu2P
    (1, 1, EQUAL, EQUAL),
    (2, 3, DISTINCT, DISTINCT),
    (3, 3, EQUAL, EQUAL),
    (4, 5, DISTINCT, DISTINCT),
    (5, 5, EQUAL, EQUAL),
    (6, 7, DISTINCT, DISTINCT),
    (7, 7, EQUAL, EQUAL),
    (8, 9, DISTINCT, DISTINCT),
    (9, 9, EQUAL, EQUAL),
    (10, 11, DISTINCT, DISTINCT),
    (11, 11, EQUAL, EQUAL),
    (12, 13, DISTINCT, DISTINCT),
)

# The max_depth_decided ladder: eq_mu(church(n), church(n)) at the
# interpreter's default recursion limit, up to the depth the kernel is
# meant to reach.  It climbs until the first rung that does not decide.
DEPTH_LADDER = (25, 50, 100, 150, 200, 300, 400, 600, 800, 1000)


def succ_tower(n: int) -> tm.MuTerm:
    t = church_zero()
    for _ in range(n):
        t = tm.App(church_succ(), t)
    return t


def numerals_items() -> list[Item]:
    items = []
    for n, m, plain, parametric in NUMERAL_TABLE:
        for theory, expected in ((BE, plain), (P, parametric)):
            items.append(equation(f"S^{n} O = {m} [{theory}]", succ_tower(n), church(m), theory, expected))
    return items


# ---------------------------------------------------------------------------
# gate-mix: the many short checks of acceptance criteria 2, 3 and 5-12.

CORE_AXIOMS = (
    "beta-arrow", "eta-arrow", "beta-forall", "eta-forall", "mu-rename",
    "mu-rename-capture", "mu-eta", "mu-app", "mu-app-nested", "mu-tyapp",
)
ADDITIONAL_AXIOMS = {
    "discard": ("discard-app", "discard-tyapp", "discard-name"),
    "falsity": ("falsity-app", "falsity-tyapp", "falsity-name"),
    "structural": ("structural-app", "structural-tyapp", "structural-rename"),
}

# Free variables of the catalog entries, by entry name; every round trip
# is expected Equal.
CATALOG_GAMMA = {
    "L-map": ctx(("f0", mt.Arrow(A, B))),
    "sharp": ctx(("f0", mt.Arrow(A, B))),
    "flat": ctx(("f0", mt.Arrow(mt.neg(mt.neg(mt.neg(mt.neg(A)))), B))),
    "phi": ctx(("n0", A), ("f1", mt.Arrow(A, A))),
    "g_o": ctx(("g0", mt.Arrow(numeral_algebra_type(A), A))),
    "g_s": ctx(("g0", mt.Arrow(numeral_algebra_type(A), A))),
    "fold_N": ctx(("g0", mt.Arrow(numeral_algebra_type(A), A))),
}
CATALOG_ROUNDTRIPS = (
    "C", "Peirce", "Abort", "identity", "L-eta", "L-mu", "L-map", "L-alpha",
    "sharp", "flat", "in", "fold", "in-sharp", "in-const", "in-id", "O", "S",
    "church-2", "phi", "g_o", "g_s", "fold_N", "exotic-numeral",
)

# Free-theorem goldens, byte-identical copies of the repository's goldens.
GOLDEN_THEOREMS = (
    ("ft-falsity.txt", lambda: mt.BOT),
    ("ft-top.txt", lambda: mt.forall("X", mt.Arrow(mt.TVar("X"), mt.TVar("X")))),
    ("ft-nat.txt", church_type),
    ("ft-lmono.txt", lambda: mt.forall(
        "X", mt.Arrow(mt.Arrow(mt.Arrow(mt.BOT, mt.BOT), mt.TVar("X")), mt.TVar("X")))),
)


def _axiom_items() -> list[Item]:
    items = []
    core = {inst.name: inst for inst in core_axiom_instances()}
    for name in CORE_AXIOMS:
        inst = core[name]
        for theory in (BE, P):
            items.append(equation(f"core {name} [{theory}]", inst.left, inst.right, theory,
                                  EQUAL, inst.gamma, inst.delta))
    additional = additional_axiom_instances()
    for presentation, names in ADDITIONAL_AXIOMS.items():
        by_name = {inst.name: inst for inst in additional[presentation]}
        for name in names:
            inst = by_name[name]
            for theory, expected in ((P, EQUAL), (BE, DISTINCT)):
                items.append(equation(f"additional {name} [{theory}]", inst.left, inst.right,
                                      theory, expected, inst.gamma, inst.delta))
    return items


def _named_term_items() -> list[Item]:
    bb, arr = mt.Arrow(mt.BOT, mt.BOT), mt.Arrow(A, B)
    p, h, n, w, q = (tm.Var(v) for v in ("p", "h", "n", "w", "q"))

    def used(name, inner):
        return tm.App(p, tm.named(name, inner))

    fa = mt.forall("X", mt.Arrow(B, mt.TVar("X")))
    m1, m2, m3 = used("a'", h), used("a'", w), used("a'", q)
    return [
        equation("named: application", tm.App(tm.bold_mu("a'", arr, m1), n),
                 tm.bold_mu("b'", B, tm.mixed_subst(m1, "a'", tm.AppArg(n), b="b'")),
                 P, EQUAL, ctx(("p", bb), ("h", arr), ("n", A))),
        equation("named: type application", tm.TyApp(tm.bold_mu("a'", fa, m2), A),
                 tm.bold_mu("b'", mt.Arrow(B, A), tm.mixed_subst(m2, "a'", tm.TyArg(A), b="b'")),
                 P, EQUAL, ctx(("p", bb), ("w", fa))),
        equation("named: renaming", tm.named("d2", tm.bold_mu("a'", A, m3)),
                 tm.rename_name(m3, "a'", "d2"), P, EQUAL, ctx(("p", bb), ("q", A)), ctx(("d2", A))),
        equation("named: falsity naming", tm.named("al", tm.Var("m0")), tm.Var("m0"), P, EQUAL,
                 ctx(("m0", mt.BOT)), ctx(("al", mt.BOT))),
        equation("DNE computes", tm.App(dne(A), tm.lam("k", mt.neg(A), tm.App(tm.Var("k"), tm.Var("M")))),
                 tm.Var("M"), P, EQUAL, ctx(("M", A))),
    ]


def certified(f, s1, s2, gamma=()) -> str:
    return "refused" if isinstance(check_focal(f, s1, s2, gamma), NoCertificate) else "certified"


def _focal_decomposition_items() -> list[Item]:
    items = []
    n_type = church_type()
    for name, g, s1, s2, gamma in (
        ("g free", tm.Var("g"), A, B, ctx(("g", mt.Arrow(A, B)))),
        ("identity", identity(A), A, A, ctx()),
        ("abort", abort(A), mt.BOT, A, ctx()),
        ("succ", church_succ(), n_type, n_type, ctx()),
        ("compose", compose(tm.Var("g2"), tm.Var("g1"), A), A, C,
         ctx(("g1", mt.Arrow(A, B)), ("g2", mt.Arrow(B, C)))),
    ):
        items.append(equation(f"flat(sharp g) = g: {name}", flat(sharp(g, s1, s2), s1), g, P, EQUAL, gamma))
    nna = mt.neg(mt.neg(A))
    inst = tm.lam("x", nna, tm.App(tm.Var("x"), tm.Var("N")))
    for name, f, s1, s2, gamma in (
        ("identity", identity(nna), A, nna, ctx()),
        ("inst", inst, A, mt.BOT, ctx(("N", mt.neg(A)))),
        ("abort-composite", compose(abort(B), inst, nna), A, B, ctx(("N", mt.neg(A)))),
    ):
        items.append(Item(f"focal {name}", lambda f=f, s1=s1, s2=s2, gamma=gamma:
                          certified(f, mt.neg(mt.neg(s1)), s2, gamma), "certified"))
        items.append(equation(f"sharp(flat f) = f: {name}", sharp(flat(f, s1), s1, s2), f, P, EQUAL, gamma))
    return items


def _initiality_and_church_items() -> list[Item]:
    items = []
    s0 = mt.TVar("s0")
    for name, scheme in (
        ("identity scheme", TypeScheme("X", mt.TVar("X"))),
        ("constant scheme", TypeScheme("X", s0)),
        ("arrow scheme", TypeScheme("X", mt.Arrow(s0, mt.TVar("X")))),
    ):
        fix = mu_fix_type(scheme)
        alg = tm.Var("alg")
        fold_b = tm.App(fold_comb(scheme, B), alg)
        lhs = compose(fold_b, in_comb(scheme), scheme.apply(fix))
        rhs = compose(alg, functorial_action(scheme, fold_b, fix, B), scheme.apply(fix))
        items.append(equation(f"weak initiality: {name}", lhs, rhs, BE, EQUAL,
                              ctx(("alg", mt.Arrow(scheme.apply(B), B)))))
    a0, f0 = tm.Var("a0"), tm.Var("f0")
    gamma = ctx(("a0", A), ("f0", mt.Arrow(A, A)))
    ph = phi(a0, f0, A)
    items.append(equation("(phi)_o = a", g_o(ph, A), a0, P, EQUAL, gamma))
    items.append(equation("(phi)_s = f", g_s(ph, A), f0, P, EQUAL, gamma))
    ex = exotic_numeral()
    for n in range(4):
        items.append(equation(f"exotic = {n}", ex, church(n), P, DISTINCT))
    items.append(equation("exotic = its unfolding", ex, exotic_numeral_unfolded(), P, EQUAL))
    items.append(equation("S O = 1", tm.App(church_succ(), church_zero()), church(1), BE, EQUAL))
    return items


def _l_monad_items() -> list[Item]:
    """The monad and algebra laws of L at sigma = L^k a, k = 0..3."""
    items = []
    sigma = A
    for k in range(4):
        lt1 = l_type(sigma)
        lt2, lt3 = l_type(lt1), l_type(l_type(lt1))
        eta_s, mu_s, alpha_s = l_eta(sigma), l_mu(sigma), l_alpha(sigma)
        laws = (
            ("mu . L eta = id", compose(mu_s, l_map(eta_s, sigma, lt1), lt1), identity(lt1)),
            ("mu . eta_L = id", compose(mu_s, l_eta(lt1), lt1), identity(lt1)),
            ("mu . L mu = mu . mu_L", compose(mu_s, l_map(mu_s, lt2, lt1), lt3), compose(mu_s, l_mu(lt1), lt3)),
            ("alpha . eta = id", compose(alpha_s, eta_s, sigma), identity(sigma)),
            ("alpha . L alpha = alpha . mu", compose(alpha_s, l_map(alpha_s, lt1, sigma), lt2),
             compose(alpha_s, mu_s, lt2)),
        )
        for name, lhs, rhs in laws:
            items.append(equation(f"L^{k}: {name}", lhs, rhs, P, EQUAL))
        sigma = lt1
    return items


def _roundtrip(entry) -> str:
    gamma = CATALOG_GAMMA.get(entry.name, ())
    tctx = cps_context(gamma, ())
    target, _ = cps_term_typed(gamma, (), entry.term)
    form = canonicalize(target, None, PLAIN, tctx)
    return verdict(roundtrip(form, tctx))


def _catalog_items() -> list[Item]:
    entries = {entry.name: entry for entry in catalog()}
    return [Item(f"round trip {name}", lambda e=entries[name]: _roundtrip(e), EQUAL)
            for name in CATALOG_ROUNDTRIPS]


def _focality_subjects():
    """The four certified families and their sixteen composites, each as
    (name, subject, source, target)."""
    fa_c = mt.forall("X", mt.Arrow(mt.TVar("X"), C))
    fa_bot = mt.forall("X", mt.TVar("X"))
    fa_ab = mt.forall("X", mt.Arrow(A, B))
    fa_fa = mt.forall("X", mt.forall("Y", C))
    arr = mt.Arrow(A, B)

    def inst_n(dom, cod, nvar="N"):
        return tm.lam("x", mt.Arrow(dom, cod), tm.App(tm.Var("x"), tm.Var(nvar)))

    def inst_t(scheme, at):
        return tm.lam("x", scheme, tm.TyApp(tm.Var("x"), at))

    out = [
        ("identity", identity(A), A, A),
        ("abort", abort(A), mt.BOT, A),
        ("inst-term", inst_n(A, B), arr, B),
        ("inst-type", inst_t(fa_c, A), fa_c, mt.Arrow(A, C)),
    ]
    pairs = (
        ("id;id", identity(A), A, identity(A), A),
        ("id;abort", identity(mt.BOT), mt.BOT, abort(A), A),
        ("id;inst-term", identity(arr), arr, inst_n(A, B), B),
        ("id;inst-type", identity(fa_c), fa_c, inst_t(fa_c, A), mt.Arrow(A, C)),
        ("abort;id", abort(A), mt.BOT, identity(A), A),
        ("abort;abort", abort(mt.BOT), mt.BOT, abort(A), A),
        ("abort;inst-term", abort(arr), mt.BOT, inst_n(A, B), B),
        ("abort;inst-type", abort(fa_c), mt.BOT, inst_t(fa_c, A), mt.Arrow(A, C)),
        ("inst-term;id", inst_n(A, B), arr, identity(B), B),
        ("inst-term;abort", inst_n(A, mt.BOT), mt.Arrow(A, mt.BOT), abort(C), C),
        ("inst-term;inst-term", inst_n(A, mt.Arrow(B, C)), mt.Arrow(A, mt.Arrow(B, C)),
         inst_n(B, C, "N2"), C),
        ("inst-term;inst-type", inst_n(A, fa_c), mt.Arrow(A, fa_c), inst_t(fa_c, A), mt.Arrow(A, C)),
        ("inst-type;id", inst_t(fa_c, A), fa_c, identity(mt.Arrow(A, C)), mt.Arrow(A, C)),
        ("inst-type;abort", inst_t(fa_bot, A), fa_bot, tm.lam("x", A, tm.Var("x")), A),
        ("inst-type;inst-term", inst_t(fa_ab, C), fa_ab, inst_n(A, B), B),
        ("inst-type;inst-type", inst_t(fa_fa, A), fa_fa, inst_t(mt.forall("Y", C), B), C),
    )
    for name, f, s1, g, s3 in pairs:
        out.append((name, compose(g, f, s1), s1, s3))
    return out


def _focality_items() -> list[Item]:
    items = []
    gamma = ctx(("N", A), ("N2", B))
    for name, f, s1, s2 in _focality_subjects():
        items.append(Item(f"focal {name}", lambda f=f, s1=s1, s2=s2: certified(f, s1, s2, gamma), "certified"))
        items.append(Item(f"discardable {name}", lambda f=f, s1=s1, s2=s2:
                          verdict(check_discardable(f, s1, s2, P, gamma)), EQUAL))
        items.append(Item(f"repeatable {name}", lambda f=f, s1=s1, s2=s2:
                          verdict(check_repeatable(f, s1, s2, None, P, gamma)), EQUAL))
    items.append(Item("Peirce refused", lambda: certified(peirce(A, B), mt.Arrow(mt.Arrow(A, B), A), A),
                      "refused"))
    return items


def _abort_discharge() -> str:
    cert = check_focal(abort(A), mt.BOT, A)
    if isinstance(cert, NoCertificate):
        return "no certificate"
    for eq in instantiate_graph(free_theorem(mt.BOT), cert):
        shaped = isinstance(eq.left, tm.App) and isinstance(eq.right, tm.TyApp) and eq.right.ty == A
        if not eq.conditional and shaped and eq_mu(eq.left, eq.right, P, eq.gamma).equal:
            return "discharged"
    return "open"


def _free_theorem_items() -> list[Item]:
    items = []
    for fname, make_type in GOLDEN_THEOREMS:
        want = (HERE / "golden" / fname).read_text(encoding="utf-8")
        ty = make_type()
        items.append(Item(f"golden {fname}", lambda ty=ty: print_formula(free_theorem(ty)) + "\n", want))
    items.append(Item("graph instantiation at abort", _abort_discharge, "discharged"))
    x = tm.Var("x")
    items.append(equation("x [bot] = x", tm.TyApp(x, mt.BOT), x, P, EQUAL, ctx(("x", mt.BOT))))
    return items


def gate_mix_items() -> list[Item]:
    return (_axiom_items() + _named_term_items() + _focal_decomposition_items()
            + _initiality_and_church_items() + _l_monad_items() + _catalog_items()
            + _focality_items() + _free_theorem_items())


# ---------------------------------------------------------------------------
# cli: one fresh interpreter per invocation.  Expected stdout is written
# out, or pinned as sha256 where it is long.

CLI_NUMERAL = 64


def numeral_text(n: int) -> str:
    return "ΛX. λx:X. λf:X → X. " + "f (" * n + "x" + ")" * n


def sha(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


CLI_TABLE = (
    # label, argv, exit code, stdout (or its sha256)
    ("typecheck", ["typecheck", r"\x:s. x"], 0, "s → s\n"),
    ("cps", ["cps", r"\x:s. x"], 0, "λz:¬s ∧ s. let ⟨x, k⟩ = z in x k\n"),
    ("normalize parametric", ["normalize", "--mode", "parametric", "--ctx", "m:bot", "mu* a:s. m", "--trace"],
     0, "λa:s. m ⋆\n"),
    ("uncps", ["uncps", "--ctx", "x:s -> s", "x"], 0, "x\n"),
    ("eq DNE", ["eq", "--theory", "p", "--ctx", "M:s", r"C[s] (\k:not s. k M)", "M"], 0, "Equal\nM\n"),
    ("focal-check abort", ["focal-check", "--source", "bot", "--to", "s", "A[s]"], 0,
     '{\n  "subject": "(ΛX. λx:⊥. x [X]) [s]",\n  "source": "⊥",\n  "target": "s",\n  "hole": "k",\n'
     '  "transformer": "⟨s | k : ∃X. X⟩",\n  "evidence": "λk:s. x ⟨s | k : ∃X. X⟩",\n  "trace": [\n'
     '    "beta-fun 0",\n    "beta-fun 0",\n    "beta-pack 0",\n    "beta-fun 0",\n    "beta-pair 0",\n'
     '    "beta-fun 0"\n  ]\n}\n'),
    ("free-theorem", ["free-theorem", "forall X. X"], 0,
     "∀m : ⊥. ∀X. ∀X'. ∀r : X ↔ X' (focal). r(m [X], m [X'])\n"),
    ("catalog --oracle", ["catalog", "--oracle"], 0,
     "sha256:61ab5767d0d0bc2daa0178b4c84d914c429a8a8514100590e8ab6488adf45739"),
    ("typecheck numeral", ["typecheck", numeral_text(CLI_NUMERAL)], 0, "∀X. X → (X → X) → X\n"),
    ("cps numeral", ["cps", numeral_text(CLI_NUMERAL)], 0,
     "sha256:dcee9698f5fc052d7ab5e7559658df95d1bf6312f619ee35b81ee64b113cfcee"),
    ("normalize --trace", ["normalize", "--trace", "S (S O)"], 0,
     "λk:∃X. ¬X ∧ ¬(¬X ∧ X) ∧ X. let ⟨X, k1⟩ = k in let ⟨x, k2⟩ = k1 in let ⟨f, k3⟩ = k2 in "
     "f ⟨λk4:X. f ⟨x, k4⟩, k3⟩\n"),
    ("eq Equal", ["eq", "--theory", "beta-eta", "S (S (S O))", numeral_text(3)], 0,
     "Equal\nλk:∃X. ¬X ∧ ¬(¬X ∧ X) ∧ X. let ⟨X, k1⟩ = k in let ⟨x, k2⟩ = k1 in let ⟨f, k3⟩ = k2 in "
     "f ⟨λk4:X. f ⟨λk5:X. f ⟨x, k5⟩, k4⟩, k3⟩\n"),
    ("eq Distinct", ["eq", "--theory", "beta-eta", "S (S O)", numeral_text(3)], 1,
     "Distinct\nλk:∃X. ¬X ∧ ¬(¬X ∧ X) ∧ X. let ⟨X, k1⟩ = k in let ⟨x, k2⟩ = k1 in let ⟨f, k3⟩ = k2 in "
     "f ⟨λk4:X. f ⟨x, k4⟩, k3⟩\n"
     "λz:∃X. ¬X ∧ ¬(¬X ∧ X) ∧ X. let ⟨X, k⟩ = z in let ⟨x, k1⟩ = k in let ⟨f, k2⟩ = k1 in "
     "f ⟨λk3:X. f ⟨λk4:X. f ⟨x, k4⟩, k3⟩, k2⟩\n"),
    ("eq Distinct variables", ["eq", "--theory", "beta-eta", "--ctx", "x:s, y:s", "x", "y"], 1,
     "Distinct\nx\ny\n"),
    ("input error", ["typecheck", r"\x:s."], 2, ""),
)


class CliRunner:
    """Runs `python -m mu2forge.cli` in a fresh interpreter and keeps the
    largest resident set of any invocation."""

    def __init__(self, src: Path):
        self.env = {**os.environ, "PYTHONPATH": str(src), "PYTHONIOENCODING": "utf-8"}
        self.peak_rss_kb = 0

    def __call__(self, argv: list[str]) -> tuple[int, str]:
        proc = subprocess.Popen([sys.executable, "-m", "mu2forge.cli", *argv], env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, out.decode("utf-8")


def cli_items(run_cli: Callable[[list[str]], tuple[int, str]]) -> list[Item]:
    return [Item(label, lambda argv=argv, out=out: _cli_outcome(run_cli(argv), out), (code, out))
            for label, argv, code, out in CLI_TABLE]


def _cli_outcome(result: tuple[int, str], expected_out: str) -> tuple[int, str]:
    code, out = result
    return (code, sha(out)) if expected_out.startswith("sha256:") else (code, out)


# ---------------------------------------------------------------------------


class Fixed:
    """A workload whose every round is the same seed-shuffled item list."""

    def __init__(self, items: list[Item], seed: int):
        random.Random(seed).shuffle(items)
        self.items = items

    def round(self, r: int) -> list[Item]:
        return self.items


def build(name: str, seed: int, run_cli: Callable[[list[str]], tuple[int, str]] | None = None):
    if name == "corpus":
        return Corpus(seed)
    if name == "numerals":
        return Fixed(numerals_items(), seed)
    if name == "gate-mix":
        return Fixed(gate_mix_items(), seed)
    if name == "cli":
        return Fixed(cli_items(run_cli or CliRunner(SRC)), seed)
    raise ValueError(f"unknown workload {name!r}")
