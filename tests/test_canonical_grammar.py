"""The Program/Continuation/Answer grammar, clause by clause.

`classify` checks a normal form against the grammar and `invert` reads
each clause back as a λμ2 term or one-hole context.  These tests pin
both walks: a hand-built form for every clause (the let clauses in
Continuation and in Answer position included), whose inverse must
typecheck under `split_context`; one input per error `classify` raises,
with its exact message; and a digest of the kind and the inverse's
s-expression over the catalog, Church 0-11 and pinned generator seeds.
"""

import hashlib
import sys

import pytest

from mu2forge import mu_terms as tm
from mu2forge import mu_types as mt
from mu2forge import target_terms as tg
from mu2forge import target_types as tt
from mu2forge.canonical import (
    ANSWER,
    CONTINUATION,
    PROGRAM,
    CanonicalForm,
    NotCanonical,
    canonicalize,
    classify,
)
from mu2forge.combinators import catalog, church
from mu2forge.cps import cps_context, cps_term_typed
from mu2forge.inverse import MuContext, invert, split_context
from mu2forge.mu_typing import typecheck_mu
from mu2forge.printer import sexpr_mu_term
from mu2forge.suite_runner import _entry_gamma
from mu2forge.target_types import NotInImageType
from mu2forge.target_typing import PARAMETRIC, PLAIN, typecheck_target
from mu2forge.theory import GaveUp, gen_judgement

A, B = mt.TVar("a"), mt.TVar("b")
SA, SB = tt.TgVarT("a"), tt.TgVarT("b")
X = tt.TgVarT("X")
V = K = tg.TgVar  # K names a continuation variable
ALL = tt.exists("X", X)  # (forall X. X)°


def arrow(s1, s2):
    """(s1 -> s2)° from the images of s1 and s2."""
    return tt.Conj(tt.Neg(s1), s2)


# (label, term, type, context, kind, type of the inverse or of the filled
# context).  Contexts are translated: ¬σ° for a variable, σ° for a name.
CLAUSES = [
    ("program variable", V("x"), tt.Neg(SA), (("x", tt.Neg(SA)),), PROGRAM, A),
    ("program abstraction",
     tg.close_binders(tg.TgLam("k", SA, tg.TgApp(V("x"), K("k")))),
     tt.Neg(SA), (("x", tt.Neg(SA)),), PROGRAM, A),
    ("continuation variable", K("k"), SA, (("k", SA),), CONTINUATION, mt.BOT),
    ("continuation pair", tg.Pair(V("p"), K("k")), arrow(SA, SB),
     (("p", tt.Neg(SA)), ("k", SB)), CONTINUATION, mt.BOT),
    ("continuation pack", tg.Pack(SA, K("k"), ALL), ALL, (("k", SA),), CONTINUATION, mt.BOT),
    ("continuation let-pair",
     tg.close_binders(tg.LetPair("x", "k", K("c"), tg.Pair(V("x"), K("k")))),
     arrow(SA, SB), (("c", arrow(SA, SB)),), CONTINUATION, mt.BOT),
    ("continuation let-pack",
     tg.close_binders(tg.LetPack("X", "k", K("c"), tg.Pack(X, K("k"), ALL))),
     ALL, (("c", ALL),), CONTINUATION, mt.BOT),
    ("continuation lets nested",
     tg.close_binders(tg.LetPack("X", "k", K("c"),
                                 tg.LetPair("x", "k1", K("k"), tg.Pack(X, K("k1"), ALL)))),
     ALL, (("c", tt.exists("X", arrow(X, X))),), CONTINUATION, mt.BOT),
    ("answer application", tg.TgApp(V("x"), K("k")), tt.R,
     (("x", tt.Neg(SA)), ("k", SA)), ANSWER, mt.BOT),
    ("answer with an abstraction head",
     tg.close_binders(tg.TgApp(tg.TgLam("k1", SA, tg.TgApp(V("x"), K("k1"))), K("k"))),
     tt.R, (("x", tt.Neg(SA)), ("k", SA)), ANSWER, mt.BOT),
    ("answer let-pair",
     tg.close_binders(tg.LetPair("y", "k", K("c"), tg.TgApp(V("y"), K("k")))),
     tt.R, (("c", arrow(SA, SA)),), ANSWER, mt.BOT),
    ("answer let-pack",
     tg.close_binders(tg.LetPack("X", "k", K("c"),
                                 tg.LetPair("y", "k1", K("k"), tg.TgApp(V("y"), K("k1"))))),
     tt.R, (("c", tt.exists("X", arrow(X, X))),), ANSWER, mt.BOT),
    ("answer let-pair on a pair continuation",
     tg.close_binders(tg.LetPair("y", "k", tg.Pair(V("p"), K("c")), tg.TgApp(V("y"), K("k")))),
     tt.R, (("p", tt.Neg(SA)), ("c", SA)), ANSWER, mt.BOT),
]


@pytest.mark.parametrize("label, term, type_, tctx, kind, expected", CLAUSES,
                         ids=[c[0] for c in CLAUSES])
def test_every_clause_classifies_and_inverts_to_a_typed_term(label, term, type_, tctx, kind, expected):
    assert typecheck_target(tctx, term) == type_
    assert classify(term, type_, PLAIN, tctx) == kind
    out = invert(CanonicalForm(kind, term, type_, PLAIN), tctx)
    gamma, delta = split_context(tctx)
    if kind == CONTINUATION:
        assert isinstance(out, MuContext)
        assert out.hole_type == tt.uncps_type(type_)
        gamma, out = gamma + (("HOLE", out.hole_type),), out(tm.Var("HOLE"))
    assert typecheck_mu(gamma, delta, out) == expected


def test_star_is_a_continuation_only_in_parametric_mode():
    assert classify(tg.STAR, ALL, PARAMETRIC) == CONTINUATION
    with pytest.raises(NotCanonical, match=r"^not a Continuation form: ⋆$"):
        classify(tg.STAR, ALL, PLAIN)


# One input per NotCanonical that classify raises, with its exact message.
NOT_CANONICAL = [
    (tg.close_binders(tg.TgLam("k", SB, tg.TgApp(V("x"), K("k")))), tt.Neg(SA),
     (("x", tt.Neg(SB)),), "program abstraction annotated b, expected a"),
    (tg.close_binders(tg.LetPair("y", "k", K("c"), V("y"))), tt.Neg(SA),
     (("c", arrow(SA, SB)),), "not a Program form: let ⟨y, k⟩ = c in y"),
    (tg.Pair(V("p"), K("k")), SA, (("p", tt.Neg(SA)), ("k", SB)),
     "pair continuation at non-arrow image a"),
    (tg.Pack(SA, K("k"), ALL), SA, (("k", SA),), "pack continuation at a"),
    (tg.Pack(tt.Neg(SA), K("k"), ALL), ALL, (("k", tt.Neg(SA)),),
     "pack witness ¬a is not a translated type"),
    (tg.TgApp(V("x"), K("k")), SA, (("x", tt.Neg(SA)), ("k", SA)),
     "not a Continuation form: x k"),
    (tg.TgApp(V("f"), V("x")), tt.R, (("f", tt.Neg(tt.Neg(SA))), ("x", tt.Neg(SA))),
     "answer head at type ¬¬a"),
    (V("r"), tt.R, (("r", tt.R),), "not an Answer form: r"),
    (tg.close_binders(tg.LetPair("y", "k", K("c"), V("r"))), tt.R,
     (("c", arrow(tt.R, SA)), ("r", tt.R)), "let-pair scrutinee at ¬R ∧ a"),
    (tg.close_binders(tg.LetPack("X", "k", K("c"), V("r"))), tt.R,
     (("c", tt.exists("X", tt.Neg(X))), ("r", tt.R)), "let-pack scrutinee at ∃X. ¬X"),
]
NOT_CANONICAL_IDS = ["lam-annotation", "program-form", "pair-image", "pack-image", "pack-witness",
                     "continuation-form", "answer-head", "answer-form", "let-pair-scrutinee",
                     "let-pack-scrutinee"]


@pytest.mark.parametrize("term, type_, tctx, message", NOT_CANONICAL,
                         ids=NOT_CANONICAL_IDS)
def test_classify_error_messages(term, type_, tctx, message):
    with pytest.raises(NotCanonical) as info:
        classify(term, type_, PLAIN, tctx)
    assert str(info.value) == message


@pytest.mark.parametrize("term, type_, tctx, message", NOT_CANONICAL,
                         ids=NOT_CANONICAL_IDS)
def test_invert_raises_the_classify_messages(term, type_, tctx, message):
    kind = ANSWER if type_ == tt.R else PROGRAM if isinstance(type_, tt.Neg) else CONTINUATION
    with pytest.raises(NotCanonical) as info:
        invert(CanonicalForm(kind, term, type_, PLAIN), tctx)
    assert str(info.value) == message


def test_classify_rejects_an_untranslated_type():
    with pytest.raises(NotInImageType) as info:
        classify(V("x"), tt.Neg(tt.R), PLAIN, (("x", tt.Neg(tt.Neg(tt.R))),))
    assert info.value.args[0] == tt.Neg(tt.R)


def corpus():
    """(label, gamma, delta, source term): the catalog, Church 0-11 and the
    generator seeds below 60 that do not give up."""
    out = [(e.name, _entry_gamma(e), (), e.term) for e in catalog()]
    out += [(f"church {n}", (), (), church(n)) for n in range(12)]
    for seed in range(60):
        try:
            gamma, delta, term, _ = gen_judgement(seed)
        except GaveUp:
            continue
        out.append((f"seed {seed}", gamma, delta, term))
    return out


def shown(form, tctx):
    """The kind and the inverse's s-expression, a context filled with HOLE."""
    out = invert(form, tctx)
    if isinstance(out, MuContext):
        out = out(tm.Var("HOLE"))
    return f"{form.kind}\t{sexpr_mu_term(out)}"


def inverse_lines():
    """Per corpus entry: its kind in both modes and, in plain mode, the
    inverse of its canonical form, of that Program's Answer body, and of
    every let scrutinee and the final argument along that Answer."""
    lines = []
    for label, gamma, delta, term in corpus():
        image, _ = cps_term_typed(gamma, delta, term)
        tctx = cps_context(gamma, delta)
        lines.append(f"{label}\t{PARAMETRIC}\t{canonicalize(image, None, PARAMETRIC, tctx).kind}")
        form = canonicalize(image, None, PLAIN, tctx)
        lines.append(f"{label}\t{PLAIN}\t{shown(form, tctx)}")
        if not isinstance(form.term, tg.TgLam):
            continue
        tctx += (("k0", form.term.ann),)
        t = tg.open_var(form.term.body, "k0")
        lines.append(f"{label}\tanswer\t{shown(CanonicalForm(ANSWER, t, tt.R), tctx)}")
        while isinstance(t, (tg.LetPair, tg.LetPack)):
            sty = typecheck_target(tctx, t.scrut)
            lines.append(f"{label}\tscrutinee\t{shown(CanonicalForm(CONTINUATION, t.scrut, sty), tctx)}")
            x, k = f"x{len(tctx)}", f"k{len(tctx)}"
            if isinstance(t, tg.LetPair):
                tctx += ((x, sty.left), (k, sty.right))
                t = tg.open_var(tg.open_var(t.body, k), x, 1)
            else:
                tctx += ((k, tt.inst_tvar(sty.body, tt.TgVarT(x))),)
                t = tg.open_var(tg.open_tvar_term(t.body, x), k)
        if isinstance(t, tg.TgApp):
            sdeg = typecheck_target(tctx, t.fn).body
            lines.append(f"{label}\targument\t{shown(CanonicalForm(CONTINUATION, t.arg, sdeg), tctx)}")
    return lines


def test_inverse_digest():
    lines = inverse_lines()
    assert len(lines) == 434
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "318046888bc315c69cd677c3ac44a186835a83ebe84ef5fdf6c36f2ea285002f"


def test_church_300_classifies_and_inverts_at_the_default_limit():
    assert sys.getrecursionlimit() == 1000
    form = canonicalize(cps_term_typed((), (), church(300))[0], None, PLAIN)
    assert form.kind == PROGRAM
    assert typecheck_mu((), (), invert(form)) == typecheck_mu((), (), church(300))
