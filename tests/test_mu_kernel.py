import pytest

from mu2forge import mu_terms as tm
from mu2forge import mu_types as mt
from mu2forge import target_terms as tg
from mu2forge import target_types as tt
from mu2forge.mu_typing import (
    IllFormedContext,
    TypeMismatch,
    UnboundName,
    UnboundVariable,
    ctx,
    judge,
    typecheck_mu,
)
from mu2forge.theory import BETA_ETA, GaveUp, eq_mu, gen_typed_term

A, B, S1, S2 = mt.TVar("a"), mt.TVar("b"), mt.TVar("s1"), mt.TVar("s2")


def test_axiom_rule():
    assert typecheck_mu(ctx(("x", A)), ctx(), tm.Var("x")) == A


def test_dne_type():
    from mu2forge.combinators import dne

    assert typecheck_mu(ctx(), ctx(), dne(A)) == mt.Arrow(mt.neg(mt.neg(A)), A)


def test_mu_rule():
    term = tm.mu("a", S1, "b", tm.Var("m"))
    got = typecheck_mu(ctx(("m", S2)), ctx(("b", S2)), term)
    assert got == S1
    # naming through the binder itself
    term = tm.mu("a", S1, "a", tm.Var("m"))
    assert typecheck_mu(ctx(("m", S1)), ctx(), term) == S1


def test_typing_errors():
    with pytest.raises(UnboundVariable):
        typecheck_mu(ctx(), ctx(), tm.Var("ghost"))
    with pytest.raises(UnboundName):
        typecheck_mu(ctx(("m", A)), ctx(), tm.mu("a", A, "ghost", tm.Var("m")))
    with pytest.raises(TypeMismatch):
        typecheck_mu(
            ctx(("f", mt.Arrow(A, B)), ("x", B)), ctx(), tm.App(tm.Var("f"), tm.Var("x"))
        )
    with pytest.raises(IllFormedContext):
        typecheck_mu(ctx(("x", A), ("x", B)), ctx(), tm.Var("x"))


def test_alpha_equality_is_structural():
    left = tm.lam("x", A, tm.Var("x"))
    right = tm.lam("veryDifferent", A, tm.Var("veryDifferent"))
    assert left == right
    assert tm.mu("a", A, "a", tm.Var("m")) == tm.mu("b", A, "b", tm.Var("m"))


def test_subst_term_basics():
    n = tm.App(tm.Var("f"), tm.Var("y"))
    assert tm.subst_term(tm.Var("x"), "x", n) == n
    # no capture: the bound y is an index, N's free y stays free
    body = tm.lam("y", A, tm.Var("x"))
    out = tm.subst_term(body, "x", n)
    assert out == tm.Lam("y", A, tm.App(tm.Var("f"), tm.Var("y")))
    assert "y" in tm.fv(out)


def test_subst_type_touches_annotations_only():
    term = tm.tylam("X", tm.Var("x"))
    assert tm.subst_type(term, "Y", A) == term
    annotated = tm.lam("v", mt.TVar("Y"), tm.Var("v"))
    out = tm.subst_type(annotated, "Y", A)
    assert out == tm.lam("v", A, tm.Var("v"))


def test_subst_against_naive_renaming_oracle():
    # independent oracle: print, textually rename the free variable via a
    # fresh intermediate, parse back, and substitute at top level
    from mu2forge.printer import print_mu_term
    from mu2forge.surface import parse_mu_term

    term = tm.lam("y", A, tm.App(tm.Var("x"), tm.Var("y")))
    n = tm.lam("z", B, tm.Var("y0"))
    direct = tm.subst_term(term, "x", n)
    text = print_mu_term(term).replace("x", "(λz:b. y0)")
    assert parse_mu_term(text) == direct


def test_mixed_subst_examples():
    naming = tm.named("a", tm.Var("x"))
    out = tm.mixed_subst(naming, "a", tm.AppArg(tm.Var("n")), b="b")
    assert tm.match_named(out) == (tm.FName("b"), tm.App(tm.Var("x"), tm.Var("n")))
    # vacuous when the name does not occur
    assert tm.mixed_subst(tm.Var("x"), "a", tm.AppArg(tm.Var("n"))) == tm.Var("x")
    assert tm.mixed_subst(naming, "other", tm.Rename("c")) == naming


def test_mixed_subst_nested_matches_brute_force():
    inner = tm.mu("g", mt.TVar("t"), "a", tm.Var("y"))
    body = tm.App(tm.Var("f"), inner)
    tgt, out = tm.mixed_subst_naming(
        tm.FName("a"), body, "a", tm.AppArg(tm.Var("N")), b="b"
    )
    want_inner = tm.mu("g", mt.TVar("t"), "b", tm.App(tm.Var("y"), tm.Var("N")))
    assert tgt == tm.FName("b")
    assert out == tm.App(tm.App(tm.Var("f"), want_inner), tm.Var("N"))

    # brute-force oracle: rewrite every naming node by hand, then apply
    # the top-level naming's own transformation
    def brute(t):
        match t:
            case tm.Mu(h, ann, target, inner_body):
                inner_body = brute(inner_body)
                if target == tm.FName("a"):
                    return tm.Mu(h, ann, tm.FName("b"), tm.App(inner_body, tm.Var("N")))
                return tm.Mu(h, ann, target, inner_body)
            case tm.App(fn, arg):
                return tm.App(brute(fn), brute(arg))
            case _:
                return t

    assert tm.App(brute(body), tm.Var("N")) == out


def test_mixed_subst_rename_mode():
    naming = tm.named("a", tm.Var("x"))
    out = tm.mixed_subst(naming, "a", tm.Rename("c"))
    assert tm.match_named(out) == (tm.FName("c"), tm.Var("x"))


def test_sugar_desugaring():
    named = tm.named("b", tm.Var("m"))
    assert isinstance(named, tm.Mu)
    assert mt.is_bot(named.ann)
    bold = tm.bold_mu("a", A, tm.Var("m"))
    assert bold.target == tm.BName(0)
    assert bold.body == tm.TyApp(tm.Var("m"), A)
    # desugaring is idempotent: the sugar builders emit core nodes only
    assert tm.match_bold_mu(bold) == (A, tm.Var("m"))


def test_bold_mu_of_named_equals_core_mu():
    # mu* a:s. [b] M  =  mu a:s. [b] M  in the beta-eta theory
    m = tm.Var("m")
    lhs = tm.bold_mu("a", A, tm.named("b", m))
    rhs = tm.mu("a", A, "b", m)
    assert eq_mu(lhs, rhs, BETA_ETA, ctx(("m", A)), ctx(("b", A))).equal


def test_type_preservation_of_substitution_generated():
    import random

    from mu2forge.theory import gen_type

    checked = 0
    seed = 5000
    while checked < 1000:
        rng = random.Random(seed)
        sigma_x = gen_type(rng, 2)
        gamma = ctx(("v1", gen_type(rng, 2)), ("v2", sigma_x))
        delta = ctx(("k1", gen_type(rng, 2)))
        try:
            m = gen_typed_term(seed, 5, gamma + (("x", sigma_x),), delta, gen_type(rng, 2))
            n = gen_typed_term(seed + 1, 4, gamma, delta, sigma_x)
        except GaveUp:
            seed += 1
            continue
        before = typecheck_mu(gamma + (("x", sigma_x),), delta, m)
        after = typecheck_mu(gamma, delta, tm.subst_term(m, "x", n))
        assert before == after, f"seed {seed}"
        checked += 1
        seed += 1


def test_judgement_check():
    j = judge(ctx(("x", A)), ctx(), tm.Var("x"))
    assert j.type == A
    assert j.check() == A


# ---------------------------------------------------------------------------
# Pinned traversal results.  Every public open/close/instantiate/substitute/
# free-atom function of both calculi runs at every binder of every catalog
# term, of its type and of its CPS image; the printed results are hashed.
# Binders are opened with fixed atoms on the way down, so no index dangles
# and nothing printed depends on the global fresh-atom counter.

TRAVERSAL_DIGEST = "fa96b6e94392f428a5c7b25a2cda5ec2380f48bfc5a0706fb9b46fdd733b3ffd"


def _atoms(s) -> str:
    return " ".join(sorted(s)) or "-"


def _mu_type_lines(ty, tag, out):
    from mu2forge.printer import print_mu_type as p

    out += [p(ty), _atoms(mt.ftv(ty)), str(mt.locally_closed(ty))]
    for x in sorted(mt.ftv(ty)):
        out.append(p(mt.subst_tvar(ty, x, mt.Arrow(mt.TVar("P"), mt.TVar("P")))))
    match ty:
        case mt.Arrow(dom, cod):
            _mu_type_lines(dom, tag + "0", out)
            _mu_type_lines(cod, tag + "1", out)
        case mt.Forall(hint, body):
            x = f"V{tag}"
            opened = mt.open_tvar(body, x)
            out += [
                str(mt.locally_closed(body)),
                p(mt.inst_tvar(body, mt.Arrow(mt.TVar("P"), mt.TVar("Q")))),
                p(mt.Forall(hint, mt.close_tvar(opened, x))),
                p(mt.close_tvar(opened, x, 2)),
            ]
            _mu_type_lines(opened, tag + "b", out)


def _tg_type_lines(ty, tag, out):
    from mu2forge.printer import print_target_type as p

    out += [p(ty), _atoms(tt.ftv(ty))]
    for x in sorted(tt.ftv(ty)):
        out.append(p(tt.subst_tvar(ty, x, tt.Neg(tt.TgVarT("P")))))
    match ty:
        case tt.Neg(body):
            _tg_type_lines(body, tag + "0", out)
        case tt.Conj(left, right):
            _tg_type_lines(left, tag + "0", out)
            _tg_type_lines(right, tag + "1", out)
        case tt.Exists(hint, body):
            x = f"V{tag}"
            opened = tt.open_tvar(body, x)
            out += [
                p(tt.inst_tvar(body, tt.Conj(tt.TgVarT("P"), tt.R))),
                p(tt.Exists(hint, tt.close_tvar(opened, x))),
                p(tt.close_tvar(opened, x, 1)),
            ]
            _tg_type_lines(opened, tag + "b", out)


def _mu_term_lines(t, tag, out):
    from mu2forge.printer import print_mu_term as p

    out += [p(t), _atoms(tm.fv(t)), _atoms(tm.fn(t)), _atoms(tm.ftv_term(t))]
    out.append(str(tm.locally_closed_term(t)))
    for x in sorted(tm.fv(t)):
        out.append(p(tm.subst_term(t, x, tm.App(tm.Var("q"), tm.Var("q")))))
    for a in sorted(tm.fn(t)):
        out.append(p(tm.rename_name(t, a, "c")))
    for x in sorted(tm.ftv_term(t)):
        out.append(p(tm.subst_type(t, x, mt.Arrow(mt.TVar("P"), mt.TVar("P")))))
    match t:
        case tm.App(fun, arg):
            _mu_term_lines(fun, tag + "0", out)
            _mu_term_lines(arg, tag + "1", out)
        case tm.TyApp(fun, ty):
            _mu_type_lines(ty, tag + "t", out)
            _mu_term_lines(fun, tag + "0", out)
        case tm.Lam(hint, ann, body):
            x = f"v{tag}"
            opened = tm.open_var(body, x)
            out += [
                str(tm.locally_closed_term(body)),
                p(tm.inst_var(body, tm.App(tm.Var("w"), tm.Var("w")))),
                p(tm.Lam(hint, ann, tm.close_var(opened, x))),
                p(tm.close_var(opened, x, 3)),
            ]
            _mu_type_lines(ann, tag + "t", out)
            _mu_term_lines(opened, tag + "b", out)
        case tm.TyLam(hint, body):
            x = f"V{tag}"
            opened = tm.open_tvar_term(body, x)
            out += [
                str(tm.locally_closed_term(body)),
                p(tm.inst_tvar_term(body, mt.Arrow(mt.TVar("P"), mt.TVar("Q")))),
                p(tm.TyLam(hint, tm.close_tvar_term(opened, x))),
            ]
            _mu_term_lines(opened, tag + "b", out)
        case tm.Mu(hint, ann, target, body):
            a = f"n{tag}"
            opened = tm.open_name(body, a)
            out += [
                str(tm.uses_bound_name(body, 0)),
                str(tm.locally_closed_term(body)),
                p(tm.Mu(hint, ann, target, tm.close_name(opened, a))),
            ]
            _mu_type_lines(ann, tag + "t", out)
            _mu_term_lines(opened, tag + "b", out)


def _tg_term_lines(t, tag, out):
    from mu2forge.printer import print_target_term as p

    kids = tg.children(t)
    out += [p(t), _atoms(tg.free_vars(t)), _atoms(tg.free_tvars(t)), str(len(kids))]
    out.append(p(tg.with_children(t, kids[::-1])))
    assert tg.with_children(t, kids) == t
    for x in sorted(tg.free_vars(t)):
        out.append(p(tg.subst_var(t, x, tg.TgApp(tg.TgVar("q"), tg.TgVar("q")))))
    for x in sorted(tg.free_tvars(t)):
        out.append(p(tg.subst_tvar_term(t, x, tt.Neg(tt.TgVarT("P")))))
    match t:
        case tg.TgLam(hint, ann, body):
            x = f"v{tag}"
            opened = tg.open_var(body, x)
            out += [
                p(tg.inst_var(body, tg.TgApp(tg.TgVar("w"), tg.TgVar("w")))),
                p(tg.TgLam(hint, ann, tg.close_var(opened, x))),
                p(tg.close_var(opened, x, 2)),
            ]
            _tg_type_lines(ann, tag + "t", out)
            _tg_term_lines(opened, tag + "b", out)
        case tg.LetPair(hx, hy, scrut, body):
            x, y = f"x{tag}", f"y{tag}"
            opened = tg.open_var(tg.open_var(body, y), x, 1)
            out += [
                p(tg.inst_var(body, tg.TgVar("w"), 1)),
                p(tg.LetPair(hx, hy, scrut, tg.close_var(tg.close_var(opened, y), x, 1))),
            ]
            _tg_term_lines(scrut, tag + "0", out)
            _tg_term_lines(opened, tag + "b", out)
        case tg.LetPack(ht, hx, scrut, body):
            v, x = f"V{tag}", f"x{tag}"
            opened = tg.open_var(tg.open_tvar_term(body, v), x)
            out += [
                p(tg.inst_tvar_term(body, tt.Conj(tt.TgVarT("P"), tt.R))),
                p(tg.open_tvar_term(body, "U", 1)),
                p(tg.inst_tvar_term(body, tt.R, 2)),
                p(tg.LetPack(ht, hx, scrut, tg.close_tvar_term(tg.close_var(opened, x), v))),
                p(tg.close_tvar_term(opened, v, 1)),
            ]
            _tg_term_lines(scrut, tag + "0", out)
            _tg_term_lines(opened, tag + "b", out)
        case tg.Pack(w, payload, ex):
            _tg_type_lines(w, tag + "w", out)
            _tg_type_lines(ex, tag + "e", out)
            _tg_term_lines(payload, tag + "0", out)
        case _:
            for i, kid in enumerate(kids):
                _tg_term_lines(kid, f"{tag}{i}", out)


def test_traversal_results_pinned():
    import hashlib

    from mu2forge.combinators import catalog
    from mu2forge.cps import cps_term_typed, cps_type
    from mu2forge.suite_runner import _entry_gamma

    out: list[str] = []
    for entry in catalog():
        out.append(entry.name)
        _mu_term_lines(entry.term, "", out)
        _mu_type_lines(entry.type, "", out)
        target, _ = cps_term_typed(_entry_gamma(entry), (), entry.term)
        _tg_term_lines(target, "", out)
        _tg_type_lines(cps_type(entry.type), "", out)
    text = "\n".join(out)
    assert "%" not in text
    assert hashlib.sha256(text.encode()).hexdigest() == TRAVERSAL_DIGEST
