"""Call-by-name CPS translation into the target calculus.

Types:   X deg = X,  (s1 -> s2) deg = not s1deg /\\ s2deg,
         (forall X. s) deg = exists X. sdeg.
Terms:   a subject M : sigma translates to [[M]] : not sigmadeg, with
         free term variables x : sigma becoming x : not sigmadeg and
         names a : sigma becoming target variables a : sigmadeg.
"""

from __future__ import annotations

from . import mu_types as mt
from . import mu_terms as tm
from . import target_types as tt
from . import target_terms as tg
from .mu_typing import (
    Context,
    MuJudgement,
    MuTypeError,
    UnboundName,
    UnboundVariable,
    check_contexts,
    lookup,
)
from .printer import print_mu_type as show
from .record import record
from .syntax import TVAR
from .target_typing import TgContext, typecheck_target


class IllTyped(MuTypeError):
    pass


class SoundnessViolation(Exception):
    """Bug sentinel: the translation of a derivable judgement failed to check."""


def cps_type(ty: mt.MuType) -> tt.TargetType:
    match ty:
        case mt.TVar(n):
            return tt.TgVarT(n)
        case mt.TBound(k):
            return tt.TgBoundT(k)
        case mt.Arrow(dom, cod):
            return tt.Conj(tt.Neg(cps_type(dom)), cps_type(cod))
        case mt.Forall(hint, body):
            return tt.Exists(hint, cps_type(body))
    raise TypeError(ty)


def cps_context(gamma: Context, delta: Context) -> TgContext:
    """The translated context: variables at not sigmadeg, names at sigmadeg."""
    out = tuple((x, tt.Neg(cps_type(s))) for x, s in gamma)
    out += tuple((a, cps_type(s)) for a, s in delta)
    return out


def cps_term(judgement: MuJudgement) -> tg.TargetTerm:
    term, _ = _translate(judgement.gamma, judgement.delta, judgement.subject)
    return term


def cps_term_typed(gamma: Context, delta: Context, subject: tm.MuTerm) -> tuple[tg.TargetTerm, mt.MuType]:
    return _translate(gamma, delta, subject)


def _translate(gamma: Context, delta: Context, term: tm.MuTerm) -> tuple[tg.TargetTerm, mt.MuType]:
    check_contexts(gamma, delta)
    image, ty = _image(gamma, delta, term)
    return tg.close_binders(image), ty


def _image(gamma: Context, delta: Context, term: tm.MuTerm) -> tuple[tg.TargetTerm, mt.MuType]:
    """The nameful image of term (see target_terms.close_binders), its
    type, in one pass over an explicit stack that checks each node in
    the order a recursive reading checks it.  As in mu_typing._synth, no
    binder is opened: the enclosing binders' atoms and types sit on
    stacks, and an annotation is opened when read."""
    variables: list[tuple[str, mt.MuType]] = []  # per enclosing Lam: its atom and annotation
    tvar_atoms: list[str] = []  # per enclosing TyLam: its atom
    names: list[tuple[str, mt.MuType]] = []  # per enclosing Mu: its atom and annotation
    read = lambda ty: mt.SYNTAX.open_all(TVAR, ty, tvar_atoms)
    out: list[tuple[tg.TargetTerm, mt.MuType]] = []  # (image, type) of the finished subterms
    todo: list = [term]  # terms to translate, and (node, step) to go on with
    while todo:
        term = todo.pop()
        cls = term.__class__
        if cls is tuple:
            term, step = term
            cls = term.__class__
            tb, body_ty = out.pop()
            if cls is tm.App:
                if step is None:  # the function is done: its argument
                    if not isinstance(body_ty, mt.Arrow):
                        raise IllTyped(f"application of non-arrow type {show(body_ty)}")
                    todo.append((term, (tb, body_ty)))
                    todo.append(term.arg)
                    continue
                ta, arg_ty = tb, body_ty
                tf, fun_ty = step
                if arg_ty != fun_ty.dom:
                    raise IllTyped(f"argument type {show(arg_ty)} != domain {show(fun_ty.dom)}")
                k = tm.fresh("k")
                out.append((tg.TgLam(k, cps_type(fun_ty.cod), tg.TgApp(tf, tg.Pair(ta, tg.TgVar(k)))), fun_ty.cod))
            elif cls is tm.Lam:
                x, ann = variables.pop()
                fun_ty = mt.Arrow(ann, body_ty)
                z, k = tm.fresh("z"), tm.fresh("k")
                image = tg.TgLam(z, cps_type(fun_ty), tg.LetPair(x, k, tg.TgVar(z), tg.TgApp(tb, tg.TgVar(k))))
                out.append((image, fun_ty))
            elif cls is tm.TyLam:
                xv = tvar_atoms.pop()
                all_ty = mt.Forall(term.hint or "X", mt.close_tvar(body_ty, xv))
                z, k = tm.fresh("z"), tm.fresh("k")
                image = tg.TgLam(z, cps_type(all_ty), tg.LetPack(xv, k, tg.TgVar(z), tg.TgApp(tb, tg.TgVar(k))))
                out.append((image, all_ty))
            elif cls is tm.TyApp:
                if not isinstance(body_ty, mt.Forall):
                    raise IllTyped(f"type application of non-forall type {show(body_ty)}")
                arg = read(term.ty)
                inst = mt.inst_tvar(body_ty.body, arg)
                k = tm.fresh("k")
                pack = tg.Pack(cps_type(arg), tg.TgVar(k), cps_type(body_ty))
                out.append((tg.TgLam(k, cps_type(inst), tg.TgApp(tb, pack)), inst))
            else:  # Mu
                a, ann = names.pop()
                tname, named_ty = step
                if body_ty != named_ty:
                    raise IllTyped(
                        f"named term has type {show(body_ty)} but name {tname} expects {show(named_ty)}"
                    )
                out.append((tg.TgLam(a, cps_type(ann), tg.TgApp(tb, tg.TgVar(tname))), ann))
        elif cls is tm.Var:
            ty = lookup(gamma, term.name)
            if ty is None:
                raise UnboundVariable(term.name)
            out.append((tg.TgVar(term.name), ty))
        elif cls is tm.BVar and term.index < len(variables):
            x, ty = variables[-1 - term.index]
            out.append((tg.TgVar(x), ty))
        elif cls is tm.App or cls is tm.TyApp:
            todo.append((term, None))
            todo.append(term.fn)
        elif cls is tm.Lam:
            variables.append((tm.fresh(term.hint or "x"), read(term.ann)))
            todo.append((term, None))
            todo.append(term.body)
        elif cls is tm.TyLam:
            tvar_atoms.append(tm.fresh(term.hint or "X"))
            todo.append((term, None))
            todo.append(term.body)
        elif cls is tm.Mu:
            a, ann = tm.fresh(term.hint or "a"), read(term.ann)
            target = term.target
            if target == tm.BName(0):
                tname, named_ty = a, ann
            elif isinstance(target, tm.FName):
                tname = target.name
                named_ty = lookup(delta, tname)
            elif target.index <= len(names):
                tname, named_ty = names[-target.index]
            else:
                raise IllTyped(f"dangling bound name {target.index}")
            if named_ty is None:
                raise UnboundName(tname)
            names.append((a, ann))
            todo.append((term, (tname, named_ty)))
            todo.append(term.body)
        else:
            raise TypeError(term)
    return out[0]


@record
class SoundnessReport:
    judgement: MuJudgement
    source_type: mt.MuType
    target_term: tg.TargetTerm
    target_type: tt.TargetType


def check_type_soundness(judgement: MuJudgement) -> SoundnessReport:
    """Re-derive the translated judgement with the target typechecker."""
    source_type = judgement.check()
    target_term = cps_term(judgement)
    tctx = cps_context(judgement.gamma, judgement.delta)
    target_type = typecheck_target(tctx, target_term)
    expected = tt.Neg(cps_type(source_type))
    if target_type != expected:
        raise SoundnessViolation(
            f"translation of {judgement.subject} has type {target_type}, expected {expected}"
        )
    return SoundnessReport(judgement, source_type, target_term, target_type)


@record
class SubstLemmaReport:
    lemma: str
    holds: bool
    left: object
    right: object


def check_subst_type_in_type(sigma: mt.MuType, x: str, tau: mt.MuType) -> SubstLemmaReport:
    """(sigma[tau/X])deg == sigmadeg[taudeg/X], syntactically."""
    left = cps_type(mt.subst_tvar(sigma, x, tau))
    right = tt.subst_tvar(cps_type(sigma), x, cps_type(tau))
    return SubstLemmaReport("type-in-type", left == right, left, right)


def check_subst_term_in_term(
    gamma: Context, delta: Context, m: tm.MuTerm, x: str, n: tm.MuTerm
) -> SubstLemmaReport:
    """[[M[N/x]]] == [[M]][[[N]]/x], syntactically (up to alpha)."""
    gamma_no_x = tuple((v, s) for v, s in gamma if v != x)
    left, _ = _translate(gamma_no_x, delta, tm.subst_term(m, x, n))
    tm_m, _ = _translate(gamma, delta, m)
    tm_n, _ = _translate(gamma_no_x, delta, n)
    right = tg.subst_var(tm_m, x, tm_n)
    return SubstLemmaReport("term-in-term", left == right, left, right)


def check_subst_type_in_term(
    gamma: Context, delta: Context, m: tm.MuTerm, x: str, sigma: mt.MuType
) -> SubstLemmaReport:
    """[[M[sigma/X]]] == [[M]][sigmadeg/X], syntactically (up to alpha)."""
    gamma_s = tuple((v, mt.subst_tvar(s, x, sigma)) for v, s in gamma)
    delta_s = tuple((a, mt.subst_tvar(s, x, sigma)) for a, s in delta)
    left, _ = _translate(gamma_s, delta_s, tm.subst_type(m, x, sigma))
    tm_m, _ = _translate(gamma, delta, m)
    right = tg.subst_tvar_term(tm_m, x, cps_type(sigma))
    return SubstLemmaReport("type-in-term", left == right, left, right)
