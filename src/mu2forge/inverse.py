"""Inverse translation from canonical forms back to the mu-calculus.

Programs invert to terms, Continuations to one-hole contexts with a
typed hole, Answers to terms of the falsity type.  Hole filling is
capture-permitting: the let clauses bind the variables and names of the
filled term, so contexts are represented as closures that construct the
binders around the hole.
"""

from __future__ import annotations

from typing import Callable

from . import mu_terms as tm
from . import mu_types as mt
from . import target_terms as tg
from . import target_types as tt
from .canonical import ANSWER, CONTINUATION, PROGRAM, CanonicalForm, NotCanonical, eq_target
from .cps import cps_term_typed
from .mu_typing import Context
from .printer import print_target_term, print_target_type as show
from .record import record
from .target_types import uncps_type
from .target_typing import PLAIN, TgContext, typecheck_target

VAR = "var"
NAME = "name"


@record
class MuContext:
    """One-hole context  C[-] : bot  with a hole of type hole_type."""

    hole_type: mt.MuType
    fill: Callable[[tm.MuTerm], tm.MuTerm]

    def __call__(self, hole: tm.MuTerm) -> tm.MuTerm:
        return self.fill(hole)


def split_context(context: TgContext) -> tuple[Context, Context]:
    """Recover Gamma and Delta from a translated context not Gdeg, Ddeg."""
    gamma: list[tuple[str, mt.MuType]] = []
    delta: list[tuple[str, mt.MuType]] = []
    for atom, ty in context:
        if isinstance(ty, tt.Neg) and tt.is_image(ty.body):
            gamma.append((atom, uncps_type(ty.body)))
        elif tt.is_image(ty):
            delta.append((atom, uncps_type(ty)))
        else:
            raise NotCanonical(f"context entry {atom} : {show(ty)} is not translated")
    return tuple(gamma), tuple(delta)


def invert(form: CanonicalForm, context: TgContext = ()):
    """Invert a canonical form: term, context, or falsity term by kind."""
    if form.mode != PLAIN:
        raise NotCanonical("inversion is defined on plain-mode canonical forms")
    env = dict(context)
    if form.kind == PROGRAM:
        return _inv_program(form.term, form.type.body, env)
    if form.kind == CONTINUATION:
        return _inv_cont(form.term, form.type, env)
    if form.kind == ANSWER:
        return _inv_answer(form.term, env)
    raise NotCanonical(form.kind)


def _synth(t, env) -> tt.TargetType:
    return typecheck_target(tuple(env.items()), t, PLAIN)


def _inv_program(t, sdeg, env) -> tm.MuTerm:
    match t:
        case tg.TgVar(x):
            return tm.Var(x)
        case tg.TgLam(hint, ann, body):
            if ann != sdeg:
                raise NotCanonical(f"program abstraction at {show(ann)}, expected {show(sdeg)}")
            k = tm.fresh(hint or "k")
            sigma = uncps_type(sdeg)
            inner = _inv_answer(tg.open_var(body, k), {**env, k: sdeg})
            return tm.bold_mu(k, sigma, inner)
    raise NotCanonical(f"not a Program: {print_target_term(t)}")


def _inv_cont(t, sdeg, env) -> MuContext:
    hole_ty = uncps_type(sdeg)
    match t:
        case tg.TgVar(k):
            return MuContext(hole_ty, lambda h: tm.named(k, h))
        case tg.Pair(p, c):
            if not (isinstance(sdeg, tt.Conj) and isinstance(sdeg.left, tt.Neg)):
                raise NotCanonical(f"pair continuation at {show(sdeg)}")
            arg = _inv_program(p, sdeg.left.body, env)
            inner = _inv_cont(c, sdeg.right, env)
            return MuContext(hole_ty, lambda h: inner(tm.App(h, arg)))
        case tg.Pack(w, c, _):
            if not isinstance(sdeg, tt.Exists):
                raise NotCanonical(f"pack continuation at {show(sdeg)}")
            ty_arg = uncps_type(w)
            inner = _inv_cont(c, tt.inst_tvar(sdeg.body, w), env)
            return MuContext(hole_ty, lambda h: inner(tm.TyApp(h, ty_arg)))
        case tg.LetPair(hx, hy, c1, c2):
            s1deg = _synth(c1, env)
            if not (isinstance(s1deg, tt.Conj) and isinstance(s1deg.left, tt.Neg)):
                raise NotCanonical(f"let-pair scrutinee at {show(s1deg)}")
            x, k = tm.fresh(hx or "x"), tm.fresh(hy or "k")
            sigma1 = uncps_type(s1deg.left.body)
            sigma2 = uncps_type(s1deg.right)
            outer = _inv_cont(c1, s1deg, env)
            body = tg.open_var(tg.open_var(c2, k), x, 1)
            env2 = {**env, x: tt.Neg(s1deg.left.body), k: s1deg.right}
            inner = _inv_cont(body, sdeg, env2)
            return MuContext(
                hole_ty,
                lambda h: outer(
                    tm.lam(x, sigma1, tm.bold_mu(k, sigma2, inner(h)))
                ),
            )
        case tg.LetPack(ht, hx, c1, c2):
            s1deg = _synth(c1, env)
            if not isinstance(s1deg, tt.Exists):
                raise NotCanonical(f"let-pack scrutinee at {show(s1deg)}")
            xv, k = tm.fresh(ht or "X"), tm.fresh(hx or "k")
            inst_deg = tt.inst_tvar(s1deg.body, tt.TgVarT(xv))
            sigma1 = uncps_type(inst_deg)
            outer = _inv_cont(c1, s1deg, env)
            body = tg.open_var(tg.open_tvar_term(c2, xv), k)
            env2 = {**env, k: inst_deg}
            inner = _inv_cont(body, sdeg, env2)
            return MuContext(
                hole_ty,
                lambda h: outer(
                    tm.tylam(xv, tm.bold_mu(k, sigma1, inner(h)))
                ),
            )
        case tg.Star():
            raise NotCanonical("Star has no inverse in the plain theory")
    raise NotCanonical(f"not a Continuation: {print_target_term(t)}")


def _inv_answer(t, env) -> tm.MuTerm:
    match t:
        case tg.TgApp(p, c):
            fn_ty = _synth(p, env)
            if not (isinstance(fn_ty, tt.Neg) and tt.is_image(fn_ty.body)):
                raise NotCanonical(f"answer head at {show(fn_ty)}")
            return _inv_cont(c, fn_ty.body, env)(_inv_program(p, fn_ty.body, env))
        case tg.LetPair(hx, hy, c, a):
            s1deg = _synth(c, env)
            if not (isinstance(s1deg, tt.Conj) and isinstance(s1deg.left, tt.Neg)):
                raise NotCanonical(f"let-pair scrutinee at {show(s1deg)}")
            x, k = tm.fresh(hx or "x"), tm.fresh(hy or "k")
            sigma1 = uncps_type(s1deg.left.body)
            sigma2 = uncps_type(s1deg.right)
            outer = _inv_cont(c, s1deg, env)
            body = tg.open_var(tg.open_var(a, k), x, 1)
            env2 = {**env, x: tt.Neg(s1deg.left.body), k: s1deg.right}
            return outer(
                tm.lam(x, sigma1, tm.bold_mu(k, sigma2, _inv_answer(body, env2)))
            )
        case tg.LetPack(ht, hx, c, a):
            s1deg = _synth(c, env)
            if not isinstance(s1deg, tt.Exists):
                raise NotCanonical(f"let-pack scrutinee at {show(s1deg)}")
            xv, k = tm.fresh(ht or "X"), tm.fresh(hx or "k")
            inst_deg = tt.inst_tvar(s1deg.body, tt.TgVarT(xv))
            sigma1 = uncps_type(inst_deg)
            outer = _inv_cont(c, s1deg, env)
            body = tg.open_var(tg.open_tvar_term(a, xv), k)
            env2 = {**env, k: inst_deg}
            return outer(
                tm.tylam(xv, tm.bold_mu(k, sigma1, _inv_answer(body, env2)))
            )
    raise NotCanonical(f"not an Answer: {print_target_term(t)}")


def roundtrip(form: CanonicalForm, context: TgContext = ()):
    """eq_target([[invert(P)]], P, plain): the fullness round trip."""
    if form.kind != PROGRAM:
        raise NotCanonical("round trips are defined on Programs")
    inverted = invert(form, context)
    gamma, delta = split_context(context)
    back, _ = cps_term_typed(gamma, delta, inverted)
    return eq_target(back, form.term, PLAIN, context)
