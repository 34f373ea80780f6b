"""Typing for lambda-mu-2 judgements  Gamma |- M : sigma | Delta.

Gamma assigns types to term variables, Delta to names (continuation
variables).  Typing is synthesis: annotations on Lam and Mu binders make
every judgement syntax-directed.
"""

from __future__ import annotations

from .mu_types import Arrow, Forall, MuType, close_tvar, inst_tvar, locally_closed
from .mu_terms import (
    App,
    BName,
    BVar,
    FName,
    Lam,
    Mu,
    MuTerm,
    TyApp,
    TyLam,
    Var,
    fresh,
    open_name,
    open_tvar_term,
    open_var,
)
from .printer import print_mu_type as show
from .record import field, record


class MuTypeError(Exception):
    """Base class for lambda-mu typing failures."""


class UnboundVariable(MuTypeError):
    pass


class UnboundName(MuTypeError):
    pass


class TypeMismatch(MuTypeError):
    pass


class IllFormedContext(MuTypeError):
    pass


Context = tuple[tuple[str, MuType], ...]


def ctx(*pairs: tuple[str, MuType]) -> Context:
    return tuple(pairs)


def lookup(context: Context, name: str) -> MuType | None:
    for n, ty in context:
        if n == name:
            return ty
    return None


def check_context(context: Context, zone: str) -> None:
    seen: set[str] = set()
    for n, ty in context:
        if n in seen:
            raise IllFormedContext(f"duplicate {zone} {n!r}")
        seen.add(n)
        if not locally_closed(ty):
            raise IllFormedContext(f"type of {zone} {n!r} has dangling bound variables")


@record
class MuJudgement:
    gamma: Context
    delta: Context
    subject: MuTerm
    type: MuType = field(default=None)  # type: ignore[assignment]

    def check(self) -> MuType:
        got = typecheck_mu(self.gamma, self.delta, self.subject)
        if self.type is not None and got != self.type:
            raise TypeMismatch(f"judgement annotated {show(self.type)} but synthesised {show(got)}")
        return got


def judge(gamma: Context, delta: Context, subject: MuTerm) -> MuJudgement:
    ty = typecheck_mu(gamma, delta, subject)
    return MuJudgement(gamma, delta, subject, ty)


def check_contexts(gamma: Context, delta: Context) -> None:
    """Both zones well formed, and no identifier in both."""
    check_context(gamma, "variable")
    check_context(delta, "name")
    if {n for n, _ in gamma} & {n for n, _ in delta}:
        raise IllFormedContext("variable and name zones share an identifier")


def typecheck_mu(gamma: Context, delta: Context, term: MuTerm) -> MuType:
    """Synthesise the unique type of ``term`` under the two contexts."""
    check_contexts(gamma, delta)
    return _synth(gamma, delta, term)


def _synth(gamma: Context, delta: Context, term: MuTerm) -> MuType:
    match term:
        case Var(n):
            ty = lookup(gamma, n)
            if ty is None:
                raise UnboundVariable(n)
            return ty
        case BVar(k):
            raise MuTypeError(f"dangling bound variable {k}")
        case Lam(hint, ann, _):
            x = fresh(hint or "x")
            body_ty = _synth(gamma + ((x, ann),), delta, open_var(term.body, x))
            return Arrow(ann, body_ty)
        case App(fun, arg):
            fun_ty = _synth(gamma, delta, fun)
            if not isinstance(fun_ty, Arrow):
                raise TypeMismatch(f"application of a non-arrow type {show(fun_ty)}")
            arg_ty = _synth(gamma, delta, arg)
            if arg_ty != fun_ty.dom:
                raise TypeMismatch(
                    f"argument type {show(arg_ty)} does not match domain {show(fun_ty.dom)}"
                )
            return fun_ty.cod
        case TyLam(hint, body):
            x = fresh(hint or "X")
            body_ty = _synth(gamma, delta, open_tvar_term(body, x))
            return Forall(hint or "X", close_tvar(body_ty, x))
        case TyApp(fun, ty):
            fun_ty = _synth(gamma, delta, fun)
            if not isinstance(fun_ty, Forall):
                raise TypeMismatch(f"type application of a non-forall type {show(fun_ty)}")
            return inst_tvar(fun_ty.body, ty)
        case Mu(hint, ann, _, _):
            a = fresh(hint or "a")
            body = open_name(term.body, a)
            target = term.target
            if target == BName(0):
                tname = a
            elif isinstance(target, FName):
                tname = target.name
            else:
                raise MuTypeError(f"dangling bound name {target.index}")
            delta2 = ((a, ann),) + delta
            named_ty = lookup(delta2, tname)
            if named_ty is None:
                raise UnboundName(tname)
            body_ty = _synth(gamma, delta2, body)
            if body_ty != named_ty:
                raise TypeMismatch(
                    f"named term has type {show(body_ty)} but name {tname} expects {show(named_ty)}"
                )
            return ann
    raise TypeError(term)
