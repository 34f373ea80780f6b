"""Typing for lambda-mu-2 judgements  Gamma |- M : sigma | Delta.

Gamma assigns types to term variables, Delta to names (continuation
variables).  Typing is synthesis: annotations on Lam and Mu binders make
every judgement syntax-directed.
"""

from __future__ import annotations

from .mu_types import SYNTAX, Arrow, Forall, MuType, close_tvar, inst_tvar, locally_closed
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
)
from .printer import print_mu_type as show
from .record import field, record
from .syntax import TVAR


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
    """The type of term, in one pass over an explicit stack that checks
    each node in the order a recursive reading checks it.  No binder is
    opened: the atoms and types of the enclosing binders sit on stacks,
    innermost last, and an annotation is opened against the type atoms
    when read, so each binder costs what its own node costs."""
    var_types: list[MuType] = []  # per enclosing Lam: its annotation
    tvar_atoms: list[str] = []  # per enclosing TyLam: its atom
    names: list[tuple[str, MuType]] = []  # per enclosing Mu: its atom and annotation
    read = lambda ty: SYNTAX.open_all(TVAR, ty, tvar_atoms)
    types: list[MuType] = []  # the types of the finished subterms
    todo: list = [term]  # terms to type, and (node, step) to go on with
    while todo:
        term = todo.pop()
        cls = term.__class__
        if cls is tuple:
            term, step = term
            cls = term.__class__
            ty = types.pop()
            if cls is App:
                if step is None:  # the function is typed: its argument
                    if not isinstance(ty, Arrow):
                        raise TypeMismatch(f"application of a non-arrow type {show(ty)}")
                    todo.append((term, ty))
                    todo.append(term.arg)
                    continue
                if ty != step.dom:
                    raise TypeMismatch(
                        f"argument type {show(ty)} does not match domain {show(step.dom)}"
                    )
                ty = step.cod
            elif cls is Lam:
                ty = Arrow(var_types.pop(), ty)
            elif cls is TyLam:
                ty = Forall(term.hint or "X", close_tvar(ty, tvar_atoms.pop()))
            elif cls is TyApp:
                if not isinstance(ty, Forall):
                    raise TypeMismatch(f"type application of a non-forall type {show(ty)}")
                ty = inst_tvar(ty.body, read(term.ty))
            else:  # Mu
                a, ann = names.pop()
                tname, named_ty = step
                if ty != named_ty:
                    raise TypeMismatch(
                        f"named term has type {show(ty)} but name {tname} expects {show(named_ty)}"
                    )
                ty = ann
            types.append(ty)
        elif cls is Var:
            ty = lookup(gamma, term.name)
            if ty is None:
                raise UnboundVariable(term.name)
            types.append(ty)
        elif cls is BVar:
            k = term.index
            if k >= len(var_types):
                raise MuTypeError(f"dangling bound variable {k}")
            types.append(var_types[-1 - k])
        elif cls is App or cls is TyApp:
            todo.append((term, None))
            todo.append(term.fn)
        elif cls is Lam:
            fresh(term.hint or "x")  # unused: drawn so that later fresh atoms do not shift
            var_types.append(read(term.ann))
            todo.append((term, None))
            todo.append(term.body)
        elif cls is TyLam:
            tvar_atoms.append(fresh(term.hint or "X"))
            todo.append((term, None))
            todo.append(term.body)
        elif cls is Mu:
            a, ann = fresh(term.hint or "a"), read(term.ann)
            target = term.target
            if target == BName(0):
                tname, named_ty = a, ann
            elif isinstance(target, FName):
                tname = target.name
                named_ty = lookup(delta, tname)
            elif target.index <= len(names):
                tname, named_ty = names[-target.index]
            else:
                raise MuTypeError(f"dangling bound name {target.index}")
            if named_ty is None:
                raise UnboundName(tname)
            names.append((a, ann))
            todo.append((term, (tname, named_ty)))
            todo.append(term.body)
        else:
            raise TypeError(term)
    return types[0]
