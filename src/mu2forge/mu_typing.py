"""Typing for lambda-mu-2 judgements  Gamma |- M : sigma | Delta.

Gamma assigns types to term variables, Delta to names (continuation
variables).  Typing is synthesis: annotations on Lam and Mu binders make
every judgement syntax-directed.

One walk types a term, `_synth`, and hands each typing clause, once
checked, to an optional builder: `typecheck_mu` runs it with none, and
`cps` with one that builds the clause's CPS image.
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
    return _synth(gamma, delta, term)[1]


def _synth(gamma: Context, delta: Context, term: MuTerm, build=None) -> tuple[object, MuType]:
    """What build made of term's typing clauses, bottom up (None without
    a builder), and the type of term, in one pass over an explicit stack
    that checks each node in the order a recursive reading checks it.
    No binder is opened: the atoms and types of the enclosing binders sit
    on stacks, innermost last, and an annotation is opened against the
    type atoms when read, so each binder costs what its own node costs.
    Each clause reaches the builder once checked, with the atoms drawn
    for its binders and its type, so the atoms a builder draws come in
    the walk's order."""
    variables: list[tuple[str, MuType]] = []  # per enclosing Lam: its atom and annotation
    tvar_atoms: list[str] = []  # per enclosing TyLam: its atom
    names: list[tuple[str, MuType]] = []  # per enclosing Mu: its atom and annotation
    read = lambda ty: SYNTAX.open_all(TVAR, ty, tvar_atoms)
    out: list[tuple[object, MuType]] = []  # (what build made, type) of the finished subterms
    todo: list = [term]  # terms to type, and (node, step) to go on with
    while todo:
        term = todo.pop()
        cls = term.__class__
        if cls is tuple:
            term, step = term
            cls = term.__class__
            made, ty = out.pop()
            if cls is App:
                if step is None:  # the function is typed: its argument
                    if not isinstance(ty, Arrow):
                        raise TypeMismatch(f"application of a non-arrow type {show(ty)}")
                    todo.append((term, (made, ty)))
                    todo.append(term.arg)
                    continue
                fn, fn_ty = step
                if ty != fn_ty.dom:
                    raise TypeMismatch(
                        f"argument type {show(ty)} does not match domain {show(fn_ty.dom)}"
                    )
                ty = fn_ty.cod
                made = build and build.app(fn, made, ty)
            elif cls is Lam:
                x, ann = variables.pop()
                ty = Arrow(ann, ty)
                made = build and build.lam(x, made, ty)
            elif cls is TyLam:
                xv = tvar_atoms.pop()
                ty = Forall(term.hint or "X", close_tvar(ty, xv))
                made = build and build.tylam(xv, made, ty)
            elif cls is TyApp:
                if not isinstance(ty, Forall):
                    raise TypeMismatch(f"type application of a non-forall type {show(ty)}")
                fn_ty, arg = ty, read(term.ty)
                ty = inst_tvar(fn_ty.body, arg)
                made = build and build.tyapp(made, fn_ty, arg, ty)
            else:  # Mu
                a, ann = names.pop()
                tname, named_ty = step
                if ty != named_ty:
                    raise TypeMismatch(
                        f"named term has type {show(ty)} but name {tname} expects {show(named_ty)}"
                    )
                ty = ann
                made = build and build.mu(a, made, tname, ty)
            out.append((made, ty))
        elif cls is Var:
            ty = lookup(gamma, term.name)
            if ty is None:
                raise UnboundVariable(term.name)
            out.append((build and build.var(term.name), ty))
        elif cls is BVar:
            k = term.index
            if k >= len(variables):
                raise MuTypeError(f"dangling bound variable {k}")
            x, ty = variables[-1 - k]
            out.append((build and build.var(x), ty))
        elif cls is App or cls is TyApp:
            todo.append((term, None))
            todo.append(term.fn)
        elif cls is Lam:
            variables.append((fresh(term.hint or "x"), read(term.ann)))
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
    return out[0]
