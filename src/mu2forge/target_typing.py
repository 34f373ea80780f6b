"""Typing for the target calculus.

Modes: "plain" is the pure syntax; "parametric" additionally admits the
constant Star at type exists X. X.
"""

from __future__ import annotations

from .printer import print_target_type as show
from .target_types import (
    Conj,
    Exists,
    Neg,
    R,
    RType,
    TOP,
    TargetType,
    SYNTAX,
    TVAR,
    TgVarT,
    ftv,
    inst_tvar,
)
from .target_terms import (
    LetPack,
    LetPair,
    Pack,
    Pair,
    Star,
    TargetTerm,
    TgApp,
    TgBVar,
    TgLam,
    TgVar,
    fresh,
)

PLAIN = "plain"
PARAMETRIC = "parametric"


class TargetTypeError(Exception):
    pass


class UnboundTargetVariable(TargetTypeError):
    pass


class NonAnswerBody(TargetTypeError):
    pass


class EscapeCheckFailed(TargetTypeError):
    pass


class StarInPlainMode(TargetTypeError):
    pass


class TargetTypeMismatch(TargetTypeError):
    pass


TgContext = tuple[tuple[str, TargetType], ...]


def tg_ctx(*pairs: tuple[str, TargetType]) -> TgContext:
    return tuple(pairs)


def _lookup(context: TgContext, name: str) -> TargetType | None:
    for n, ty in context:
        if n == name:
            return ty
    return None


def typecheck_target(context: TgContext, term: TargetTerm, mode: str = PLAIN) -> TargetType:
    """One pass over an explicit stack: a bound variable's type is read
    off a stack of binder types, and an annotation is opened against the
    type atoms when read.  Each node is checked in the order a recursive
    reading checks it: a function before its argument is typed, a pack's
    annotation before its payload."""
    var_types: list[TargetType] = []  # innermost binder last
    tvar_atoms: list[str] = []
    read = lambda ty: SYNTAX.open_all(TVAR, ty, tvar_atoms)
    types: list[TargetType] = []  # the types of the finished subterms
    todo: list = [term]  # terms to type, and (node, step) to go on with
    while todo:
        term = todo.pop()
        cls = term.__class__
        if cls is tuple:
            term, step = term
            cls = term.__class__
            ty = types.pop()
            if cls is TgLam:
                var_types.pop()
                if not isinstance(ty, RType):
                    raise NonAnswerBody(f"abstraction body has type {show(ty)}, not R")
                ty = Neg(step)
            elif cls is TgApp:
                if step is None:  # the function is typed: its argument
                    if not isinstance(ty, Neg):
                        raise TargetTypeMismatch(f"application of non-negation type {show(ty)}")
                    todo.append((term, ty))
                    todo.append(term.arg)
                    continue
                if ty != step.body:
                    raise TargetTypeMismatch(
                        f"argument type {show(ty)} does not match expected {show(step.body)}"
                    )
                ty = R
            elif cls is Pair:
                ty = Conj(types.pop(), ty)
            elif cls is Pack:
                want = inst_tvar(step.body, read(term.witness))
                if ty != want:
                    raise TargetTypeMismatch(
                        f"pack payload has type {show(ty)}, expected {show(want)}"
                    )
                ty = step
            elif step is None:  # a let's scrutinee is typed: its body
                if cls is LetPair:
                    if not isinstance(ty, Conj):
                        raise TargetTypeMismatch(f"let-pair scrutinee has type {show(ty)}")
                    var_types.extend((ty.left, ty.right))
                    todo.append((term, ty))
                else:
                    if not isinstance(ty, Exists):
                        raise TargetTypeMismatch(f"let-pack scrutinee has type {show(ty)}")
                    # the type binder is named: the escape check's message names it
                    tv = fresh(term.hint_t or "X")
                    tvar_atoms.append(tv)
                    var_types.append(inst_tvar(ty.body, TgVarT(tv)))
                    todo.append((term, tv))
                todo.append(term.body)
                continue
            elif cls is LetPair:
                del var_types[-2:]
            else:
                var_types.pop()
                tvar_atoms.pop()
                if step in ftv(ty):
                    raise EscapeCheckFailed(
                        f"type variable {step} escapes through the let-pack result {show(ty)}"
                    )
            types.append(ty)
        elif cls is TgVar:
            ty = _lookup(context, term.name)
            if ty is None:
                raise UnboundTargetVariable(term.name)
            types.append(ty)
        elif cls is TgBVar:
            k = term.index
            if not 0 <= k < len(var_types):
                raise TargetTypeError(f"dangling bound variable {k}")
            types.append(var_types[-1 - k])
        elif cls is Star:
            if mode != PARAMETRIC:
                raise StarInPlainMode("Star is legal only in parametric mode")
            types.append(TOP)
        elif cls is TgLam:
            ann = read(term.ann)
            var_types.append(ann)
            todo.append((term, ann))
            todo.append(term.body)
        elif cls is Pair:
            todo.append((term, None))
            todo.append(term.right)
            todo.append(term.left)
        elif cls is Pack:
            ex_ann = term.ex_ann
            if not isinstance(ex_ann, Exists):  # None: a pack left unresolved
                shown = ex_ann if ex_ann is None else show(read(ex_ann))
                raise TargetTypeMismatch(f"pack annotated with non-existential {shown}")
            todo.append((term, read(ex_ann)))
            todo.append(term.payload)
        elif cls is TgApp or cls is LetPair or cls is LetPack:
            todo.append((term, None))
            todo.append(term.fn if cls is TgApp else term.scrut)
        else:
            raise TypeError(term)
    return types[0]
