"""Typing for the target calculus.

Modes: "plain" is the pure syntax; "parametric" additionally admits the
constant Star at type exists X. X.

One walk types a term, `_synth`: `typecheck_target` runs it alone, and
`resolve_packs` runs it rebuilding each node from its rebuilt children,
so that target input whose packs the reader left unannotated is typed
and resolved in one linear pass on an explicit stack.
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
    TgBoundT,
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
from .mu_terms import base_name

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
    """The type of term under context.  Every pack must carry its
    existential; resolve_packs fills in the ones the reader left out."""
    return _synth(context, term, mode, False)[1]


def resolve_packs(
    term: TargetTerm, context: TgContext, mode: str = PLAIN
) -> tuple[TargetTerm, TargetType]:
    """term with each missing pack annotation filled in, and its type.
    The existential of  <t | M>  generalises every occurrence of t in the
    type of M (the documented default; write  <t | M : T>  when another
    existential is meant)."""
    return _synth(context, term, mode, True)


def _generalise(ty: TargetType, witness: TargetType, depth: int = 0) -> TargetType:
    """ty with each occurrence of witness made the variable bound depth
    existentials up."""
    if ty == witness:
        return TgBoundT(depth)
    cls = ty.__class__
    if cls is Neg:
        return Neg(_generalise(ty.body, witness, depth))
    if cls is Conj:
        return Conj(_generalise(ty.left, witness, depth), _generalise(ty.right, witness, depth))
    if cls is Exists:
        return Exists(ty.hint, _generalise(ty.body, witness, depth + 1))
    return ty


def _synth(
    context: TgContext, term: TargetTerm, mode: str, rebuild: bool
) -> tuple[TargetTerm | bool, TargetType]:
    """The term rebuilt from its rebuilt children with each unannotated
    pack resolved (meaningless without rebuild, where such a pack is an
    error), and its type, in one pass over an explicit stack: a bound
    variable's type is read off a stack of binder types, and an
    annotation is opened against the type atoms when read.  Each node is
    checked in the order a recursive reading checks it: a function before
    its argument is typed, a pack's annotation before its payload."""
    var_types: list[TargetType] = []  # innermost binder last
    tvar_atoms: list[str] = []
    levels: dict[str, int] = {}  # each atom's index in tvar_atoms
    read = lambda ty: SYNTAX.open_all(TVAR, ty, tvar_atoms)
    # A type in a message names each type atom of the walk by its binder's hint.
    display = lambda ty: show(SYNTAX.subst(TVAR, ty, {a: TgVarT(base_name(a)) for a in tvar_atoms}))
    out: list[tuple[TargetTerm | None, TargetType]] = []  # (rebuilt, type) of the finished subterms
    todo: list = [term]  # terms to type, and (node, step) to go on with
    while todo:
        term = todo.pop()
        cls = term.__class__
        if cls is tuple:
            term, step = term
            cls = term.__class__
            made, ty = out.pop()
            if cls is TgLam:
                var_types.pop()
                if not isinstance(ty, RType):
                    raise NonAnswerBody(f"abstraction body has type {display(ty)}, not R")
                ty = Neg(step)
                made = rebuild and TgLam(term.hint, term.ann, made)
            elif cls is TgApp:
                if step is None:  # the function is typed: its argument
                    if not isinstance(ty, Neg):
                        raise TargetTypeMismatch(f"application of non-negation type {display(ty)}")
                    todo.append((term, (made, ty)))
                    todo.append(term.arg)
                    continue
                fn, fn_ty = step
                if ty != fn_ty.body:
                    raise TargetTypeMismatch(
                        f"argument type {display(ty)} does not match expected {display(fn_ty.body)}"
                    )
                ty = R
                made = rebuild and TgApp(fn, made)
            elif cls is Pair:
                left, left_ty = out.pop()
                ty = Conj(left_ty, ty)
                made = rebuild and Pair(left, made)
            elif cls is Pack:
                witness = read(term.witness)
                ex_ann = term.ex_ann
                if step is None:  # resolved: closed over the enclosing let-packs' atoms
                    step = Exists("X", _generalise(ty, witness))
                    ex_ann = SYNTAX.close_all(TVAR, step, levels, len(tvar_atoms))
                elif ty != (want := inst_tvar(step.body, witness)):
                    raise TargetTypeMismatch(
                        f"pack payload has type {display(ty)}, expected {display(want)}"
                    )
                ty = step
                made = rebuild and Pack(term.witness, made, ex_ann)
            elif step is None:  # a let's scrutinee is typed: its body
                if cls is LetPair:
                    if not isinstance(ty, Conj):
                        raise TargetTypeMismatch(f"let-pair scrutinee has type {display(ty)}")
                    var_types.extend((ty.left, ty.right))
                    todo.append((term, (made, None)))
                else:
                    if not isinstance(ty, Exists):
                        raise TargetTypeMismatch(f"let-pack scrutinee has type {display(ty)}")
                    # the type binder is named: the escape check's message names it
                    tv = fresh(term.hint_t or "X")
                    levels[tv] = len(tvar_atoms)
                    tvar_atoms.append(tv)
                    var_types.append(inst_tvar(ty.body, TgVarT(tv)))
                    todo.append((term, (made, tv)))
                todo.append(term.body)
                continue
            elif cls is LetPair:
                del var_types[-2:]
                made = rebuild and LetPair(term.hint_x, term.hint_y, step[0], made)
            else:
                scrut, tv = step
                var_types.pop()
                if tv in ftv(ty):
                    raise EscapeCheckFailed(
                        f"type variable {base_name(tv)} escapes through the let-pack result {display(ty)}"
                    )
                del levels[tvar_atoms.pop()]
                made = rebuild and LetPack(term.hint_t, term.hint_x, scrut, made)
            out.append((made, ty))
        elif cls is TgVar:
            ty = _lookup(context, term.name)
            if ty is None:
                raise UnboundTargetVariable(term.name)
            out.append((term, ty))
        elif cls is TgBVar:
            k = term.index
            if not 0 <= k < len(var_types):
                raise TargetTypeError(f"dangling bound variable {k}")
            out.append((term, var_types[-1 - k]))
        elif cls is Star:
            if mode != PARAMETRIC:
                raise StarInPlainMode("Star is legal only in parametric mode")
            out.append((term, TOP))
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
            if isinstance(ex_ann, Exists):
                todo.append((term, read(ex_ann)))
            elif ex_ann is None and rebuild:  # resolved once its payload is typed
                todo.append((term, None))
            else:
                shown = ex_ann if ex_ann is None else display(read(ex_ann))
                raise TargetTypeMismatch(f"pack annotated with non-existential {shown}")
            todo.append(term.payload)
        elif cls is TgApp or cls is LetPair or cls is LetPack:
            todo.append((term, None))
            todo.append(term.fn if cls is TgApp else term.scrut)
        else:
            raise TypeError(term)
    return out[0]
