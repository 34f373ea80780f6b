"""Typing for the target calculus.

Modes: "plain" is the pure syntax; "parametric" additionally admits the
constant Star at type exists X. X.

One walk types a nameful term (see `target_terms`), `_synth`:
`typecheck_nameful` runs it alone, `typecheck_target` opens a locally
closed term first, and `resolve_nameful` opens a term and runs the walk
rebuilding each node from its rebuilt children, so that target input
whose packs the reader left unannotated is typed and resolved in one
linear pass on an explicit stack.  The rebuild stays nameful: the
commands hand it to the kernel as it is, and close only what they print.
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
    open_exists,
)
from .target_terms import (
    LetPack,
    LetPair,
    Pack,
    Pair,
    Star,
    TargetTerm,
    TargetTypeError,  # re-exported: every typing error is one, to_nameful's included
    TgApp,
    TgLam,
    TgVar,
    to_nameful,
)
from .mu_terms import base_name

PLAIN = "plain"
PARAMETRIC = "parametric"


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


def typecheck_target(context: TgContext, term: TargetTerm, mode: str = PLAIN) -> TargetType:
    """The type of a locally closed term under context.  Every pack must
    carry its existential; resolve_nameful fills in those the reader left out."""
    return _synth(context, to_nameful(term), mode, False)[1]


def typecheck_nameful(context: TgContext, term: TargetTerm, mode: str = PLAIN) -> TargetType:
    """typecheck_target of a term already in nameful form."""
    return _synth(context, term, mode, False)[1]


def resolve_nameful(
    term: TargetTerm, context: TgContext, mode: str = PLAIN
) -> tuple[TargetTerm, TargetType]:
    """The locally closed term opened to the nameful form with each missing
    pack annotation filled in, and its type.  The existential of  <t | M>
    generalises every occurrence of t in the type of M (the documented
    default; write  <t | M : T>  when another existential is meant)."""
    return _synth(context, to_nameful(term), mode, True)


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
    """The nameful term rebuilt from its rebuilt children with each
    unannotated pack resolved (meaningless without rebuild, where such a
    pack is an error), and its type, in one pass over an explicit stack.
    Binder atoms are unique, so a binder enters its atoms' types in the
    one dict of the walk and never takes them out.  Each node is checked
    in the order a recursive reading checks it: a function before its
    argument is typed, a pack's annotation before its payload.  A name
    bound twice in context is an error: the rewrite engine reads a
    context as a dict, so it would take the last binding."""
    types: dict[str, TargetType] = {}
    for name, ty in context:
        if name in types:
            raise TargetTypeError(f"duplicate variable {name!r}")
        types[name] = ty
    tvars: set[str] = set()  # the let-pack type atoms of the walk
    # A type in a message names each type atom of the walk by its binder's hint.
    display = lambda ty: show(SYNTAX.subst(TVAR, ty, {a: TgVarT(base_name(a)) for a in tvars}))
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
                if not isinstance(ty, RType):
                    raise NonAnswerBody(f"abstraction body has type {display(ty)}, not R")
                ty = Neg(term.ann)
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
                if step is None:  # resolved
                    step = Exists("X", _generalise(ty, term.witness))
                elif ty != (want := inst_tvar(step.body, term.witness)):
                    raise TargetTypeMismatch(
                        f"pack payload has type {display(ty)}, expected {display(want)}"
                    )
                ty = step
                made = rebuild and Pack(term.witness, made, step)
            elif step is None:  # a let's scrutinee is typed: its body
                if cls is LetPair:
                    if not isinstance(ty, Conj):
                        raise TargetTypeMismatch(f"let-pair scrutinee has type {display(ty)}")
                    types[term.hint_x], types[term.hint_y] = ty.left, ty.right
                else:
                    if not isinstance(ty, Exists):
                        raise TargetTypeMismatch(f"let-pack scrutinee has type {display(ty)}")
                    tvars.add(term.hint_t)
                    types[term.hint_x] = open_exists(ty, term.hint_t)
                todo.append((term, (made,)))
                todo.append(term.body)
                continue
            elif cls is LetPair:
                made = rebuild and LetPair(term.hint_x, term.hint_y, step[0], made)
            else:
                tv = term.hint_t
                if tv in ftv(ty):
                    raise EscapeCheckFailed(
                        f"type variable {base_name(tv)} escapes through the let-pack result {display(ty)}"
                    )
                made = rebuild and LetPack(tv, term.hint_x, step[0], made)
            out.append((made, ty))
        elif cls is TgVar:
            ty = types.get(term.name)
            if ty is None:
                raise UnboundTargetVariable(term.name)
            out.append((term, ty))
        elif cls is Star:
            if mode != PARAMETRIC:
                raise StarInPlainMode("Star is legal only in parametric mode")
            out.append((term, TOP))
        elif cls is TgLam:
            types[term.hint] = term.ann
            todo.append((term, None))
            todo.append(term.body)
        elif cls is Pair:
            todo.append((term, None))
            todo.append(term.right)
            todo.append(term.left)
        elif cls is Pack:
            ex_ann = term.ex_ann
            if isinstance(ex_ann, Exists):
                todo.append((term, ex_ann))
            elif ex_ann is None and rebuild:  # resolved once its payload is typed
                todo.append((term, None))
            else:
                shown = ex_ann if ex_ann is None else display(ex_ann)
                raise TargetTypeMismatch(f"pack annotated with non-existential {shown}")
            todo.append(term.payload)
        elif cls is TgApp or cls is LetPair or cls is LetPack:
            todo.append((term, None))
            todo.append(term.fn if cls is TgApp else term.scrut)
        else:
            raise TypeError(term)
    return out[0]
