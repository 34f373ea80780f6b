"""Typing for the target calculus.

Modes: "plain" is the pure syntax; "parametric" additionally admits the
constant Star at type exists X. X.
"""

from __future__ import annotations

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
    """One pass: a bound variable's type is read off a stack of binder
    types, and an annotation is opened against the type atoms when read."""
    var_types: list[TargetType] = []  # innermost binder last
    tvar_atoms: list[str] = []
    read = lambda ty: SYNTAX.open_all(TVAR, ty, tvar_atoms)

    def synth(term: TargetTerm) -> TargetType:
        match term:
            case TgVar(n):
                ty = _lookup(context, n)
                if ty is None:
                    raise UnboundTargetVariable(n)
                return ty
            case TgBVar(k):
                if not 0 <= k < len(var_types):
                    raise TargetTypeError(f"dangling bound variable {k}")
                return var_types[-1 - k]
            case Star():
                if mode != PARAMETRIC:
                    raise StarInPlainMode("Star is legal only in parametric mode")
                return TOP
            case TgLam(_, ann, body):
                ann = read(ann)
                var_types.append(ann)
                body_ty = synth(body)
                var_types.pop()
                if not isinstance(body_ty, RType):
                    raise NonAnswerBody(f"abstraction body has type {body_ty}, not R")
                return Neg(ann)
            case TgApp(fn, arg):
                fn_ty = synth(fn)
                if not isinstance(fn_ty, Neg):
                    raise TargetTypeMismatch(f"application of non-negation type {fn_ty}")
                arg_ty = synth(arg)
                if arg_ty != fn_ty.body:
                    raise TargetTypeMismatch(
                        f"argument type {arg_ty} does not match expected {fn_ty.body}"
                    )
                return R
            case Pair(left, right):
                return Conj(synth(left), synth(right))
            case LetPair(_, _, scrut, body):
                scrut_ty = synth(scrut)
                if not isinstance(scrut_ty, Conj):
                    raise TargetTypeMismatch(f"let-pair scrutinee has type {scrut_ty}")
                var_types.extend((scrut_ty.left, scrut_ty.right))
                body_ty = synth(body)
                del var_types[-2:]
                return body_ty
            case Pack(witness, payload, ex_ann):
                if not isinstance(ex_ann, Exists):  # None: a pack left unresolved
                    shown = ex_ann if ex_ann is None else read(ex_ann)
                    raise TargetTypeMismatch(f"pack annotated with non-existential {shown}")
                ex_ann = read(ex_ann)
                payload_ty = synth(payload)
                want = inst_tvar(ex_ann.body, read(witness))
                if payload_ty != want:
                    raise TargetTypeMismatch(
                        f"pack payload has type {payload_ty}, expected {want}"
                    )
                return ex_ann
            case LetPack(ht, _, scrut, body):
                scrut_ty = synth(scrut)
                if not isinstance(scrut_ty, Exists):
                    raise TargetTypeMismatch(f"let-pack scrutinee has type {scrut_ty}")
                # the type binder is named: the escape check's message names it
                tv = fresh(ht or "X")
                tvar_atoms.append(tv)
                var_types.append(inst_tvar(scrut_ty.body, TgVarT(tv)))
                result = synth(body)
                var_types.pop()
                tvar_atoms.pop()
                if tv in ftv(result):
                    raise EscapeCheckFailed(
                        f"type variable {tv} escapes through the let-pack result {result}"
                    )
                return result
        raise TypeError(term)

    return synth(term)
