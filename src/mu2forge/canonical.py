"""Canonical forms and the target equality oracle.

A normalised well-typed term at a translated type classifies into the
Program / Continuation / Answer grammar:

    Program      : not sdeg   P ::= x | lam k. A
    Continuation : sdeg       C ::= k | <P, C> | <sdeg, C>
                                  | let <x,k> = C in C | let <X,k> = C in C
    Answer       : R          A ::= P C | let <x,k> = C in A
                                  | let <X,k> = C in A

In parametric mode Star is additionally a Continuation at exists X. X.
Equality is alpha-identity of canonical forms; Equal verdicts are sound
for the equational theory (the trace replayer witnesses each rewrite),
Distinct verdicts are advisory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import target_types as tt
from . import target_terms as tg
from .rewrite import RewriteStep, normalize
from .target_types import NotInImageType, is_image
from .target_typing import (
    PARAMETRIC,
    PLAIN,
    TargetTypeMismatch,
    TgContext,
    typecheck_target,
)


class NotCanonical(Exception):
    pass


PROGRAM = "program"
CONTINUATION = "continuation"
ANSWER = "answer"


@dataclass(frozen=True)
class CanonicalForm:
    kind: str
    term: tg.TargetTerm
    type: tt.TargetType
    mode: str = field(default=PLAIN, compare=False)
    trace: tuple[RewriteStep, ...] = field(default=(), compare=False)


@dataclass(frozen=True)
class EqVerdict:
    equal: bool
    left: tg.TargetTerm
    right: tg.TargetTerm
    left_trace: tuple[RewriteStep, ...] = field(default=(), compare=False)
    right_trace: tuple[RewriteStep, ...] = field(default=(), compare=False)

    @property
    def shared(self) -> tg.TargetTerm:
        if not self.equal:
            raise ValueError("no shared canonical form for a Distinct verdict")
        return self.left

    def __bool__(self) -> bool:
        return self.equal


def canonicalize(
    term: tg.TargetTerm,
    type_: tt.TargetType | None = None,
    mode: str = PLAIN,
    context: TgContext = (),
) -> CanonicalForm:
    """Normalise and classify a term at a translated type (or R)."""
    if type_ is None:
        type_ = typecheck_target(context, term, mode)
    normal, steps = normalize(term, context, mode)
    kind = classify(normal, type_, mode, context)
    return CanonicalForm(kind, normal, type_, mode, tuple(steps))


def classify(
    term: tg.TargetTerm, type_: tt.TargetType, mode: str, context: TgContext = ()
) -> str:
    env = dict(context)
    if type_ == tt.R:
        _classify_answer(term, env, mode)
        return ANSWER
    if isinstance(type_, tt.Neg) and is_image(type_.body):
        _classify_program(term, type_.body, env, mode)
        return PROGRAM
    if is_image(type_):
        _classify_continuation(term, type_, env, mode)
        return CONTINUATION
    raise NotInImageType(type_)


def _classify_program(t, sdeg, env, mode) -> None:
    match t:
        case tg.TgVar(_):
            return
        case tg.TgLam(hint, ann, body):
            if ann != sdeg:
                raise NotCanonical(f"program abstraction annotated {ann}, expected {sdeg}")
            x = tg.fresh(hint or "k")
            _classify_answer(tg.open_var(body, x), {**env, x: ann}, mode)
            return
    raise NotCanonical(f"not a Program form: {t}")


def _classify_continuation(t, sdeg, env, mode) -> None:
    match t:
        case tg.TgVar(_):
            return
        case tg.Star() if mode == PARAMETRIC and sdeg == tt.TOP:
            return
        case tg.Pair(left, right):
            if not (isinstance(sdeg, tt.Conj) and isinstance(sdeg.left, tt.Neg)):
                raise NotCanonical(f"pair continuation at non-arrow image {sdeg}")
            _classify_program(left, sdeg.left.body, env, mode)
            _classify_continuation(right, sdeg.right, env, mode)
            return
        case tg.Pack(w, payload, ex):
            if not isinstance(sdeg, tt.Exists) or ex != sdeg:
                raise NotCanonical(f"pack continuation at {sdeg}")
            if not is_image(w):
                raise NotCanonical(f"pack witness {w} is not a translated type")
            _classify_continuation(payload, tt.inst_tvar(sdeg.body, w), env, mode)
            return
        case tg.LetPair(_, _, _, _) | tg.LetPack(_, _, _, _):
            _classify_let(t, env, mode, lambda body, env2: _classify_continuation(body, sdeg, env2, mode))
            return
    raise NotCanonical(f"not a Continuation form: {t}")


def _classify_answer(t, env, mode) -> None:
    match t:
        case tg.TgApp(fn, arg):
            fn_ty = _synth(fn, env, mode)
            if not (isinstance(fn_ty, tt.Neg) and is_image(fn_ty.body)):
                raise NotCanonical(f"answer head at type {fn_ty}")
            _classify_program(fn, fn_ty.body, env, mode)
            _classify_continuation(arg, fn_ty.body, env, mode)
            return
        case tg.LetPair(_, _, _, _) | tg.LetPack(_, _, _, _):
            _classify_let(t, env, mode, lambda body, env2: _classify_answer(body, env2, mode))
            return
    raise NotCanonical(f"not an Answer form: {t}")


def _classify_let(t, env, mode, classify_body) -> None:
    sty = _synth(t.scrut, env, mode)
    if isinstance(t, tg.LetPair):
        if not (isinstance(sty, tt.Conj) and is_image(sty)):
            raise NotCanonical(f"let-pair scrutinee at {sty}")
        _classify_continuation(t.scrut, sty, env, mode)
        x, y = tg.fresh(t.hint_x or "x"), tg.fresh(t.hint_y or "k")
        body = tg.open_var(tg.open_var(t.body, y), x, 1)
        classify_body(body, {**env, x: sty.left, y: sty.right})
    else:
        if not (isinstance(sty, tt.Exists) and is_image(sty)):
            raise NotCanonical(f"let-pack scrutinee at {sty}")
        _classify_continuation(t.scrut, sty, env, mode)
        tv, x = tg.fresh(t.hint_t or "X"), tg.fresh(t.hint_x or "k")
        body = tg.open_var(tg.open_tvar_term(t.body, tv), x)
        classify_body(body, {**env, x: tt.inst_tvar(sty.body, tt.TgVarT(tv))})


def _synth(t, env: dict, mode: str) -> tt.TargetType:
    return typecheck_target(tuple(env.items()), t, mode)


def eq_target(
    left: tg.TargetTerm,
    right: tg.TargetTerm,
    mode: str = PLAIN,
    context: TgContext = (),
) -> EqVerdict:
    """Decide provable equality by comparing canonical representatives."""
    lty = typecheck_target(context, left, mode)
    rty = typecheck_target(context, right, mode)
    if lty != rty:
        raise TargetTypeMismatch(f"eq_target across types {lty} vs {rty}")
    lnorm, lsteps = normalize(left, context, mode)
    rnorm, rsteps = normalize(right, context, mode)
    return EqVerdict(tg.equal(lnorm, rnorm), lnorm, rnorm, tuple(lsteps), tuple(rsteps))
