"""Canonical forms and the target equality oracle.

A normalised well-typed term at a translated type classifies into the
Program / Continuation / Answer grammar:

    Program      : not sdeg   P ::= x | lam k. A
    Continuation : sdeg       C ::= k | <P, C> | <sdeg, C>
                                  | let <x,k> = C in C | let <X,k> = C in C
    Answer       : R          A ::= P C | let <x,k> = C in A
                                  | let <X,k> = C in A

In parametric mode Star is additionally a Continuation at exists X. X.
One walk checks the grammar, each clause once, and hands what each
clause found to an optional builder: `classify` runs it with none, and
`inverse.invert` with one that reads each clause back as a mu-term.

Equality is alpha-identity of canonical forms.  An Equal verdict is
sound as far as every rule of the rewrite engine is an instance, or a
composite of instances, of the equational theory; nothing on the
verdict path re-checks the trace, and `rewrite.replay` re-runs the
engine's own rules.  Distinct verdicts are advisory.
"""

from __future__ import annotations

from . import target_types as tt
from . import target_terms as tg
from .printer import print_target_term, print_target_type as show
from .record import field, record
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


@record
class CanonicalForm:
    kind: str
    term: tg.TargetTerm
    type: tt.TargetType
    mode: str = field(default=PLAIN, compare=False)
    trace: tuple[RewriteStep, ...] = field(default=(), compare=False)


@record
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
    return _walk(term, type_, mode, context)[0]


def _walk(term, type_, mode, context, build=None):
    """Check term against the grammar at type_, each clause once, and
    return its kind and what build made of its clauses, bottom up (None
    without a builder)."""
    env = dict(context)
    if type_ == tt.R:
        return ANSWER, _answer(term, env, mode, build)
    if isinstance(type_, tt.Neg) and is_image(type_.body):
        return PROGRAM, _program(term, type_.body, env, mode, build)
    if is_image(type_):
        return CONTINUATION, _continuation(term, type_, env, mode, build)
    raise NotInImageType(type_)


def _program(t, sdeg, env, mode, build):
    match t:
        case tg.TgVar(x):
            return build and build.var(x)
        case tg.TgLam(hint, ann, body):
            if ann != sdeg:
                raise NotCanonical(
                    f"program abstraction annotated {show(ann)}, expected {show(sdeg)}"
                )
            k = tg.fresh(hint or "k")
            answer = _answer(tg.open_var(body, k), {**env, k: ann}, mode, build)
            return build and build.bold_mu(k, sdeg, answer)
    raise NotCanonical(f"not a Program form: {print_target_term(t)}")


def _continuation(t, sdeg, env, mode, build):
    t, env, lets = _lets(t, env, mode, build)
    match t:
        case tg.TgVar(k):
            out = build and build.named(k, sdeg)
        case tg.Star() if mode == PARAMETRIC and sdeg == tt.TOP:
            out = None  # a builder runs in plain mode only
        case tg.Pair(left, right):
            if not (isinstance(sdeg, tt.Conj) and isinstance(sdeg.left, tt.Neg)):
                raise NotCanonical(f"pair continuation at non-arrow image {show(sdeg)}")
            program = _program(left, sdeg.left.body, env, mode, build)
            rest = _continuation(right, sdeg.right, env, mode, build)
            out = build and build.pair(sdeg, program, rest)
        case tg.Pack(w, payload, ex):
            if not isinstance(sdeg, tt.Exists) or ex != sdeg:
                raise NotCanonical(f"pack continuation at {show(sdeg)}")
            if not is_image(w):
                raise NotCanonical(f"pack witness {show(w)} is not a translated type")
            rest = _continuation(payload, tt.inst_tvar(sdeg.body, w), env, mode, build)
            out = build and build.pack(sdeg, w, rest)
        case _:
            raise NotCanonical(f"not a Continuation form: {print_target_term(t)}")
    return build.let(lets, out) if lets and build else out


def _answer(t, env, mode, build):
    t, env, lets = _lets(t, env, mode, build)
    if not isinstance(t, tg.TgApp):
        raise NotCanonical(f"not an Answer form: {print_target_term(t)}")
    fn_ty = _synth(t.fn, env, mode)
    if not (isinstance(fn_ty, tt.Neg) and is_image(fn_ty.body)):
        raise NotCanonical(f"answer head at type {show(fn_ty)}")
    program = _program(t.fn, fn_ty.body, env, mode, build)
    continuation = _continuation(t.arg, fn_ty.body, env, mode, build)
    out = build and build.apply(program, continuation)
    return build.let(lets, out) if lets and build else out


def _lets(t, env, mode, build):
    """Check the lets that t starts with, in one loop: the term under them,
    its environment, and per let what a builder closes over that term."""
    lets = []
    while isinstance(t, (tg.LetPair, tg.LetPack)):
        pair = isinstance(t, tg.LetPair)
        sty = _synth(t.scrut, env, mode)
        if not (isinstance(sty, tt.Conj if pair else tt.Exists) and is_image(sty)):
            raise NotCanonical(f"let-{'pair' if pair else 'pack'} scrutinee at {show(sty)}")
        scrut = _continuation(t.scrut, sty, env, mode, build)
        if pair:
            x, k = tg.fresh(t.hint_x or "x"), tg.fresh(t.hint_y or "k")
            body = tg.open_var(tg.open_var(t.body, k), x, 1)
            env = {**env, x: sty.left, k: sty.right}
        else:
            x, k = tg.fresh(t.hint_t or "X"), tg.fresh(t.hint_x or "k")
            body = tg.open_var(tg.open_tvar_term(t.body, x), k)
            env = {**env, k: tt.inst_tvar(sty.body, tt.TgVarT(x))}
        lets.append((t, x, k, env, scrut))
        t = body
    return t, env, lets


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
        raise TargetTypeMismatch(f"eq_target across types {show(lty)} vs {show(rty)}")
    lnorm, lsteps = normalize(left, context, mode)
    rnorm, rsteps = normalize(right, context, mode)
    return EqVerdict(tg.equal(lnorm, rnorm), lnorm, rnorm, tuple(lsteps), tuple(rsteps))
