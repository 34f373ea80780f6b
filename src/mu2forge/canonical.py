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
It runs on the nameful form (see `target_terms`), where each binder's
atom is its hint and unique, so one environment serves every scope, and
it types answer heads and let scrutinees with `rewrite.nameful_synth`.
One pipeline, `_canonical`, types a nameful term unless its type is
given, normalises it and walks the normal form: `canonicalize_nameful`
closes only that normal form, `inverse.invert_nameful` closes nothing,
and `canonicalize` opens a locally closed input once.

Equality is alpha-identity of canonical forms.  An Equal verdict is
sound as far as every rule of the rewrite engine is an instance, or a
composite of instances, of the equational theory; nothing on the
verdict path re-checks the trace, and `rewrite.replay` re-runs the
engine's own rules.  Distinct verdicts are advisory.

`eq_nameful` typechecks its two nameful sides, the only check of the
CPS translation's output on the `eq_mu` path, and normalises them in
lockstep with `rewrite.normalize_pair`.  `theory.eq_mu` hands it the
CPS images as the translation builds them; `eq_target` opens two
locally closed sides and calls it.  `eq_typed` is the decision after
the typing: `eq --target` hands it each side as
`target_typing.resolve_nameful` typed it.  Most equations asked are
Equal, and their sides are alpha-equal (`tg.nameful_equal`, on the
nameful sides in place) after the first contraction phase or earlier;
from there the right side applies the left side's steps to its own
term instead of searching for them.  A phase's steps depend only on
the alpha-class of its input, so both normal forms and both traces are
the ones two `normalize` calls give, and the verdict is Equal exactly
when the sides met.  Only the two normal forms are closed.
"""

from __future__ import annotations

from . import target_types as tt
from . import target_terms as tg
from .printer import print_target_term, print_target_type as show
from .record import field, record
from .rewrite import RewriteStep, free_atoms, from_nameful, nameful_synth, normalize_nameful, normalize_pair
from .target_types import NotInImageType, is_image
from .target_typing import (
    PARAMETRIC,
    PLAIN,
    TargetTypeMismatch,
    TgContext,
    UnboundTargetVariable,
    typecheck_nameful,
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
    term: tg.TargetTerm, type_: tt.TargetType | None = None, mode: str = PLAIN, context: TgContext = ()
) -> CanonicalForm:
    """canonicalize_nameful of a locally closed term, opened once."""
    return canonicalize_nameful(tg.to_nameful(term), type_, mode, context)


def canonicalize_nameful(
    t: tg.TargetTerm, type_: tt.TargetType | None = None, mode: str = PLAIN, context: TgContext = ()
) -> CanonicalForm:
    """Normalise and classify a nameful term at a translated type (or R);
    the form holds its normal form closed."""
    normal, steps, type_, kind, _ = _canonical(t, type_, mode, context)
    return CanonicalForm(kind, from_nameful(normal), type_, mode, tuple(steps))


def _canonical(t, type_, mode, context, build=None):
    """Type nameful t unless type_ is given, normalise it and walk its
    normal form once with build: the nameful normal form, its steps, its
    type, its kind and what build made of it."""
    if type_ is None:
        type_ = typecheck_nameful(context, t, mode)
    normal, steps = normalize_nameful(t, dict(context), mode)
    kind, out = _walk(normal, type_, mode, context, build)
    return normal, steps, type_, kind, out


def classify(
    term: tg.TargetTerm, type_: tt.TargetType, mode: str, context: TgContext = ()
) -> str:
    return _walk(tg.to_nameful(term), type_, mode, context)[0]


def _walk(t, type_, mode, context, build=None):
    """Check nameful t against the grammar at type_, each clause once,
    and return its kind and what build made of its clauses, bottom up
    (None without a builder).  A free variable of t that context lacks
    raises what typecheck_target raises for it."""
    env = dict(context)
    free = [x for x in free_atoms(t) if x not in env]
    if free:
        raise UnboundTargetVariable(min(free))
    if type_ == tt.R:
        return ANSWER, _answer(t, env, mode, build)
    if isinstance(type_, tt.Neg) and is_image(type_.body):
        return PROGRAM, _program(t, type_.body, env, mode, build)
    if is_image(type_):
        return CONTINUATION, _continuation(t, type_, env, mode, build)
    raise NotInImageType(type_)


def _program(t, sdeg, env, mode, build):
    match t:
        case tg.TgVar(x):
            return build and build.var(x)
        case tg.TgLam(k, ann, body):
            if ann != sdeg:
                raise NotCanonical(
                    f"program abstraction annotated {show(ann)}, expected {show(sdeg)}"
                )
            env[k] = ann
            answer = _answer(body, env, mode, build)
            return build and build.bold_mu(k, sdeg, answer)
    raise NotCanonical(f"not a Program form: {print_target_term(from_nameful(t))}")


def _continuation(t, sdeg, env, mode, build):
    t, lets = _lets(t, env, mode, build)
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
            raise NotCanonical(f"not a Continuation form: {print_target_term(from_nameful(t))}")
    return build.let(lets, out) if lets and build else out


def _answer(t, env, mode, build):
    t, lets = _lets(t, env, mode, build)
    if not isinstance(t, tg.TgApp):
        raise NotCanonical(f"not an Answer form: {print_target_term(from_nameful(t))}")
    fn_ty = nameful_synth(t.fn, env)
    if not (isinstance(fn_ty, tt.Neg) and is_image(fn_ty.body)):
        raise NotCanonical(f"answer head at type {show(fn_ty)}")
    program = _program(t.fn, fn_ty.body, env, mode, build)
    continuation = _continuation(t.arg, fn_ty.body, env, mode, build)
    out = build and build.apply(program, continuation)
    return build.let(lets, out) if lets and build else out


def _lets(t, env, mode, build):
    """Check the lets that t starts with, in one loop, entering their atoms
    in env: the term under them, and per let what a builder closes over it."""
    lets = []
    while isinstance(t, (tg.LetPair, tg.LetPack)):
        pair = isinstance(t, tg.LetPair)
        sty = nameful_synth(t.scrut, env)
        if not (isinstance(sty, tt.Conj if pair else tt.Exists) and is_image(sty)):
            raise NotCanonical(f"let-{'pair' if pair else 'pack'} scrutinee at {show(sty)}")
        scrut = _continuation(t.scrut, sty, env, mode, build)
        if pair:
            x, k = t.hint_x, t.hint_y
            env[x], env[k] = sty.left, sty.right
        else:
            x, k = t.hint_t, t.hint_x
            env[k] = tt.open_exists(sty, x)
        lets.append((t, x, k, env, scrut))
        t = t.body
    return t, lets



def eq_target(
    left: tg.TargetTerm, right: tg.TargetTerm, mode: str = PLAIN, context: TgContext = ()
) -> EqVerdict:
    """eq_nameful of two locally closed terms, each opened once."""
    return eq_nameful(tg.to_nameful(left), tg.to_nameful(right), mode, context)


def eq_nameful(
    left: tg.TargetTerm, right: tg.TargetTerm, mode: str = PLAIN, context: TgContext = ()
) -> EqVerdict:
    """Decide provable equality of two nameful terms by comparing
    canonical representatives.

    Both sides are typechecked, then normalised in lockstep
    (`rewrite.normalize_pair`): once the right side is alpha-equal to
    the left, it replays the left side's remaining steps instead of
    searching.  That is exact, because no rule reads an atom's name, so
    the normal forms, binder names included, and the traces are those
    of `normalize` on each side; and the sides are Equal exactly when
    they met.
    """
    lty = typecheck_nameful(context, left, mode)
    rty = typecheck_nameful(context, right, mode)
    return eq_typed(left, lty, right, rty, mode, context)


def eq_typed(
    left: tg.TargetTerm,
    lty: tt.TargetType,
    right: tg.TargetTerm,
    rty: tt.TargetType,
    mode: str = PLAIN,
    context: TgContext = (),
) -> EqVerdict:
    """eq_nameful of two nameful sides already typed under context, at
    lty and rty (as `target_typing.resolve_nameful` returns them)."""
    if lty != rty:
        raise TargetTypeMismatch(f"eq_target across types {show(lty)} vs {show(rty)}")
    lnorm, lsteps, rnorm, rsteps, met = normalize_pair(left, right, context, mode)
    return EqVerdict(met is not None, lnorm, rnorm, tuple(lsteps), tuple(rsteps))
