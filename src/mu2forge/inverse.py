"""Inverse translation from canonical forms back to the mu-calculus.

`invert` runs `canonical`'s walk of the grammar with a builder that
reads each clause back: Programs invert to terms, Continuations to
one-hole contexts with a typed hole, Answers to terms of the falsity
type.  `invert_nameful` runs `canonical`'s pipeline with that builder
on a nameful term.  Hole filling is capture-permitting: the let clauses
bind the variables and names of the filled term, so contexts are
represented as closures that construct the binders around the hole.
The clauses build the mu-term nameful, with the atoms of the target's
binders, and one pass closes it when it is done.
"""

from __future__ import annotations

from typing import Callable

from . import mu_terms as tm
from . import mu_types as mt
from . import target_terms as tg
from . import target_types as tt
from .canonical import PROGRAM, CanonicalForm, NotCanonical, _canonical, _walk, eq_nameful
from .cps import translate
from .mu_typing import Context
from .printer import print_target_type as show
from .record import record
from .target_types import uncps_type
from .target_typing import PLAIN, TgContext


@record
class MuContext:
    """One-hole context  C[-] : bot  with a hole of type hole_type."""

    hole_type: mt.MuType
    fill: Callable[[tm.MuTerm], tm.MuTerm]

    def __call__(self, hole: tm.MuTerm) -> tm.MuTerm:
        return self.fill(hole)


def split_context(context: TgContext) -> tuple[Context, Context]:
    """Recover Gamma and Delta from a translated context not Gdeg, Ddeg."""
    gamma: list[tuple[str, mt.MuType]] = []
    delta: list[tuple[str, mt.MuType]] = []
    for atom, ty in context:
        if isinstance(ty, tt.Neg) and tt.is_image(ty.body):
            gamma.append((atom, uncps_type(ty.body)))
        elif tt.is_image(ty):
            delta.append((atom, uncps_type(ty)))
        else:
            raise NotCanonical(f"context entry {atom} : {show(ty)} is not translated")
    return tuple(gamma), tuple(delta)


def invert(form: CanonicalForm, context: TgContext = ()):
    """Invert a canonical form: term, context, or falsity term by kind."""
    return _invert(form, tg.to_nameful(form.term), context)


def _invert(form: CanonicalForm, term: tg.TargetTerm, context: TgContext):
    """invert with form.term already opened to the nameful term."""
    if form.mode != PLAIN:
        raise NotCanonical("inversion is defined on plain-mode canonical forms")
    kind, out = _walk(term, form.type, PLAIN, context, _Inverse())
    if kind != form.kind:
        raise NotCanonical(f"a {form.kind} at {show(form.type)}, the type of a {kind}")
    return _closed(out)


def invert_nameful(t: tg.TargetTerm, type_: tt.TargetType, context: TgContext = ()):
    """Normalise a nameful term of type type_ in plain mode and invert its
    canonical form, in one walk of the grammar: its kind and its inverse."""
    kind, out = _canonical(t, type_, PLAIN, context, _Inverse())[3:]
    return kind, _closed(out)


def _closed(out):
    """The nameful inverse closed, or for a context, closed when filled."""
    if isinstance(out, MuContext):
        return MuContext(out.hole_type, lambda h: tm.SYNTAX.close_binders(out.fill(h), tm.base_name))
    return tm.SYNTAX.close_binders(out, tm.base_name)


class _Inverse:
    """The nameful inverse of each clause of the grammar, given the
    inverses of its parts.  A context is filled through `fill`, which
    spares a frame per context over calling it."""

    def var(self, x):
        return tm.Var(x)

    def bold_mu(self, k, sdeg, answer):  # mu* k. answer
        ann = uncps_type(sdeg)
        return tm.Mu(k, ann, tm.FName(k), tm.TyApp(answer, ann))

    def named(self, k, sdeg):  # [k] -, its binder's atom bound nowhere
        return MuContext(uncps_type(sdeg), lambda h: tm.Mu(tm.fresh("_"), mt.BOT, tm.FName(k), h))

    def pair(self, sdeg, program, rest):  # C[- P]
        return MuContext(uncps_type(sdeg), lambda h: rest.fill(tm.App(h, program)))

    def pack(self, sdeg, w, rest):  # C[- w]
        ty = uncps_type(w)
        return MuContext(uncps_type(sdeg), lambda h: rest.fill(tm.TyApp(h, ty)))

    def apply(self, program, continuation):
        return continuation.fill(program)

    def let(self, lets, body):
        """let <x,k> = C in B  to  C[lam x. mu* k. B] and let <X,k> = C in B
        to  C[Lam X. mu* k. B], innermost first; over a context, a context."""
        if isinstance(body, MuContext):
            return MuContext(body.hole_type, lambda h: self.let(lets, body.fill(h)))
        for t, x, k, env, scrut in reversed(lets):
            body = self.bold_mu(k, env[k], body)
            if isinstance(t, tg.LetPair):
                body = tm.Lam(x, uncps_type(env[x].body), body)
            else:
                body = tm.TyLam(x, body)
            body = scrut.fill(body)
        return body


def roundtrip(form: CanonicalForm, context: TgContext = ()):
    """eq_target([[invert(P)]], P, plain): the fullness round trip."""
    if form.kind != PROGRAM:
        raise NotCanonical("round trips are defined on Programs")
    term = tg.to_nameful(form.term)  # one opening, for the walk and the equation
    inverted = _invert(form, term, context)
    gamma, delta = split_context(context)
    back, _ = translate(gamma, delta, inverted)
    return eq_nameful(back, term, PLAIN, context)
