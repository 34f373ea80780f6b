"""Inverse translation from canonical forms back to the mu-calculus.

`invert` runs `canonical`'s walk of the grammar with a builder that
reads each clause back: Programs invert to terms, Continuations to
one-hole contexts with a typed hole, Answers to terms of the falsity
type.  `invert_term` normalises a term of a given type and runs that
walk on its normal form, once.  Hole filling is capture-permitting: the
let clauses bind the variables and names of the filled term, so contexts
are represented as closures that construct the binders around the hole.
"""

from __future__ import annotations

from typing import Callable

from . import mu_terms as tm
from . import mu_types as mt
from . import target_terms as tg
from . import target_types as tt
from .canonical import PROGRAM, CanonicalForm, NotCanonical, _walk, eq_target
from .cps import cps_term_typed
from .mu_typing import Context
from .printer import print_target_type as show
from .record import record
from .rewrite import normalize
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
    if form.mode != PLAIN:
        raise NotCanonical("inversion is defined on plain-mode canonical forms")
    kind, out = _walk(form.term, form.type, PLAIN, context, _Inverse())
    if kind != form.kind:
        raise NotCanonical(f"a {form.kind} at {show(form.type)}, the type of a {kind}")
    return out


def invert_term(term: tg.TargetTerm, type_: tt.TargetType, context: TgContext = ()):
    """Normalise a term of type type_ in plain mode and invert its
    canonical form, in one walk of the grammar: its kind and its inverse."""
    normal, _ = normalize(term, context, PLAIN)
    return _walk(normal, type_, PLAIN, context, _Inverse())


class _Inverse:
    """The inverse of each clause of the grammar, given the inverses of
    its parts.  A context is filled through `fill`, which spares a frame
    per context over calling it."""

    def var(self, x):
        return tm.Var(x)

    def bold_mu(self, k, sdeg, answer):
        return tm.bold_mu(k, uncps_type(sdeg), answer)

    def named(self, k, sdeg):  # [k] -
        return MuContext(uncps_type(sdeg), lambda h: tm.named(k, h))

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
            body = tm.bold_mu(k, uncps_type(env[k]), body)
            if isinstance(t, tg.LetPair):
                body = tm.lam(x, uncps_type(env[x].body), body)
            else:
                body = tm.tylam(x, body)
            body = scrut.fill(body)
        return body


def roundtrip(form: CanonicalForm, context: TgContext = ()):
    """eq_target([[invert(P)]], P, plain): the fullness round trip."""
    if form.kind != PROGRAM:
        raise NotCanonical("round trips are defined on Programs")
    inverted = invert(form, context)
    gamma, delta = split_context(context)
    back, _ = cps_term_typed(gamma, delta, inverted)
    return eq_target(back, form.term, PLAIN, context)
