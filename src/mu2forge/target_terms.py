"""Terms of the target calculus.

Abstraction bodies are answers (type R); pairs and packs are eliminated
by let-bindings.  LetPair binds two term variables (index 1 = first,
index 0 = second component); LetPack binds one type and one term
variable.  Pack nodes carry their full existential type: the pack rule
cannot synthesise it from the payload alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from . import target_types
from .mu_terms import fresh  # noqa: F401 - shared fresh-atom supply, re-exported
from .syntax import PASS, TERM, TVAR, TYPE, VAR, Child, Leaf, Syntax
from .target_types import TargetType

__all__ = [
    "TargetTerm", "TgVar", "TgBVar", "TgLam", "TgApp", "Pair", "LetPair",
    "Pack", "LetPack", "Star", "STAR", "fresh",
    "tg_lam", "tg_let_pair", "tg_let_pack",
    "open_var", "close_var", "inst_var", "open_tvar_term", "close_tvar_term",
    "inst_tvar_term", "subst_var", "subst_tvar_term", "free_vars", "free_tvars",
    "subterm_at", "replace_at", "iter_subterms",
]


class TargetTerm:
    __slots__ = ()


@dataclass(frozen=True)
class TgVar(TargetTerm):
    name: str


@dataclass(frozen=True)
class TgBVar(TargetTerm):
    index: int


@dataclass(frozen=True)
class TgLam(TargetTerm):
    hint: str = field(compare=False, hash=False)
    ann: TargetType
    body: TargetTerm


@dataclass(frozen=True)
class TgApp(TargetTerm):
    fn: TargetTerm
    arg: TargetTerm


@dataclass(frozen=True)
class Pair(TargetTerm):
    left: TargetTerm
    right: TargetTerm


@dataclass(frozen=True)
class LetPair(TargetTerm):
    hint_x: str = field(compare=False, hash=False)
    hint_y: str = field(compare=False, hash=False)
    scrut: TargetTerm
    body: TargetTerm  # binds x (index 1) and y (index 0)


@dataclass(frozen=True)
class Pack(TargetTerm):
    witness: TargetType
    payload: TargetTerm
    ex_ann: TargetType  # the full existential type of the pack


@dataclass(frozen=True)
class LetPack(TargetTerm):
    hint_t: str = field(compare=False, hash=False)
    hint_x: str = field(compare=False, hash=False)
    scrut: TargetTerm
    body: TargetTerm  # binds one type variable and one term variable


@dataclass(frozen=True)
class Star(TargetTerm):
    """The distinguished inhabitant of exists X. X (parametric mode only)."""


STAR = Star()


# ---------------------------------------------------------------------------
# Nameful smart constructors


def tg_lam(x: str, ann: TargetType, body: TargetTerm) -> TargetTerm:
    return TgLam(x, ann, close_var(body, x))


def tg_let_pair(x: str, y: str, scrut: TargetTerm, body: TargetTerm) -> TargetTerm:
    return LetPair(x, y, scrut, close_var(close_var(body, y), x, 1))


def tg_let_pack(tv: str, x: str, scrut: TargetTerm, body: TargetTerm) -> TargetTerm:
    return LetPack(tv, x, scrut, close_tvar_term(close_var(body, x), tv))


# ---------------------------------------------------------------------------
# Traversals, all derived from the binder table.  The term children of a
# node, in table order, are its path slots: TgLam.body=0; TgApp.fn=0,
# .arg=1; Pair.left=0,.right=1; LetPair.scrut=0,.body=1; Pack.payload=0;
# LetPack.scrut=0,.body=1.  Traces record paths, so the order is fixed.

TABLE = {
    **target_types.TABLE,
    TgVar: (Leaf(VAR, False),),
    TgBVar: (Leaf(VAR, True),),
    TgLam: (PASS, Child(TYPE), Child(TERM, var=1)),
    TgApp: (Child(TERM), Child(TERM)),
    Pair: (Child(TERM), Child(TERM)),
    LetPair: (PASS, PASS, Child(TERM), Child(TERM, var=2)),
    Pack: (Child(TYPE), Child(TERM), Child(TYPE)),
    LetPack: (PASS, PASS, Child(TERM), Child(TERM, var=1, tvar=1)),
    Star: (),
}
SYNTAX = Syntax(TABLE)
_CHILDREN = SYNTAX.children


def children(t: TargetTerm) -> tuple[TargetTerm, ...]:
    return _CHILDREN[t.__class__](t)


with_children = SYNTAX.with_children


def subterm_at(t: TargetTerm, path: tuple[int, ...]) -> TargetTerm:
    for i in path:
        t = children(t)[i]
    return t


def replace_at(t: TargetTerm, path: tuple[int, ...], new: TargetTerm) -> TargetTerm:
    if not path:
        return new
    kids = list(children(t))
    kids[path[0]] = replace_at(kids[path[0]], path[1:], new)
    return with_children(t, tuple(kids))


def iter_subterms(t: TargetTerm, path: tuple[int, ...] = ()):
    """Preorder traversal yielding (path, subterm)."""
    yield path, t
    for i, kid in enumerate(children(t)):
        yield from iter_subterms(kid, path + (i,))


# As in mu_terms: open_* / close_*(t, atom, depth=0), inst_*(t, rep, depth=0)
# and the free-atom sets, per namespace.
close_var = partial(SYNTAX.close, VAR)
open_var = partial(SYNTAX.open, VAR)
inst_var = partial(SYNTAX.inst, VAR)
close_tvar_term = partial(SYNTAX.close, TVAR)
open_tvar_term = partial(SYNTAX.open, TVAR)
inst_tvar_term = partial(SYNTAX.inst, TVAR)
free_vars = partial(SYNTAX.free, VAR)
free_tvars = partial(SYNTAX.free, TVAR)


def subst_var(t: TargetTerm, x: str, rep: TargetTerm) -> TargetTerm:
    return SYNTAX.subst(VAR, t, {x: rep})


def subst_tvar_term(t: TargetTerm, x: str, rep: TargetType) -> TargetTerm:
    return SYNTAX.subst(TVAR, t, {x: rep})
