"""Terms of the target calculus.

Abstraction bodies are answers (type R); pairs and packs are eliminated
by let-bindings.  LetPair binds two term variables (index 1 = first,
index 0 = second component); LetPack binds one type and one term
variable.  Pack nodes carry their full existential type: the pack rule
cannot synthesise it from the payload alone.
"""

from __future__ import annotations

from functools import partial

from . import target_types
from .mu_terms import fresh  # noqa: F401 - shared fresh-atom supply, re-exported
from .record import field, record
from .syntax import PASS, TERM, TVAR, TYPE, VAR, Child, Leaf, Syntax
from .target_types import TargetType

__all__ = [
    "TargetTerm", "TgVar", "TgBVar", "TgLam", "TgApp", "Pair", "LetPair",
    "Pack", "LetPack", "Star", "STAR", "fresh",
    "close_binders",
    "open_var", "close_var", "inst_var", "open_tvar_term", "close_tvar_term",
    "inst_tvar_term", "subst_var", "subst_tvar_term", "free_vars", "free_tvars",
    "subterm_at", "replace_at", "equal",
]


class TargetTerm:
    __slots__ = ()


@record
class TgVar(TargetTerm):
    name: str


@record
class TgBVar(TargetTerm):
    index: int


@record
class TgLam(TargetTerm):
    hint: str = field(compare=False)
    ann: TargetType
    body: TargetTerm


@record
class TgApp(TargetTerm):
    fn: TargetTerm
    arg: TargetTerm


@record
class Pair(TargetTerm):
    left: TargetTerm
    right: TargetTerm


@record
class LetPair(TargetTerm):
    hint_x: str = field(compare=False)
    hint_y: str = field(compare=False)
    scrut: TargetTerm
    body: TargetTerm  # binds x (index 1) and y (index 0)


@record
class Pack(TargetTerm):
    witness: TargetType
    payload: TargetTerm
    ex_ann: TargetType  # the full existential type of the pack


@record
class LetPack(TargetTerm):
    hint_t: str = field(compare=False)
    hint_x: str = field(compare=False)
    scrut: TargetTerm
    body: TargetTerm  # binds one type variable and one term variable


@record
class Star(TargetTerm):
    """The distinguished inhabitant of exists X. X (parametric mode only)."""


STAR = Star()


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
#: ``a == b`` without one Python frame per level: deep terms compare safely.
equal = SYNTAX.equal


def subterm_at(t: TargetTerm, path: tuple[int, ...]) -> TargetTerm:
    for i in path:
        t = children(t)[i]
    return t


def replace_at(t: TargetTerm, path: tuple[int, ...], new: TargetTerm) -> TargetTerm:
    """t with the subtree at path replaced by new, in one Python frame."""
    spine = []
    for i in path:
        spine.append(t)
        t = children(t)[i]
    for node, i in zip(reversed(spine), reversed(path)):
        kids = list(children(node))
        kids[i] = new
        new = with_children(node, tuple(kids))
    return new


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


# ---------------------------------------------------------------------------
# Nameful terms: every TgLam, LetPair and LetPack carries the atoms it binds
# in its hint slots.  Builders make nameful terms and close them once.

#: Per binding node, its hint slots in field order: the field, the
#: namespace it binds and the base name of a fresh atom for it.  The body
#: sits under all of them, a later slot innermost (LetPair: x is index 1,
#: y index 0); the field between the hints and the body (TgLam.ann, a
#: let's scrut) is outside them.
BINDERS = {
    TgLam: (("hint", VAR, "x"),),
    LetPair: (("hint_x", VAR, "x"), ("hint_y", VAR, "y")),
    LetPack: (("hint_t", TVAR, "X"), ("hint_x", VAR, "x")),
}


def close_binders(t: TargetTerm, hint=str) -> TargetTerm:
    """Abstract every binder's atoms in one pass (one Python frame per
    level): an atom's occurrences, in terms and annotations, become the
    index of its innermost binder, whose hint becomes hint(atom)."""
    levels: tuple[dict, dict] = ({}, {})  # VAR, TVAR: atom -> level of its binder
    depth = [0, 0]  # VAR, TVAR: binders around the current node

    def ty(a: TargetType) -> TargetType:
        return target_types.SYNTAX.close_all(TVAR, a, levels[TVAR], depth[TVAR])

    def go(t: TargetTerm) -> TargetTerm:
        cls = t.__class__
        if cls is TgVar:
            level = levels[VAR].get(t.name)
            return t if level is None else TgBVar(depth[VAR] - 1 - level)
        if cls is TgApp:
            return TgApp(go(t.fn), go(t.arg))
        if cls is Pair:
            return Pair(go(t.left), go(t.right))
        if cls is Pack:  # the surface reader leaves ex_ann None to resolve later
            ex = t.ex_ann
            return Pack(ty(t.witness), go(t.payload), None if ex is None else ty(ex))
        binders = BINDERS.get(cls)
        if binders is None:
            return t  # TgBVar, Star
        outer = ty(t.ann) if cls is TgLam else go(t.scrut)
        undo = []
        for field_name, ns, _ in binders:
            atom = getattr(t, field_name)
            undo.append((ns, atom, levels[ns].get(atom)))
            levels[ns][atom] = depth[ns]
            depth[ns] += 1
        body = go(t.body)
        for ns, atom, level in reversed(undo):
            depth[ns] -= 1
            if level is None:
                del levels[ns][atom]
            else:
                levels[ns][atom] = level
        return cls(*(hint(atom) for _, atom, _ in undo), outer, body)

    return go(t)
