"""Terms of the target calculus.

Abstraction bodies are answers (type R); pairs and packs are eliminated
by let-bindings.  LetPair binds two term variables (index 1 = first,
index 0 = second component); LetPack binds one type and one term
variable.  Pack nodes carry their full existential type: the pack rule
cannot synthesise it from the payload alone.

Callers pass, and the kernel prints, locally closed terms.  Inside the
kernel a term is nameful: each binder holds a globally unique atom in
its hint slot, and its occurrences are that atom.  `to_nameful` opens a
closed term and `close_binders` closes a nameful one, by the binder
passes `syntax` derives from the table; typing, rewriting, the canonical
walk and the alpha-equality of the lockstep (`nameful_equal`) run nameful.
"""

from __future__ import annotations

from functools import partial

from . import target_types
from .mu_terms import fresh
from .record import field, record
from .syntax import TERM, TVAR, TYPE, VAR, Child, Hint, Leaf, Syntax
from .target_types import TargetType


class TargetTypeError(Exception):
    pass


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
    TgLam: (Hint(VAR, "x"), Child(TYPE), Child(TERM, var=1)),
    TgApp: (Child(TERM), Child(TERM)),
    Pair: (Child(TERM), Child(TERM)),
    LetPair: (Hint(VAR, "x"), Hint(VAR, "y"), Child(TERM), Child(TERM, var=2)),
    Pack: (Child(TYPE), Child(TERM), Child(TYPE)),
    LetPack: (Hint(TVAR, "X"), Hint(VAR, "x"), Child(TERM), Child(TERM, var=1, tvar=1)),
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


# open_var(t, atom, depth=0) and the free-atom sets, per namespace; the
# other binder operations are SYNTAX.<op>(namespace, t, ...).
open_var = partial(SYNTAX.open, VAR)
free_vars = partial(SYNTAX.free, VAR)
free_tvars = partial(SYNTAX.free, TVAR)


def subst_var(t: TargetTerm, x: str, rep: TargetTerm) -> TargetTerm:
    return SYNTAX.subst(VAR, t, {x: rep})


def subst_tvar_term(t: TargetTerm, x: str, rep: TargetType) -> TargetTerm:
    return SYNTAX.subst(TVAR, t, {x: rep})


# ---------------------------------------------------------------------------
# Nameful terms: every TgLam, LetPair and LetPack carries the atoms it binds
# in its hint slots.  Builders make nameful terms and close them once.

#: Per binding node, its hint slots in field order (`Syntax.hints`).  The
#: body sits under all of them, a later slot innermost (LetPair: x is
#: index 1, y index 0); the field between the hints and the body
#: (TgLam.ann, a let's scrut) is outside them.
BINDERS = {cls: hints for cls, hints in SYNTAX.hints.items() if hints and issubclass(cls, TargetTerm)}


def close_binders(t: TargetTerm, hint=str) -> TargetTerm:
    """The locally closed form of a nameful term (see `Syntax.close_binders`)."""
    return SYNTAX.close_binders(t, hint)


def to_nameful(t: TargetTerm) -> TargetTerm:
    """The nameful form of a locally closed term, each binder opened with
    a fresh atom (see `Syntax.open_binders`); a dangling term index is a
    typing error."""
    return SYNTAX.open_binders(t, fresh, TargetTypeError)


#: Per class of a free occurrence, its namespace: TgVar VAR, TgVarT TVAR.
_ATOM_NS = {cls: ns for ns, cls in SYNTAX.free_leaf.items()}


def nameful_equal(a: TargetTerm, b: TargetTerm) -> bool:
    """Are two nameful terms alpha-equal, that is, are their closed forms
    `equal`?  One parallel walk over an explicit stack that builds
    nothing and stops at the first difference.  Binder atoms are paired
    as they are met, per namespace, both ways (left to right and right
    to left); an occurrence matches if its two atoms are paired with each
    other, or are both unpaired and the same free atom.  That is exact
    when, as in every nameful term the kernel makes, no binder's atom is
    free in its side or bound again inside its own scope; a shared
    subterm object may repeat its binders elsewhere."""
    pairs = (({}, {}), ({}, {}))  # VAR, TVAR: left atom -> right atom, right -> left
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        cls = a.__class__
        if cls is not b.__class__:
            return False
        ns = _ATOM_NS.get(cls)
        if ns is not None:
            there, back = pairs[ns]
            x, y = a.name, b.name
            if there.get(x, x) != y or back.get(y, y) != x:
                return False
            continue
        values, subtrees = SYNTAX.compared[cls]
        if values(a) != values(b):
            return False
        for field_name, ns, _ in BINDERS.get(cls, ()):
            x, y = getattr(a, field_name), getattr(b, field_name)
            pairs[ns][0][x] = y
            pairs[ns][1][y] = x
        todo += zip(subtrees(a), subtrees(b))
    return True
