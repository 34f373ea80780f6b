"""Types of the target calculus: X | R | not t | t /\\ t | exists X. t.

Negation is primitive (read: t -> R); there is no general arrow.  Same
locally nameless discipline as the source types.
"""

from __future__ import annotations

from functools import partial

from . import mu_types as mt
from .record import field, record
from .syntax import TVAR, TYPE, Child, Hint, Leaf, Syntax


class TargetType:
    __slots__ = ()


@record
class TgVarT(TargetType):
    name: str


@record
class TgBoundT(TargetType):
    index: int


@record
class RType(TargetType):
    pass


@record
class Neg(TargetType):
    body: TargetType


@record
class Conj(TargetType):
    left: TargetType
    right: TargetType


@record
class Exists(TargetType):
    hint: str = field(compare=False)
    body: TargetType


#: Binder table (see :mod:`.syntax`); target_terms extends it.
TABLE = {
    TgVarT: (Leaf(TVAR, False),),
    TgBoundT: (Leaf(TVAR, True),),
    RType: (),
    Neg: (Child(TYPE),),
    Conj: (Child(TYPE), Child(TYPE)),
    Exists: (Hint(TVAR, "X"), Child(TYPE, tvar=1)),
}
SYNTAX = Syntax(TABLE)

R = RType()

#: exists X. X, the translation of the falsity type; terminal in
#: parametric mode.
TOP: TargetType = Exists("X", TgBoundT(0))


def exists(name: str, body: TargetType) -> TargetType:
    return Exists(name, close_tvar(body, name))


# As in mu_types: ftv(ty); close_tvar / open_tvar(ty, atom, depth=0);
# inst_tvar(ty, rep, depth=0).
ftv = partial(SYNTAX.free, TVAR)
close_tvar = partial(SYNTAX.close, TVAR)
open_tvar = partial(SYNTAX.open, TVAR)
inst_tvar = partial(SYNTAX.inst, TVAR)


def subst_tvar(ty: TargetType, name: str, rep: TargetType) -> TargetType:
    return SYNTAX.subst(TVAR, ty, {name: rep})


# Memos of pure functions of a type object, kept in its instance dict
# beside the record fields (``==``, ``hash`` and ``repr`` read only the
# fields).  A type is immutable, so a memo never goes stale, whatever
# context the type is later read under.


def ftv_memo(ty: TargetType) -> frozenset[str]:
    """ftv(ty), computed once per type object."""
    memo = ty.__dict__
    atoms = memo.get("_ftv")
    if atoms is None:
        atoms = memo["_ftv"] = ftv(ty)
    return atoms


def open_exists(ex: Exists, atom: str) -> TargetType:
    """The body of ex opened at the type atom, inst_tvar(ex.body,
    TgVarT(atom)), computed once per (Exists object, atom)."""
    opened = ex.__dict__.setdefault("_opened", {})
    body = opened.get(atom)
    if body is None:
        body = opened[atom] = inst_tvar(ex.body, TgVarT(atom))
    return body


# ---------------------------------------------------------------------------
# The image of the type translation.  sigma-degree types are
#   X | not a /\ b | exists X. a      (a, b again in the image)
# and a Program type is the negation of one of these.  The recogniser and
# the inverse map drive the canonical-form machinery and uncps.


class NotInImageType(Exception):
    pass


def is_image(ty: TargetType) -> bool:
    """Is ty = sigma-degree for some source type sigma?"""
    match ty:
        case TgVarT(_) | TgBoundT(_):
            return True
        case Conj(Neg(left), right):
            return is_image(left) and is_image(right)
        case Exists(_, body):
            return is_image(body)
        case _:
            return False


def uncps_type(ty: TargetType) -> mt.MuType:
    """Invert the type translation on its image; raises NotInImageType."""
    match ty:
        case TgVarT(n):
            return mt.TVar(n)
        case TgBoundT(k):
            return mt.TBound(k)
        case Conj(Neg(left), right):
            return mt.Arrow(uncps_type(left), uncps_type(right))
        case Exists(hint, body):
            return mt.Forall(hint, uncps_type(body))
    raise NotInImageType(ty)
