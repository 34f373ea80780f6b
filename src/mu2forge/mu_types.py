"""Types of the second-order lambda-mu calculus.

Locally nameless representation: bound type variables are de Bruijn
indices, free ones are named atoms.  Alpha-equivalence is therefore
plain structural equality; binder hints are kept for printing only and
never participate in comparison.
"""

from __future__ import annotations

from functools import partial

from .record import field, record
from .syntax import PASS, TVAR, TYPE, Child, Leaf, Syntax


class MuType:
    __slots__ = ()


@record
class TVar(MuType):
    """Free type variable."""

    name: str


@record
class TBound(MuType):
    """Bound type variable (de Bruijn index)."""

    index: int


@record
class Arrow(MuType):
    dom: MuType
    cod: MuType


@record
class Forall(MuType):
    hint: str = field(compare=False)
    body: MuType


#: Binder table (see :mod:`.syntax`); mu_terms extends it.
TABLE = {
    TVar: (Leaf(TVAR, False),),
    TBound: (Leaf(TVAR, True),),
    Arrow: (Child(TYPE), Child(TYPE)),
    Forall: (PASS, Child(TYPE, tvar=1)),
}
SYNTAX = Syntax(TABLE)

#: The falsity type, forall X. X.
BOT: MuType = Forall("X", TBound(0))


def neg(ty: MuType) -> MuType:
    """sigma -> bot."""
    return Arrow(ty, BOT)


def is_bot(ty: MuType) -> bool:
    return isinstance(ty, Forall) and ty.body == TBound(0)


def is_neg(ty: MuType) -> bool:
    return isinstance(ty, Arrow) and is_bot(ty.cod)


def forall(name: str, body: MuType) -> MuType:
    """Bind the free type variable `name` in `body`."""
    return Forall(name, close_tvar(body, name))


# ftv(ty); close_tvar / open_tvar(ty, atom, depth=0); inst_tvar(ty, rep,
# depth=0) with a locally closed rep; locally_closed(ty, depth=0).
ftv = partial(SYNTAX.free, TVAR)
close_tvar = partial(SYNTAX.close, TVAR)
open_tvar = partial(SYNTAX.open, TVAR)
inst_tvar = partial(SYNTAX.inst, TVAR)
locally_closed = partial(SYNTAX.locally_closed, TVAR)


def subst_tvar(ty: MuType, name: str, rep: MuType) -> MuType:
    """Capture-avoiding substitution of a free type variable."""
    return SYNTAX.subst(TVAR, ty, {name: rep})
