"""Types of the target calculus: X | R | not t | t /\\ t | exists X. t.

Negation is primitive (read: t -> R); there is no general arrow.  Same
locally nameless discipline as the source types.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import mu_types as mt


class TargetType:
    __slots__ = ()


@dataclass(frozen=True)
class TgVarT(TargetType):
    name: str


@dataclass(frozen=True)
class TgBoundT(TargetType):
    index: int


@dataclass(frozen=True)
class RType(TargetType):
    pass


@dataclass(frozen=True)
class Neg(TargetType):
    body: TargetType


@dataclass(frozen=True)
class Conj(TargetType):
    left: TargetType
    right: TargetType


@dataclass(frozen=True)
class Exists(TargetType):
    hint: str = field(compare=False, hash=False)
    body: TargetType


R = RType()

#: exists X. X, the translation of the falsity type; terminal in
#: parametric mode.
TOP: TargetType = Exists("X", TgBoundT(0))


def exists(name: str, body: TargetType) -> TargetType:
    return Exists(name, close_tvar(body, name))


def ftv(ty: TargetType) -> frozenset[str]:
    match ty:
        case TgVarT(name):
            return frozenset((name,))
        case TgBoundT(_) | RType():
            return frozenset()
        case Neg(body):
            return ftv(body)
        case Conj(left, right):
            return ftv(left) | ftv(right)
        case Exists(_, body):
            return ftv(body)
    raise TypeError(ty)


def close_tvar(ty: TargetType, name: str, depth: int = 0) -> TargetType:
    match ty:
        case TgVarT(n):
            return TgBoundT(depth) if n == name else ty
        case TgBoundT(_) | RType():
            return ty
        case Neg(body):
            return Neg(close_tvar(body, name, depth))
        case Conj(left, right):
            return Conj(close_tvar(left, name, depth), close_tvar(right, name, depth))
        case Exists(hint, body):
            return Exists(hint, close_tvar(body, name, depth + 1))
    raise TypeError(ty)


def open_tvar(ty: TargetType, name: str, depth: int = 0) -> TargetType:
    match ty:
        case TgVarT(_) | RType():
            return ty
        case TgBoundT(k):
            return TgVarT(name) if k == depth else ty
        case Neg(body):
            return Neg(open_tvar(body, name, depth))
        case Conj(left, right):
            return Conj(open_tvar(left, name, depth), open_tvar(right, name, depth))
        case Exists(hint, body):
            return Exists(hint, open_tvar(body, name, depth + 1))
    raise TypeError(ty)


def inst_tvar(ty: TargetType, rep: TargetType, depth: int = 0) -> TargetType:
    match ty:
        case TgVarT(_) | RType():
            return ty
        case TgBoundT(k):
            return rep if k == depth else ty
        case Neg(body):
            return Neg(inst_tvar(body, rep, depth))
        case Conj(left, right):
            return Conj(inst_tvar(left, rep, depth), inst_tvar(right, rep, depth))
        case Exists(hint, body):
            return Exists(hint, inst_tvar(body, rep, depth + 1))
    raise TypeError(ty)


def subst_tvar(ty: TargetType, name: str, rep: TargetType) -> TargetType:
    match ty:
        case TgVarT(n):
            return rep if n == name else ty
        case TgBoundT(_) | RType():
            return ty
        case Neg(body):
            return Neg(subst_tvar(body, name, rep))
        case Conj(left, right):
            return Conj(subst_tvar(left, name, rep), subst_tvar(right, name, rep))
        case Exists(hint, body):
            return Exists(hint, subst_tvar(body, name, rep))
    raise TypeError(ty)


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
