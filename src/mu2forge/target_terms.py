"""Terms of the target calculus.

Abstraction bodies are answers (type R); pairs and packs are eliminated
by let-bindings.  LetPair binds two term variables (index 1 = first,
index 0 = second component); LetPack binds one type and one term
variable.  Pack nodes carry their full existential type: the pack rule
cannot synthesise it from the payload alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .mu_terms import fresh  # noqa: F401 - shared fresh-atom supply, re-exported
from .target_types import TargetType, close_tvar, inst_tvar, open_tvar, subst_tvar

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
# Generic structural machinery: children indexed for path addressing.
# Child slots: TgLam.body=0; TgApp.fn=0,.arg=1; Pair.left=0,.right=1;
# LetPair.scrut=0,.body=1; Pack.payload=0; LetPack.scrut=0,.body=1.


def children(t: TargetTerm) -> tuple[TargetTerm, ...]:
    match t:
        case TgVar(_) | TgBVar(_) | Star():
            return ()
        case TgLam(_, _, body):
            return (body,)
        case TgApp(fn, arg):
            return (fn, arg)
        case Pair(left, right):
            return (left, right)
        case LetPair(_, _, scrut, body):
            return (scrut, body)
        case Pack(_, payload, _):
            return (payload,)
        case LetPack(_, _, scrut, body):
            return (scrut, body)
    raise TypeError(t)


def with_children(t: TargetTerm, kids: tuple[TargetTerm, ...]) -> TargetTerm:
    match t:
        case TgVar(_) | TgBVar(_) | Star():
            return t
        case TgLam(hint, ann, _):
            return TgLam(hint, ann, kids[0])
        case TgApp(_, _):
            return TgApp(kids[0], kids[1])
        case Pair(_, _):
            return Pair(kids[0], kids[1])
        case LetPair(hx, hy, _, _):
            return LetPair(hx, hy, kids[0], kids[1])
        case Pack(w, _, ex):
            return Pack(w, kids[0], ex)
        case LetPack(ht, hx, _, _):
            return LetPack(ht, hx, kids[0], kids[1])
    raise TypeError(t)


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


# ---------------------------------------------------------------------------
# Open/close/instantiate per namespace


def _map_term(t: TargetTerm, on_var, on_type, vd: int, td: int) -> TargetTerm:
    """Rebuild t applying on_var(node, vd) at variables and
    on_type(ty, td) at every type."""
    match t:
        case TgVar(_) | TgBVar(_):
            return on_var(t, vd)
        case Star():
            return t
        case TgLam(hint, ann, body):
            return TgLam(hint, on_type(ann, td), _map_term(body, on_var, on_type, vd + 1, td))
        case TgApp(fn, arg):
            return TgApp(
                _map_term(fn, on_var, on_type, vd, td),
                _map_term(arg, on_var, on_type, vd, td),
            )
        case Pair(left, right):
            return Pair(
                _map_term(left, on_var, on_type, vd, td),
                _map_term(right, on_var, on_type, vd, td),
            )
        case LetPair(hx, hy, scrut, body):
            return LetPair(
                hx,
                hy,
                _map_term(scrut, on_var, on_type, vd, td),
                _map_term(body, on_var, on_type, vd + 2, td),
            )
        case Pack(w, payload, ex):
            return Pack(
                on_type(w, td), _map_term(payload, on_var, on_type, vd, td), on_type(ex, td)
            )
        case LetPack(ht, hx, scrut, body):
            return LetPack(
                ht,
                hx,
                _map_term(scrut, on_var, on_type, vd, td),
                _map_term(body, on_var, on_type, vd + 1, td + 1),
            )
    raise TypeError(t)


def close_var(t: TargetTerm, x: str, depth: int = 0) -> TargetTerm:
    def on_var(node, vd):
        if isinstance(node, TgVar) and node.name == x:
            return TgBVar(depth + vd)
        return node

    return _map_term(t, on_var, lambda ty, td: ty, 0, 0)


def open_var(t: TargetTerm, x: str, depth: int = 0) -> TargetTerm:
    def on_var(node, vd):
        if isinstance(node, TgBVar) and node.index == depth + vd:
            return TgVar(x)
        return node

    return _map_term(t, on_var, lambda ty, td: ty, 0, 0)


def inst_var(t: TargetTerm, rep: TargetTerm, depth: int = 0) -> TargetTerm:
    def on_var(node, vd):
        if isinstance(node, TgBVar) and node.index == depth + vd:
            return rep
        return node

    return _map_term(t, on_var, lambda ty, td: ty, 0, 0)


def close_tvar_term(t: TargetTerm, x: str, depth: int = 0) -> TargetTerm:
    return _map_term(t, lambda n, vd: n, lambda ty, td: close_tvar(ty, x, depth + td), 0, 0)


def open_tvar_term(t: TargetTerm, x: str, depth: int = 0) -> TargetTerm:
    return _map_term(t, lambda n, vd: n, lambda ty, td: open_tvar(ty, x, depth + td), 0, 0)


def inst_tvar_term(t: TargetTerm, rep: TargetType, depth: int = 0) -> TargetTerm:
    return _map_term(t, lambda n, vd: n, lambda ty, td: inst_tvar(ty, rep, depth + td), 0, 0)


def subst_var(t: TargetTerm, x: str, rep: TargetTerm) -> TargetTerm:
    def on_var(node, vd):
        if isinstance(node, TgVar) and node.name == x:
            return rep
        return node

    return _map_term(t, on_var, lambda ty, td: ty, 0, 0)


def subst_tvar_term(t: TargetTerm, x: str, rep: TargetType) -> TargetTerm:
    return _map_term(t, lambda n, vd: n, lambda ty, td: subst_tvar(ty, x, rep), 0, 0)


def free_vars(t: TargetTerm) -> frozenset[str]:
    acc: set[str] = set()

    def on_var(node, vd):
        if isinstance(node, TgVar):
            acc.add(node.name)
        return node

    _map_term(t, on_var, lambda ty, td: ty, 0, 0)
    return frozenset(acc)


def free_tvars(t: TargetTerm) -> frozenset[str]:
    from .target_types import ftv

    acc: set[str] = set()
    _map_term(t, lambda n, vd: n, lambda ty, td: (acc.update(ftv(ty)), ty)[1], 0, 0)
    return frozenset(acc)
