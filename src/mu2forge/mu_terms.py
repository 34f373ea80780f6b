"""Terms of the second-order lambda-mu calculus.

Three disjoint binder namespaces: term variables (bound by Lam), type
variables (bound by TyLam, and by Forall inside annotations), and names
a.k.a. continuation variables (bound by Mu).  Each namespace has its own
de Bruijn index stream; a binder shifts only its own stream.

The single name-introducing construct is the core form  mu a:s. [b] M
(node ``Mu``).  The named-term and bold-mu sugar of the surface language
desugar onto it via :func:`named` and :func:`bold_mu`.
"""

from __future__ import annotations

import itertools
from functools import partial

from . import mu_types
from .mu_types import BOT, MuType, is_bot
from .record import field, record
from .syntax import NAME, NAME_REF, TERM, TVAR, TYPE, VAR, Child, Hint, Leaf, Syntax

_fresh_counter = itertools.count(1)


def fresh(base: str = "x") -> str:
    """Globally fresh atom; the numeric suffix never collides with user input."""
    return f"{base}%{next(_fresh_counter)}"


def base_name(atom: str) -> str:
    return atom.split("%", 1)[0]


class MuTerm:
    __slots__ = ()


@record
class Var(MuTerm):
    name: str


@record
class BVar(MuTerm):
    index: int


@record
class Lam(MuTerm):
    hint: str = field(compare=False)
    ann: MuType
    body: MuTerm


@record
class App(MuTerm):
    fn: MuTerm
    arg: MuTerm


@record
class TyLam(MuTerm):
    hint: str = field(compare=False)
    body: MuTerm


@record
class TyApp(MuTerm):
    fn: MuTerm
    ty: MuType


@record
class FName:
    """Free name occurrence (naming target of a Mu node)."""

    name: str


@record
class BName:
    """Bound name occurrence; index 0 is the nearest enclosing Mu."""

    index: int


NameRef = FName | BName


@record
class Mu(MuTerm):
    """mu a:ann. [target] body, binding the name ``a`` in target and body."""

    hint: str = field(compare=False)
    ann: MuType
    target: NameRef
    body: MuTerm


# ---------------------------------------------------------------------------
# Smart constructors (nameful API; they close over the given atoms)


def lam(x: str, ann: MuType, body: MuTerm) -> MuTerm:
    return Lam(x, ann, close_var(body, x))


def tylam(x: str, body: MuTerm) -> MuTerm:
    return TyLam(x, close_tvar_term(body, x))


def mu(a: str, ann: MuType, target: str, body: MuTerm) -> MuTerm:
    tgt: NameRef = BName(0) if target == a else FName(target)
    return Mu(a, ann, tgt, close_name(body, a))


def named(b: str, body: MuTerm) -> MuTerm:
    """The named term  [b] M  :=  mu a:bot. [b] M  with a fresh and unused."""
    return Mu("_", BOT, FName(b), body)


def bold_mu(a: str, ann: MuType, body: MuTerm) -> MuTerm:
    """Bold mu-abstraction  mu* a:s. M  :=  mu a:s. [a] (M s)  for M : bot."""
    return mu(a, ann, a, TyApp(body, ann))


def match_named(t: MuTerm) -> tuple[NameRef, MuTerm] | None:
    """Recognise the named-term sugar; returns (target, body) when t = [b] M."""
    if (
        isinstance(t, Mu)
        and is_bot(t.ann)
        and t.target != BName(0)
        and not uses_bound_name(t.body, 0)
    ):
        return t.target, t.body
    return None


def match_bold_mu(t: MuTerm) -> tuple[MuType, MuTerm] | None:
    """Recognise bold-mu sugar; returns (ann, M) when t = mu a:s. [a](M s).

    The abstracted name may occur inside M (it usually does)."""
    if (
        isinstance(t, Mu)
        and t.target == BName(0)
        and isinstance(t.body, TyApp)
        and t.body.ty == t.ann
    ):
        return t.ann, t.body.fn
    return None


# ---------------------------------------------------------------------------
# Traversals, all derived from the binder table.  A Mu node's target sits
# under its own name binder.

TABLE = {
    **mu_types.TABLE,
    Var: (Leaf(VAR, False),),
    BVar: (Leaf(VAR, True),),
    Lam: (Hint(VAR, "x"), Child(TYPE), Child(TERM, var=1)),
    App: (Child(TERM), Child(TERM)),
    TyLam: (Hint(TVAR, "X"), Child(TERM, tvar=1)),
    TyApp: (Child(TERM), Child(TYPE)),
    FName: (Leaf(NAME, False),),
    BName: (Leaf(NAME, True),),
    Mu: (Hint(NAME, "a"), Child(TYPE), Child(NAME_REF, name=1), Child(TERM, name=1)),
}
SYNTAX = Syntax(TABLE)

# open_* / close_*(t, atom, depth=0) and inst_*(t, rep, depth=0), rep locally
# closed, per namespace; the free-atom sets fv (variables), fn (names) and
# ftv_term (type variables); uses_bound_name(t, depth).
close_var = partial(SYNTAX.close, VAR)
open_var = partial(SYNTAX.open, VAR)
inst_var = partial(SYNTAX.inst, VAR)
close_name = partial(SYNTAX.close, NAME)
open_name = partial(SYNTAX.open, NAME)
close_tvar_term = partial(SYNTAX.close, TVAR)
open_tvar_term = partial(SYNTAX.open, TVAR)
inst_tvar_term = partial(SYNTAX.inst, TVAR)
fv = partial(SYNTAX.free, VAR)
fn = partial(SYNTAX.free, NAME)
ftv_term = partial(SYNTAX.free, TVAR)
uses_bound_name = partial(SYNTAX.uses_bound, NAME)


# Substitutions are capture-avoiding for free: bound occurrences are
# indices, and replacement terms are locally closed.


def subst_term(t: MuTerm, x: str, rep: MuTerm) -> MuTerm:
    """M[rep/x] for a free term variable x."""
    return SYNTAX.subst(VAR, t, {x: rep})


def subst_type(t: MuTerm, x: str, rep: MuType) -> MuTerm:
    """M[rep/X] for a free type variable X (annotations and type arguments)."""
    return SYNTAX.subst(TVAR, t, {x: rep})


def rename_name(t: MuTerm, a: str, b: str) -> MuTerm:
    """M[b/a] for free names: every naming target a becomes b."""
    return SYNTAX.subst(NAME, t, {a: FName(b)})


# ---------------------------------------------------------------------------
# Mixed substitution


@record
class AppArg:
    arg: MuTerm


@record
class TyArg:
    ty: MuType


@record
class Rename:
    name: str


MixedMode = AppArg | TyArg | Rename


def mixed_subst(t: MuTerm, a: str, mode: MixedMode, b: str | None = None) -> MuTerm:
    """Replace namings [a]L inside t by [b](L' N), [b](L' s) or [b]L'.

    L is rewritten first (innermost namings are transformed before the
    enclosing one), matching the recursive reading of the structural mu
    axioms.  For Rename the new target is mode.name; otherwise b (fresh
    when omitted).
    """
    if b is None:
        b = mode.name if isinstance(mode, Rename) else fresh("b")

    def wrap(body: MuTerm) -> MuTerm:
        match mode:
            case AppArg(arg):
                return App(body, arg)
            case TyArg(ty):
                return TyApp(body, ty)
            case Rename(_):
                return body
        raise TypeError(mode)

    match t:
        case Var(_) | BVar(_):
            return t
        case Lam(hint, ann, body):
            return Lam(hint, ann, mixed_subst(body, a, mode, b))
        case App(fun, arg):
            return App(mixed_subst(fun, a, mode, b), mixed_subst(arg, a, mode, b))
        case TyLam(hint, body):
            return TyLam(hint, mixed_subst(body, a, mode, b))
        case TyApp(fun, ty):
            return TyApp(mixed_subst(fun, a, mode, b), ty)
        case Mu(hint, ann, target, body):
            body2 = mixed_subst(body, a, mode, b)
            if target == FName(a):
                return Mu(hint, ann, FName(b), wrap(body2))
            return Mu(hint, ann, target, body2)
    raise TypeError(t)

