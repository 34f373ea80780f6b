"""Rewrite engine for the target theory.

Rules are instances of the six beta/eta axiom schemas, the terminality
rewrite of parametric mode (any term of type exists X. X equals Star),
plus derived rules (hoisting, deduplication and the starred eta
patterns) that compose primitive schemas.  The let rules come in
families: beta, eta, dead-let and dedup are each one rule body, built
once per let kind as <family>-pair and <family>-pack from the binder
table (the let's binders, its introduction form and the intro's
components), and the six hoist-* rules are one rule per child slot.
Each family's comment documents its decomposition.  Not every derived
step is two primitive steps: the eta family replaces every occurrence
of its pattern at once, dedup redirects a whole inner let, and
let-expand and expand draw fresh binders.

The engine works on a "nameful" image of the term: every binder is
opened with a globally unique atom kept in the hint slot, so moving a
subterm across binders (let hoisting) can never capture.  Duplication
re-freshens binder atoms.  Public inputs and outputs stay locally
nameless.

Rule groups are tried in priority order: each step applies the first
group that has a redex, at that group's first redex in preorder
(leftmost-outermost).  The search does not restart at the root after a
step.  A step at path p leaves every subtree left of p the same object
under the same typing environment, so each group resumes where its last
search left off, or at p if that is earlier; the beta group, first in
every phase, resumes at the contractum and re-tests only its parent.
The focus is a zipper over the term, and the path to the root is
rebuilt once, when the zipper unwinds.  `_run` states the invariant;
the test suite checks every step against a search from the root.

Every applied step is logged as ``rule path``.  `_follow` applies a
logged step list on the zipper by rule name and path, with these same
rule functions; `replay` is that walk on a locally nameless term.  It
shares the engine's rules, so it does not check them.

`normalize_pair` normalises the two sides of an equation in lockstep.
A phase's steps are a function of the alpha-class of its input: no rule
reads an atom's name, and let-swap's name tiebreak only separates
atoms of equal binding order, which are the same atom.  So once the
right side is alpha-equal to the left, it stops searching and follows
the left side's steps on its own term.  Its binder names, normal form
and trace are exactly those of its own search.
"""

from __future__ import annotations

from operator import itemgetter

from . import target_types as tt
from . import target_terms as tg
from .mu_terms import base_name
from .record import fields, record
from .syntax import TVAR, VAR, field_getter
from .target_terms import (
    LetPack,
    LetPair,
    Pack,
    Pair,
    Star,
    STAR,
    TargetTerm,
    TgApp,
    TgBVar,
    TgLam,
    TgVar,
    children,
    fresh,
    with_children,
)
from .target_typing import PARAMETRIC, PLAIN, TgContext

MAX_STEPS = 100_000


class RewriteError(Exception):
    pass


class StepBudgetExceeded(RewriteError):
    """A normalization ran out of its MAX_STEPS: a resource limit, not a verdict."""


class ReplayError(Exception):
    pass


@record
class RewriteStep:
    rule: str
    path: tuple[int, ...]

    def render(self) -> str:
        return f"{self.rule} {'.'.join(map(str, self.path)) or 'root'}"

    @staticmethod
    def parse(line: str) -> "RewriteStep":
        rule, _, pos = line.strip().partition(" ")
        path = () if pos in ("", "root") else tuple(int(p) for p in pos.split("."))
        return RewriteStep(rule, path)


# ---------------------------------------------------------------------------
# Nameful round trip


def to_nameful(t: TargetTerm) -> TargetTerm:
    """Open every binder of t with a fresh atom, in one preorder pass over
    an explicit stack that keeps the atoms of the enclosing binders on
    one stack per namespace."""
    atoms: tuple[list, list] = ([], [])  # VAR, TVAR: innermost last
    ty = lambda a: tt.SYNTAX.open_all(TVAR, a, atoms[TVAR])
    out: list[TargetTerm] = []
    todo: list = [t]  # nodes to visit, [node, atoms] to enter its binders, (node, atoms) to finish
    while todo:
        t = todo.pop()
        cls = t.__class__
        if cls is tuple:
            t, bound = t
            cls = t.__class__
            if bound is None:
                right = out.pop()
                if cls is Pack:  # the surface reader leaves ex_ann None to resolve later
                    ex = t.ex_ann
                    out.append(Pack(ty(t.witness), right, None if ex is None else ty(ex)))
                else:
                    out[-1] = cls(out[-1], right)
                continue
            for _, ns, _ in tg.BINDERS[cls]:
                atoms[ns].pop()
            body = out.pop()
            outer = ty(t.ann) if cls is TgLam else out.pop()
            out.append(cls(*bound, outer, body))
        elif cls is TgBVar:
            if not 0 <= t.index < len(atoms[VAR]):
                raise RewriteError(f"dangling bound variable {t.index}")
            out.append(TgVar(atoms[VAR][-1 - t.index]))
        elif cls is TgApp:
            todo += ((t, None), t.arg, t.fn)
        elif cls is TgLam:  # enter its binder now: the annotation is read when it is done
            x = fresh(t.hint or "x")
            atoms[VAR].append(x)
            todo += ((t, (x,)), t.body)
        elif cls is list:  # enter the binders
            t, bound = t
            for (_, ns, _), atom in zip(tg.BINDERS[t.__class__], bound):
                atoms[ns].append(atom)
        elif cls is Pair:
            todo += ((t, None), t.right, t.left)
        elif cls is TgVar or cls is Star:
            out.append(t)
        elif cls is Pack:
            todo += ((t, None), t.payload)
        else:
            bound = [fresh(getattr(t, field_name) or base) for field_name, _, base in tg.BINDERS[cls]]
            todo += ((t, bound), t.body, [t, bound], t.scrut)
    return out[0]


def from_nameful(t: TargetTerm) -> TargetTerm:
    return tg.close_binders(t, base_name)


# ---------------------------------------------------------------------------
# Free-atom memos.  The free term atoms of a nameful node, and its free
# type atoms, are functions of the node alone, so each node object gets
# each set once, built from its children's sets, and keeps it in its
# instance dict beside the record fields; ``==``, ``hash`` and
# ``repr`` read only the fields.  A rewrite step rebuilds the path to the
# redex and what the rule builds, so only those nodes lack a set
# afterwards.

_ATOMS = "_free_atoms"
_TATOMS = "_free_tatoms"
_NO_ATOMS: frozenset[str] = frozenset()


def _union(acc: frozenset[str], atoms: frozenset[str]) -> frozenset[str]:
    # Reuse one operand where the other adds nothing, so most nodes share
    # a child's set instead of holding a copy.
    if not atoms or atoms is acc:
        return acc
    return atoms if not acc else acc | atoms


def _minus(atoms: frozenset[str], *bound: str) -> frozenset[str]:
    return atoms.difference(bound) if not atoms.isdisjoint(bound) else atoms


# Per node class, its set from its fields and its children's memoised sets.
_OWN_ATOMS = {
    TgVar: lambda t: frozenset((t.name,)),
    Star: lambda t: _NO_ATOMS,
    TgLam: lambda t: _minus(t.body.__dict__[_ATOMS], t.hint),
    TgApp: lambda t: _union(t.fn.__dict__[_ATOMS], t.arg.__dict__[_ATOMS]),
    Pair: lambda t: _union(t.left.__dict__[_ATOMS], t.right.__dict__[_ATOMS]),
    LetPair: lambda t: _union(
        t.scrut.__dict__[_ATOMS], _minus(t.body.__dict__[_ATOMS], t.hint_x, t.hint_y)
    ),
    Pack: lambda t: t.payload.__dict__[_ATOMS],
    LetPack: lambda t: _union(t.scrut.__dict__[_ATOMS], _minus(t.body.__dict__[_ATOMS], t.hint_x)),
}
_OWN_TATOMS = {
    TgVar: lambda t: _NO_ATOMS,
    Star: lambda t: _NO_ATOMS,
    TgLam: lambda t: _union(t.body.__dict__[_TATOMS], tt.ftv(t.ann)),
    TgApp: lambda t: _union(t.fn.__dict__[_TATOMS], t.arg.__dict__[_TATOMS]),
    Pair: lambda t: _union(t.left.__dict__[_TATOMS], t.right.__dict__[_TATOMS]),
    LetPair: lambda t: _union(t.scrut.__dict__[_TATOMS], t.body.__dict__[_TATOMS]),
    Pack: lambda t: _union(
        t.payload.__dict__[_TATOMS], _union(tt.ftv(t.witness), tt.ftv(t.ex_ann))
    ),
    LetPack: lambda t: _union(t.scrut.__dict__[_TATOMS], _minus(t.body.__dict__[_TATOMS], t.hint_t)),
}


def _memo(t: TargetTerm, key: str, own: dict) -> frozenset[str]:
    """The set own[class] computes from a node's children's sets, memoised
    under key per node object.  Unmemoised nodes are filled in post-order
    from an explicit stack, so a deep term costs no Python frames here."""
    atoms = t.__dict__.get(key)
    if atoms is not None:
        return atoms
    stack = [t]
    while stack:
        node = stack.pop()
        memo = node.__dict__
        if key in memo:
            continue
        missing = [kid for kid in children(node) if key not in kid.__dict__]
        if missing:
            stack.append(node)
            stack += missing
        else:
            memo[key] = own[node.__class__](node)
    return t.__dict__[key]


def free_atoms(t: TargetTerm) -> frozenset[str]:
    """The free term atoms of a nameful term, memoised per node object."""
    return _memo(t, _ATOMS, _OWN_ATOMS)


def free_tatoms(t: TargetTerm) -> frozenset[str]:
    """The free type atoms of a nameful term, memoised per node object."""
    return _memo(t, _TATOMS, _OWN_TATOMS)


def uniquify(t: TargetTerm) -> TargetTerm:
    """Refresh every binder atom of a nameful term (used on duplication) by
    closing and reopening it: fresh sees the same base names in preorder."""
    return to_nameful(from_nameful(t))


def _rebuild(t: TargetTerm, atom: str, atoms_of, replace, build=with_children) -> TargetTerm:
    """Rebuild t bottom-up over an explicit stack, one entry per node on
    the path from the root.  Only subtrees s that hold atom in
    atoms_of(s) are visited; every other subtree is kept as the same
    object.  In preorder, replace(s) takes the place of a visited s
    unless it is None, and else s becomes build(s, its children as
    rebuilt)."""
    if atom not in atoms_of(t):
        return t
    out = replace(t)
    if out is not None:
        return out
    stack = []  # per ancestor: its node, children left and children rebuilt
    node, todo, done = t, iter(children(t)), []
    while True:
        for kid in todo:
            if atom in atoms_of(kid):
                out = replace(kid)
                if out is None:
                    stack.append((node, todo, done))
                    node, todo, done = kid, iter(children(kid)), []
                    break
                kid = out
            done.append(kid)
        else:
            out = build(node, done)
            if not stack:
                return out
            node, todo, done = stack.pop()
            done.append(out)


def _replace_where(t: TargetTerm, atom: str, replace) -> TargetTerm:
    """Rebuild t with each outermost subtree s for which replace(s) is not
    None replaced by that value.  Only subtrees that hold atom free are
    visited, so every other subtree is returned as the same object."""
    return _rebuild(t, atom, free_atoms, replace)


def subst_refresh(t: TargetTerm, x: str, rep: TargetTerm) -> TargetTerm:
    """Nameful substitution of rep for the atom x.

    Only nodes whose free atoms hold x are rebuilt; every other subtree
    is returned as the same object.  The first occurrence of x (in
    preorder) takes rep itself, each later one a copy with fresh binder
    atoms.  That keeps every binder atom of the term bound exactly once:
    the rules substitute the argument of the redex they contract (the
    function argument, a pair component, a pack payload), and the
    contractum replaces the whole redex, so the one other place where
    rep's binder atoms occur is deleted by the same step.
    """
    first = True

    def occurrence(node: TargetTerm) -> TargetTerm | None:
        nonlocal first
        if node.__class__ is not TgVar:
            return None
        if first:
            first = False
            return rep
        return uniquify(rep)

    return _replace_where(t, x, occurrence)


_ATOMS_OF = (free_atoms, free_tatoms)  # per namespace: VAR, TVAR


def nameful_occurs(t: TargetTerm, atom: str, ns: int = VAR) -> bool:
    # Binder atoms are unique, so an occurrence of the atom anywhere is free.
    return atom in _ATOMS_OF[ns](t)


def subst_tatom(t: TargetTerm, tv: str, w: tt.TargetType) -> TargetTerm:
    """Nameful substitution of the type w for the type atom tv.  Only
    nodes whose free type atoms hold tv are rebuilt; every other subtree
    is returned as the same object.  A rebuilt node keeps the term-atom
    memo of the node it replaces: a type changes no term atom."""
    if tv not in free_tatoms(t):
        return t

    def build(s: TargetTerm, kids: list) -> TargetTerm:
        cls = s.__class__
        if cls is TgLam:
            out = TgLam(s.hint, tt.subst_tvar(s.ann, tv, w), kids[0])
        elif cls is Pack:
            out = Pack(tt.subst_tvar(s.witness, tv, w), kids[0], tt.subst_tvar(s.ex_ann, tv, w))
        else:
            out = with_children(s, kids)
        atoms = s.__dict__.get(_ATOMS)
        if atoms is not None:
            out.__dict__[_ATOMS] = atoms
        return out

    return _rebuild(t, tv, free_tatoms, lambda s: None, build)


# ---------------------------------------------------------------------------
# Type synthesis on nameful terms (no checking; inputs are pre-checked)


def nameful_synth(t: TargetTerm, env: dict[str, tt.TargetType]) -> tt.TargetType:
    match t:
        case TgVar(n):
            try:
                return env[n]
            except KeyError:
                raise RewriteError(f"atom {n} missing from typing environment")
        case Star():
            return tt.TOP
        case TgLam(_, ann, _):
            return tt.Neg(ann)
        case TgApp(_, _):
            return tt.R
        case Pair(left, right):
            return tt.Conj(nameful_synth(left, env), nameful_synth(right, env))
        case Pack(_, _, ex):
            return ex
        case LetPair() | LetPack():
            return nameful_synth(t.body, _env_through(t, 1, env))
    raise TypeError(t)


def _env_through(t: TargetTerm, i: int, env: dict[str, tt.TargetType]) -> dict[str, tt.TargetType]:
    """Typing environment for child slot i of nameful node t."""
    match t:
        case TgLam(x, ann, _):
            return {**env, x: ann}
        case LetPair(x, y, scrut, _) if i == 1:
            sty = nameful_synth(scrut, env)
            assert isinstance(sty, tt.Conj), sty
            return {**env, x: sty.left, y: sty.right}
        case LetPack(tv, x, scrut, _) if i == 1:
            sty = nameful_synth(scrut, env)
            assert isinstance(sty, tt.Exists), sty
            return {**env, x: tt.inst_tvar(sty.body, tt.TgVarT(tv))}
        case _:
            return env


# ---------------------------------------------------------------------------
# Rules.  Each takes the nameful redex (plus env/mode when needed) and
# returns the contractum or None when the pattern does not apply.


def _rw_beta_fun(t, env, mode):
    match t:
        case TgApp(TgLam(x, _, body), arg):
            return subst_refresh(body, x, arg)
    return None


def _rw_eta_fun(t, env, mode):
    # No check that the head g is not x: lam x:A. x x is ill typed (x
    # applied to itself needs A = not A), and every input to the engine
    # is typechecked first.
    match t:
        case TgLam(x, _, TgApp(TgVar(g), TgVar(x2))) if x2 == x:
            return TgVar(g)
    return None


def _rw_star_eta(t, env, mode):
    # lam u : exists X. X. f Star  =  lam u. f u  =  f   (terminality + eta).
    # No check that the head f is not u: u Star with u : exists X. X
    # applies a non-negation, which the typechecker refuses first.
    if mode != PARAMETRIC:
        return None
    match t:
        case TgLam(_, ann, TgApp(TgVar(g), Star())) if ann == tt.TOP:
            return TgVar(g)
    return None


class _Kind:
    """A let kind, read from the binder table.  A let eliminates one
    introduction form (LetPair a Pair, LetPack a Pack), whose components
    match the let's binders in table order: a pack's witness is what the
    type atom stands for.  Each let family is one rule body, built once
    per kind with these fields bound."""

    def __init__(self, let: type, intro: type):
        binders = tg.BINDERS[let]
        names = tuple(f.name for f in fields(intro))
        self.let, self.intro = let, intro
        self.atoms = field_getter(tuple(f for f, _, _ in binders))  # a let's binder atoms, in table order
        self.nss = tuple(ns for _, ns, _ in binders)  # their namespaces
        # Per namespace the let binds, term atoms first: (ns, getter of its atoms).
        of_ns = lambda ns: field_getter(tuple(f for f, n, _ in binders if n == ns))
        self.by_ns = tuple((ns, of_ns(ns)) for ns in (VAR, TVAR) if ns in self.nss)
        self.parts = field_getter(names[: len(binders)])  # an intro's components
        self.typed = len(names) > len(binders)  # the intro ends with its own type (Pack.ex_ann)


_KINDS = (_Kind(LetPair, Pair), _Kind(LetPack, Pack))
_LETS = tuple(k.let for k in _KINDS)
_BINDER_ATOMS = {k.let: k.atoms for k in _KINDS}


def _remake_let(t, scrut, body):
    return with_children(t, (scrut, body))


def _intro_of_binders(k: _Kind, t, env):
    """I(p): the intro of let t's own binder atoms, at its scrutinee's type."""
    parts = [tt.TgVarT(a) if ns == TVAR else TgVar(a) for a, ns in zip(k.atoms(t), k.nss)]
    if k.typed:
        parts.append(nameful_synth(t.scrut, env))
    return k.intro(*parts)


def _family(stem: str, make):
    """One rule make(kind) per let kind, named <stem>-pair or <stem>-pack and headed by its let."""
    return tuple((f"{stem}-{k.intro.__name__.lower()}", _at(make(k), k.let)) for k in _KINDS)


def _beta_let(k: _Kind):
    # let p = I(c1, c2) in B  =  B[c1, c2 / p]: the let-beta axiom.  Each
    # binder takes its component in table order, by subst_refresh for a
    # term atom and subst_tatom for the type atom.
    let, intro, atoms, parts = k.let, k.intro, k.atoms, k.parts
    substs = tuple(subst_tatom if ns == TVAR else subst_refresh for ns in k.nss)

    def rule(t, env, mode):
        if t.__class__ is let and t.scrut.__class__ is intro:
            body = t.body
            for subst, atom, part in zip(substs, atoms(t), parts(t.scrut)):
                body = subst(body, atom, part)
            return body
        return None

    return rule


def _eta_let(k: _Kind):
    # let p = s in C[I(p)]  =  C[s]  when p's atoms occur in C only inside
    # the pattern I(p): a let-eta instance (s = let p = s in I(p)) at each
    # occurrence, one step for all of them, after which the let is dead.
    # In parametric mode the pair pattern also matches <x, Star> when the
    # second component is at exists X. X: terminality rewrites Star back
    # to y, after which this is the literal pair-eta axiom.
    let, by_ns = k.let, k.by_ns
    term_atoms = by_ns[0][1]
    star = let is LetPair

    def rule(t, env, mode):
        if t.__class__ is not let:
            return None
        scrut, body = t.scrut, t.body
        pats = (_intro_of_binders(k, t, env),)
        if star and mode == PARAMETRIC and nameful_synth(scrut, env).right == tt.TOP:
            pats += (Pair(pats[0].left, STAR),)
        for ns, atoms_in in by_ns:
            if not _only_in_patterns(body, pats, atoms_in(t), ns):
                return None
        # Every pattern holds the first term atom; each takes a copy of s.
        return _replace_where(body, term_atoms(t)[0], lambda sub: uniquify(scrut) if sub in pats else None)

    return rule


def _only_in_patterns(body, pats: tuple[TargetTerm, ...], atoms: tuple[str, ...], ns: int = VAR) -> bool:
    """Whether some pattern occurs in body and every occurrence of the
    atoms, of namespace ns, lies inside one: a read-only walk over the
    subtrees that hold one of them.  Each pattern holds one of the atoms,
    so the walk meets every pattern."""
    atoms_of = _ATOMS_OF[ns]
    found = False
    todo = [body]
    while todo:
        s = todo.pop()
        cls = s.__class__
        if cls is pats[0].__class__ and s in pats:
            found = True
            continue
        if ns == VAR:
            if cls is TgVar:
                return False  # an atom outside the patterns, or a body that is one variable
        elif cls is TgLam or cls is Pack:  # a type atom occurs in annotations
            anns = (s.ann,) if cls is TgLam else (s.witness, s.ex_ann)
            if any(not tt.ftv(a).isdisjoint(atoms) for a in anns):
                return False
        todo += [kid for kid in children(s) if not atoms_of(kid).isdisjoint(atoms)]
    return found


def _dead_let(k: _Kind):
    # let p = s in B  =  B  when no atom of p occurs in B: the eta
    # family's instance C[s] = let p = s in C[I(p)] for a C without the
    # pattern.  The type atom must be dead too: it may occur in
    # annotations.  Term atoms are tested first, their memo is cheaper.
    let, by_ns = k.let, k.by_ns

    def rule(t, env, mode):
        if t.__class__ is let:
            body = t.body
            if not any(nameful_occurs(body, atom, ns) for ns, atoms_in in by_ns for atom in atoms_in(t)):
                return body
        return None

    return rule


def _dedup(k: _Kind):
    # let p = a in B  =  let p = a in B[I(p)/a]  (let-eta at one occurrence
    # of a); redirecting the first inner let of the same kind that
    # re-destructures a onto I(p) lets beta contract it.
    let = k.let

    def rule(t, env, mode):
        if t.__class__ is let and t.scrut.__class__ is TgVar and t.scrut.name in free_atoms(t.body):
            out = _replace_first_scrut(t.body, t.scrut.name, let, _intro_of_binders(k, t, env))
            if out is not None:
                return _remake_let(t, t.scrut, out)
        return None

    return rule


def _replace_first_scrut(body, atom: str, kind, rep):
    """Rebuild body with the first same-kind let scrutinising atom
    redirected, or None if there is none."""
    scrut = TgVar(atom)
    found = False

    def replace(s):
        nonlocal found
        if found:
            return s  # right of the let: kept
        if isinstance(s, kind) and s.scrut == scrut:
            found = True
            return _remake_let(s, rep, s.body)
        return None

    def build(s, kids):  # left of the let: kept
        return with_children(s, kids) if found else s

    out = _rebuild(body, atom, free_atoms, replace, build)
    return out if found else None


# The hoist-* rules below are commuting conversions: each one is the
# composite of a let-eta instance read right-to-left (abstract the let's
# scrutinee at the moved position) and the corresponding let-beta
# contraction, so the replayer may treat a hoist step as two axiom
# steps.  let-swap is two such conversions back to back.


def _hoist(slot: int, *heads: type, moves=None):
    """C[let p = s in A]  =  let p = s in C[A] for a let in child slot
    `slot` of a node of a head class, if moves(node, let) holds."""

    def rule(t, env, mode):
        if t.__class__ in heads:
            kids = children(t)
            let = kids[slot]
            if let.__class__ in _LETS and (moves is None or moves(t, let)):
                kids = kids[:slot] + (let.body,) + kids[slot + 1:]
                return _remake_let(let, let.scrut, with_children(t, kids))
        return None

    return _at(rule, *heads)


def _rw_let_expand(t, env, mode):
    # A let of negation type is eta-expanded so the binding can live in
    # the answer layer of the canonical grammar.
    if t.__class__ in _LETS:
        ty = nameful_synth(t, env)
        if isinstance(ty, tt.Neg):
            k = fresh("k")
            return TgLam(k, ty.body, _remake_let(t, t.scrut, TgApp(t.body, TgVar(k))))
    return None


def _scrut_key(scrut, env_order: dict[str, int]):
    # Variables bound further out (or free, by name) order first.
    if isinstance(scrut, TgVar):
        return (0, env_order.get(scrut.name, -1), scrut.name)
    return (1, 0, "")


def _rw_let_swap(t, env, mode):
    # Order adjacent independent lets by their scrutinee variables:
    # outermost-bound scrutinee first, free atoms alphabetically.  Only a
    # variable scrutinee moves out (the key orders every other one last),
    # and a variable holds no type atom, so the inner let is independent
    # unless its scrutinee is one of the outer let's term atoms.
    if t.__class__ in _LETS and t.body.__class__ in _LETS:
        outer, inner = t, t.body
        if not any(nameful_occurs(inner.scrut, a) for a in _BINDER_ATOMS[outer.__class__](outer)):
            order = {a: i for i, a in enumerate(env)}
            if _scrut_key(inner.scrut, order) < _scrut_key(outer.scrut, order):
                return _remake_let(
                    inner, inner.scrut, _remake_let(outer, outer.scrut, inner.body)
                )
    return None


def _rw_star(t, env, mode):
    if mode != PARAMETRIC or isinstance(t, Star):
        return None
    if nameful_synth(t, env) == tt.TOP:
        return STAR
    return None


# -- eta-long expansion (value positions only; heads and let scrutinees
#    stay atomic).  expand-prog is a fun-eta instance read right-to-left;
#    expand-pair is the pair-eta instance  let <a,b> = k in <a,b>  =  k.


def _expand_value(child, ty, mode):
    if isinstance(ty, tt.Conj):
        a, b = fresh("a"), fresh("b")
        return LetPair(a, b, child, Pair(TgVar(a), TgVar(b)))
    return None


def _expand_program(child, ty, mode):
    # In parametric mode a program at ¬(∃X.X) is already long: its k would
    # become ⋆ (star) and star-eta would contract the expansion back.
    if isinstance(ty, tt.Neg) and tt.is_image(ty.body) and not (mode == PARAMETRIC and ty.body == tt.TOP):
        k = fresh("k")
        return TgLam(k, ty.body, TgApp(child, TgVar(k)))
    return None


# Per head class: the child slots that may expand, each with its expansion.
_EXPAND_SLOTS = {
    TgApp: ((1, _expand_value),), Pair: ((0, _expand_program), (1, _expand_value)),
    Pack: ((0, _expand_value),), LetPair: ((1, _expand_value),), LetPack: ((1, _expand_value),),
}


def _rw_expand(t, env, mode):
    kids = children(t)
    for i, expand in _EXPAND_SLOTS.get(t.__class__, ()):
        child = kids[i]
        if child.__class__ is TgVar:
            out = expand(child, nameful_synth(child, _env_through(t, i, env)), mode)
            if out is not None:
                return with_children(t, kids[:i] + (out,) + kids[i + 1:])
    return None


def _at(rule, *heads: type):
    """Declare the node classes at which rule can apply (it returns None at
    every other node)."""
    rule.heads = frozenset(heads)
    return rule


# Rule groups in priority order; within a group, scanning is preorder
# (leftmost-outermost) and the listed order breaks ties at a node.  Each
# rule names its heads beside its name; star has none among TgLam, TgApp
# and Pair, whose types are not t, R and t /\ t.
BETA_RULES = (("beta-fun", _at(_rw_beta_fun, TgApp)), *_family("beta", _beta_let))
ETA_RULES = (
    ("eta-fun", _at(_rw_eta_fun, TgLam)),
    *_family("eta", _eta_let),
    *_family("dead-let", _dead_let),
    *_family("dedup", _dedup),
)
HOIST_RULES = (
    ("hoist-app-fn", _hoist(0, TgApp)),
    ("hoist-app-arg", _hoist(1, TgApp)),
    ("hoist-pair-left", _hoist(0, Pair)),
    ("hoist-pair-right", _hoist(1, Pair)),
    ("hoist-pack", _hoist(0, Pack)),
    ("hoist-scrut", _hoist(0, *_LETS)),
    # lam x. let p = s in A  =  let p = s in lam x. A  (x not in s); the
    # root's table (_by_head) lacks it, so the outermost Program keeps its
    # lam k. A  shape.
    ("hoist-lam", _hoist(0, TgLam, moves=lambda lam, let: not nameful_occurs(let.scrut, lam.hint))),
    ("let-expand", _at(_rw_let_expand, *_LETS)),
    ("let-swap", _at(_rw_let_swap, *_LETS)),
)
STAR_RULES = (
    ("star", _at(_rw_star, TgVar, LetPair, Pack, LetPack)),
    ("star-eta", _at(_rw_star_eta, TgLam)),
)
EXPAND_RULES = (("expand", _at(_rw_expand, *_EXPAND_SLOTS)),)
SHARE_RULES = ETA_RULES[3:]  # the dead-let and dedup families

ALL_RULES = dict(BETA_RULES + ETA_RULES + HOIST_RULES + STAR_RULES + EXPAND_RULES)


def _by_head(group, threads_env: bool = True):
    """A group as the search uses it: per node class, the rules whose head
    it is, in listed order; whether the search must keep env current; and
    the same table for the root, which lacks hoist-lam."""
    rules = {cls: tuple((n, r) for n, r in group if cls in r.heads) for cls in tg.SYNTAX.children}
    root = {cls: tuple(nr for nr in kids if nr[0] != "hoist-lam") for cls, kids in rules.items()}
    return rules, threads_env, root


_BETA = _by_head(BETA_RULES, threads_env=False)  # no beta rule reads env
_ETA, _HOIST, _STAR, _EXPAND, _SHARE = map(
    _by_head, (ETA_RULES, HOIST_RULES, STAR_RULES, EXPAND_RULES, SHARE_RULES)
)


def _contract_groups(mode: str):
    groups = [_BETA, _ETA, _HOIST]
    if mode == PARAMETRIC:
        groups.append(_STAR)
    return groups


def _expand_groups(mode: str):
    groups = [_BETA, _SHARE, _HOIST]
    if mode == PARAMETRIC:
        groups.append(_STAR)
    groups.append(_EXPAND)
    return groups


# ---------------------------------------------------------------------------
# The search.  It walks a zipper over the term and resumes each group's
# leftmost-outermost search where that group's last search left off, so
# a step costs the nodes it changes and the search the nodes it visits
# anew, not a walk from the root.


_SLOT = itemgetter(1)  # a zipper frame's child slot


class _Zipper:
    """A nameful term seen from a focus (Huet, "The Zipper", JFP 1997).

    ``node`` is the focused subtree and ``env`` its typing environment
    (meaningless below a frame pushed by a search that does not keep env
    current).  ``stack`` holds one frame per ancestor, the root first:
    ``[parent, slot, env, kids, dirty]``, that is the parent as the focus
    found it, the child slot the path takes, the parent's env, its
    children (a tuple) with every replaced child written in, and whether
    any child was replaced.  Moving up rebuilds a parent only if it is
    dirty, so each ancestor is rebuilt once per unwinding however many
    steps land below it."""

    __slots__ = ("node", "env", "stack")

    def __init__(self, t: TargetTerm, env):
        self.node, self.env, self.stack = t, env, []

    def path(self) -> tuple[int, ...]:
        return tuple(map(_SLOT, self.stack))

    def down(self, i: int, threads_env: bool) -> bool:
        """Move to child i; False, staying put, if the focus has none."""
        node = self.node
        kids = children(node)
        if i >= len(kids):
            return False
        self.stack.append([node, i, self.env, kids, False])
        self.node = kids[i]
        self.env = _env_through(node, i, self.env) if threads_env else None
        return True

    def up(self) -> None:
        parent, _, env, kids, dirty = self.stack.pop()
        self.env = env
        if dirty:
            self.replace(with_children(parent, kids))
        else:
            self.node = parent

    def right(self, threads_env: bool) -> bool:
        """Move to the next subtree in preorder outside the focus: the
        right sibling of the focus or of its nearest ancestor that has
        one.  False, with the focus on the root, at the end of the term."""
        stack = self.stack
        while stack:
            frame = stack[-1]
            i = frame[1] + 1
            kids = frame[3]
            if i < len(kids):
                frame[1] = i
                self.node = kids[i]
                self.env = _env_through(frame[0], i, frame[2]) if threads_env else None
                return True
            self.up()
        return False

    def replace(self, new: TargetTerm) -> None:
        self.node = new
        if self.stack:
            frame = self.stack[-1]
            kids, i = frame[3], frame[1]
            frame[3] = kids[:i] + (new,) + kids[i + 1:]
            frame[4] = True

    def unwind(self) -> TargetTerm:
        """Move the focus to the root, whose env is the one given."""
        while self.stack:
            self.up()
        return self.node


def _test(z: _Zipper, group, mode: str):
    """The first rule of a group that applies at the focus, as (name,
    contractum), or None."""
    node = z.node
    for name, rule in (group[0] if z.stack else group[2])[node.__class__]:
        out = rule(node, z.env, mode)
        if out is not None:
            return name, out
    return None


def _scan(z: _Zipper, group, mode: str):
    """Search the focus's subtree and then every subtree right of it, in
    preorder.  On a hit the focus is on the redex; otherwise None, with
    the focus on the root."""
    threads_env = group[1]
    while True:
        hit = _test(z, group, mode)
        if hit is not None:
            return hit
        if not z.down(0, threads_env) and not z.right(threads_env):
            return None


def _search_beta(z: _Zipper, mode: str):
    """The beta group resumes at the focus.  A beta rule reads only its
    node and the class of a child, so a step can make a beta redex only
    in the contractum or at its parent; the parent is re-tested alone."""
    stack = z.stack
    if stack and _BETA[0][stack[-1][0].__class__]:
        slot = stack[-1][1]
        z.up()
        hit = _test(z, _BETA, mode)
        if hit is not None:
            return hit
        z.down(slot, False)
    return _scan(z, _BETA, mode)


def _search(z: _Zipper, group, resume: tuple[int, ...], mode: str):
    """Any other group resumes at its path: it re-tests the ancestors of
    the path from the root down, then scans from the path."""
    threads_env = group[1]
    z.unwind()
    for i in resume:
        hit = _test(z, group, mode)
        if hit is not None:
            return hit
        z.down(i, threads_env)
    return _scan(z, group, mode)


def _run(t, env, mode, groups, steps):
    """Rewrite t to a normal form of the groups, which are in priority
    order with the beta group first: each step applies the first group
    that has a redex, at its first redex in preorder.

    Every group but beta keeps a resume path r with the invariant: no
    node before r in preorder, other than an ancestor of r, is a redex of
    the group (paths compare in preorder as tuples).  A search from r
    re-tests r's ancestors, whose rules read the subtrees that hold r,
    then scans from r, so it finds the group's first redex.  A step at
    path p keeps every subtree left of p the same object under the same
    env (the rules preserve types).  So afterwards the stepping group,
    which found nothing before p, resumes at p, and every other group at
    min(r, p), a group whose search has just found nothing counting as
    r = infinity.  For beta, first in every phase, that minimum is always
    p, where the focus is after the step."""
    z = _Zipper(t, env)
    resume: list = [()] * len(groups)  # resume[0] is unused: see above
    for _ in range(MAX_STEPS):
        for g, group in enumerate(groups):
            hit = _search_beta(z, mode) if g == 0 else _search(z, group, resume[g], mode)
            if hit is not None:
                break
            resume[g] = None
        else:
            return z.unwind()
        name, out = hit
        path = z.path()
        z.replace(out)
        steps.append(RewriteStep(name, path))
        for h, r in enumerate(resume):
            if h == g or r is None or path < r:
                resume[h] = path
    what = "beta reduction" if len(groups) == 1 else "rewrite"
    raise StepBudgetExceeded(f"{what} did not terminate within the step budget")


def _phases(mode: str):
    """Contract, eta-expand to the long form, then contract again."""
    return _contract_groups(mode), _expand_groups(mode), _contract_groups(mode)


def normalize_nameful(
    t: TargetTerm, env: dict[str, tt.TargetType], mode: str
) -> tuple[TargetTerm, list[RewriteStep]]:
    """Contract, eta-expand to the long form, then contract again.

    The middle phase drives the term to a shared eta-long shape (the
    expansion, dedup and hoisting rules together), after which the final
    contraction phase is a deterministic function of that shape, giving a
    canonical representative for provably equal inputs.
    """
    steps: list[RewriteStep] = []
    for groups in _phases(mode):
        t = _run(t, env, mode, groups, steps)
    return t, steps


def normalize(
    term: TargetTerm, context: TgContext = (), mode: str = PLAIN
) -> tuple[TargetTerm, list[RewriteStep]]:
    """Normalise a locally closed target term; returns (result, trace)."""
    t, steps = normalize_nameful(to_nameful(term), dict(context), mode)
    return from_nameful(t), steps


def beta_normalize(term: TargetTerm, context: TgContext = ()) -> TargetTerm:
    """Contract all beta redexes (function, pair-let, pack-let)."""
    return from_nameful(_run(to_nameful(term), dict(context), PLAIN, [_BETA], []))


# ---------------------------------------------------------------------------
# Following a trace, and the lockstep pair


def _alpha_equal(a: TargetTerm, b: TargetTerm) -> bool:
    """Whether nameful terms a and b are alpha-equal, in one walk over an
    explicit stack that builds no term.

    Each side's binder atoms are unique and occur only in their binder's
    scope, so a binder of a is matched with b's when the walk meets it,
    and the match holds wherever the atom occurs.  A free atom must be
    the same on both sides.  Annotations compare under the match of
    LetPack-bound type atoms.  A subtree both sides share holds no binder
    atom of either, since each side's binders are its own fresh atoms."""
    atoms: dict[str, str] = {}
    tatoms: dict[str, str] = {}
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        cls = a.__class__
        if cls is not b.__class__:
            return False
        if cls is TgVar:
            if atoms.get(a.name, a.name) != b.name:
                return False
        elif cls is TgApp:
            todo += ((a.arg, b.arg), (a.fn, b.fn))
        elif cls is TgLam:
            atoms[a.hint] = b.hint
            if not _alpha_type(a.ann, b.ann, tatoms):
                return False
            todo.append((a.body, b.body))
        elif cls is Pair:
            todo += ((a.right, b.right), (a.left, b.left))
        elif cls is LetPair or cls is LetPack:
            for name, ns, _ in tg.BINDERS[cls]:
                (atoms, tatoms)[ns][getattr(a, name)] = getattr(b, name)
            todo += ((a.body, b.body), (a.scrut, b.scrut))
        elif cls is Pack:
            if not (_alpha_type(a.witness, b.witness, tatoms) and _alpha_type(a.ex_ann, b.ex_ann, tatoms)):
                return False
            todo.append((a.payload, b.payload))
    return True


def _alpha_type(a: tt.TargetType, b: tt.TargetType, tatoms: dict[str, str]) -> bool:
    """Whether annotation a, read through the type-atom match, is b."""
    if not tatoms:
        return a == b
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        cls = a.__class__
        if cls is not b.__class__:
            return False
        if cls is tt.TgVarT:
            if tatoms.get(a.name, a.name) != b.name:
                return False
        elif cls is tt.TgBoundT:
            if a.index != b.index:
                return False
        elif cls is tt.Conj:
            todo += ((a.left, b.left), (a.right, b.right))
        elif cls is not tt.RType:  # Neg, Exists
            todo.append((a.body, b.body))
    return True


def _goto(z: _Zipper, path: tuple[int, ...]) -> bool:
    """Move the focus to path, keeping env current, up only as far as
    the common prefix with the focus's own path; False if path does not
    exist."""
    stack = z.stack
    common, end = 0, min(len(stack), len(path))
    while common < end and stack[common][1] == path[common]:
        common += 1
    while len(stack) > common:
        z.up()
    return all(z.down(i, True) for i in path[common:])


def _follow(z: _Zipper, steps, mode: str) -> None:
    """Apply logged steps to the zipper's term, each by rule name at its
    path.  It trusts where the steps came from: it checks only that each
    rule is known, each path exists and each rule applies there."""
    for step in steps:
        rule = ALL_RULES.get(step.rule)
        if rule is None:
            raise ReplayError(f"unknown rule {step.rule}")
        if not _goto(z, step.path):
            raise ReplayError(f"path {step.path} does not exist")
        out = rule(z.node, z.env, mode)
        if out is None:
            raise ReplayError(f"rule {step.rule} does not apply at {step.path}")
        z.replace(out)


def normalize_pair(
    left: TargetTerm, right: TargetTerm, context: TgContext = (), mode: str = PLAIN
) -> tuple[TargetTerm, list[RewriteStep], TargetTerm, list[RewriteStep], str | None]:
    """Normalise two locally closed terms, each as `normalize` does, in
    lockstep; returns (left result, left trace, right result, right
    trace, where they met).

    Both sides run the phases of `normalize_nameful`, the left first.
    The sides are compared at three points: the closed inputs before any
    phase ("inputs"); the right side's input to a phase against the left
    side's output of it ("ahead n": the right side is already a normal
    form of the phase and takes no step in it); and the two outputs of a
    phase ("outputs n").  From the point where they meet, the right side
    stops searching and follows the left side's later steps on its own
    term.  Since the steps of a phase depend only on the alpha-class of
    its input, the right side's result and trace are exactly those of
    its own search; a followed step that does not apply is a bug and
    raises RewriteError.
    """
    env = dict(context)
    lt, rt = to_nameful(left), to_nameful(right)
    lsteps: list[RewriteStep] = []
    rsteps: list[RewriteStep] = []
    met = "inputs" if tg.equal(left, right) else None
    for phase, groups in enumerate(_phases(mode), 1):
        start = len(lsteps)
        lt = _run(lt, env, mode, groups, lsteps)
        if met is not None:
            z = _Zipper(rt, env)
            try:
                _follow(z, lsteps[start:], mode)
            except ReplayError as exc:
                raise RewriteError(f"the right side cannot follow the left: {exc}") from exc
            rt = z.unwind()
            rsteps += lsteps[start:]
        elif _alpha_equal(lt, rt):
            met = f"ahead {phase}"
        else:
            rt = _run(rt, env, mode, groups, rsteps)
            if _alpha_equal(lt, rt):
                met = f"outputs {phase}"
    return from_nameful(lt), lsteps, from_nameful(rt), rsteps, met


def replay(
    term: TargetTerm,
    steps: list[RewriteStep],
    context: TgContext = (),
    mode: str = PLAIN,
) -> TargetTerm:
    """Apply a logged trace to term with the engine's own rules and
    return the result.

    Each named rule must be known, its path must exist and the rule must
    apply there, or ReplayError is raised.  Replay trusts where the steps
    came from: it shares the engine's rules, so it is not a checker of
    them.  Primitive rules are literal axiom instances; derived rules
    compose axiom instances as documented on their families, some in
    more than two steps.
    """
    z = _Zipper(to_nameful(term), dict(context))
    _follow(z, steps, mode)
    return from_nameful(z.unwind())
