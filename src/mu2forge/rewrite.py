"""Rewrite engine for the target theory.

Rules are instances of the six beta/eta axiom schemas, the terminality
rewrite of parametric mode (any term of type exists X. X equals Star),
plus derived rules (hoisting, deduplication and the starred eta
patterns) that compose primitive schemas.  Not every derived step is
two primitive steps: eta-pair and eta-pack replace every occurrence of
their pattern at once, dedup-* redirect a whole inner let, and
let-expand and expand draw fresh binders; each derived rule's comment
documents its decomposition.

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

Every applied step is logged as ``rule path``; `replay` re-applies a
logged trace step by step with these same rule functions, checking that
each named rule matches at its path.  It shares the engine's rules, so
it does not check them.
"""

from __future__ import annotations

from operator import itemgetter

from . import target_types as tt
from . import target_terms as tg
from .mu_terms import base_name
from .record import record
from .syntax import TVAR, VAR
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


def _slot_binders(t: TargetTerm, i: int) -> tuple[str, ...]:
    """The term atoms that nameful node t binds over its child slot i."""
    match t:
        case TgLam(x, _, _):
            return (x,)
        case LetPair(x, y, _, _) if i == 1:
            return (x, y)
        case LetPack(_, x, _, _) if i == 1:
            return (x,)
    return ()


def _union(acc: frozenset[str], atoms: frozenset[str]) -> frozenset[str]:
    # Reuse one operand where the other adds nothing, so most nodes share
    # a child's set instead of holding a copy.
    if not atoms or atoms is acc:
        return acc
    return atoms if not acc else acc | atoms


def _own_atoms(t: TargetTerm) -> frozenset[str]:
    """The free term atoms of t from the memoised sets of its children."""
    if t.__class__ is TgVar:
        return frozenset((t.name,))
    acc = _NO_ATOMS
    for i, kid in enumerate(children(t)):
        atoms = kid.__dict__[_ATOMS]
        bound = _slot_binders(t, i)
        if bound and not atoms.isdisjoint(bound):
            atoms = atoms.difference(bound)
        acc = _union(acc, atoms)
    return acc


def _own_tatoms(t: TargetTerm) -> frozenset[str]:
    """The free type atoms of t from its own annotations and the memoised
    sets of its children; a LetPack binds its type atom over its body."""
    cls = t.__class__
    if cls is TgLam:
        return _union(t.body.__dict__[_TATOMS], tt.ftv(t.ann))
    if cls is Pack:
        own = _union(tt.ftv(t.witness), tt.ftv(t.ex_ann))
        return _union(t.payload.__dict__[_TATOMS], own)
    acc = _NO_ATOMS
    for kid in children(t):
        acc = _union(acc, kid.__dict__[_TATOMS])
    if cls is LetPack and t.hint_t in acc:
        acc = acc.difference((t.hint_t,))
    return acc


def _memo(t: TargetTerm, key: str, own) -> frozenset[str]:
    """The set own(node) computes from a node's children's sets, memoised
    under key per node object.  Unmemoised nodes are filled in post-order
    from an explicit stack, so a deep term costs no Python frames here."""
    atoms = t.__dict__.get(key)
    if atoms is not None:
        return atoms
    stack = [t]
    while stack:
        node = stack[-1]
        if key in node.__dict__:
            stack.pop()
            continue
        missing = [kid for kid in children(node) if key not in kid.__dict__]
        if missing:
            stack.extend(missing)
        else:
            stack.pop()
            node.__dict__[key] = own(node)
    return t.__dict__[key]


def free_atoms(t: TargetTerm) -> frozenset[str]:
    """The free term atoms of a nameful term, memoised per node object."""
    return _memo(t, _ATOMS, _own_atoms)


def free_tatoms(t: TargetTerm) -> frozenset[str]:
    """The free type atoms of a nameful term, memoised per node object."""
    return _memo(t, _TATOMS, _own_tatoms)


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


def nameful_occurs(t: TargetTerm, x: str) -> bool:
    # Binder atoms are unique, so an occurrence of x anywhere is free.
    return x in free_atoms(t)


def nameful_tvar_occurs(t: TargetTerm, tv: str) -> bool:
    # As for term atoms: binder atoms are unique, so any occurrence is free.
    return tv in free_tatoms(t)


def subst_tatom(t: TargetTerm, tv: str, w: tt.TargetType) -> TargetTerm:
    """Nameful substitution of the type w for the type atom tv.  Only
    nodes whose free type atoms hold tv are rebuilt; every other subtree
    is returned as the same object."""
    if tv not in free_tatoms(t):
        return t

    def build(s: TargetTerm, kids: list) -> TargetTerm:
        cls = s.__class__
        if cls is TgLam:
            return TgLam(s.hint, tt.subst_tvar(s.ann, tv, w), kids[0])
        if cls is Pack:
            return Pack(tt.subst_tvar(s.witness, tv, w), kids[0], tt.subst_tvar(s.ex_ann, tv, w))
        return with_children(s, kids)

    return _rebuild(t, tv, free_tatoms, _no_replacement, build)


def _no_replacement(t: TargetTerm) -> None:
    return None


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
        case LetPair(x, y, scrut, body):
            sty = nameful_synth(scrut, env)
            assert isinstance(sty, tt.Conj), sty
            return nameful_synth(body, {**env, x: sty.left, y: sty.right})
        case Pack(_, _, ex):
            return ex
        case LetPack(tv, x, scrut, body):
            sty = nameful_synth(scrut, env)
            assert isinstance(sty, tt.Exists), sty
            return nameful_synth(body, {**env, x: tt.inst_tvar(sty.body, tt.TgVarT(tv))})
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


def _rw_beta_pair(t, env, mode):
    match t:
        case LetPair(x, y, Pair(left, right), body):
            return subst_refresh(subst_refresh(body, x, left), y, right)
    return None


def _rw_beta_pack(t, env, mode):
    match t:
        case LetPack(tv, x, Pack(w, payload, _), body):
            return subst_refresh(subst_tatom(body, tv, w), x, payload)
    return None


def _rw_eta_fun(t, env, mode):
    match t:
        case TgLam(x, _, TgApp(TgVar(g), TgVar(x2))) if x2 == x and g != x:
            return TgVar(g)
    return None


def _rw_star_eta(t, env, mode):
    # lam u : exists X. X. f Star  =  lam u. f u  =  f   (terminality + eta)
    if mode != PARAMETRIC:
        return None
    match t:
        case TgLam(x, ann, TgApp(TgVar(g), Star())) if ann == tt.TOP and g != x:
            return TgVar(g)
    return None


def _replace_pattern(t, atom: str, pats: tuple[TargetTerm, ...], rep: TargetTerm):
    """Replace every occurrence of any pattern; counts replacements.
    Every pattern holds the atom free."""
    count = 0

    def occurrence(node):
        nonlocal count
        if node in pats:
            count += 1
            return uniquify(rep)
        return None

    return _replace_where(t, atom, occurrence), count


def _rw_eta_pair(t, env, mode):
    # In parametric mode the pattern also matches  <x, Star>  when the
    # second component is at exists X. X: terminality rewrites Star back
    # to y, after which this is the literal pair-eta axiom.
    match t:
        case LetPair(x, y, scrut, body):
            pats: tuple[TargetTerm, ...] = (Pair(TgVar(x), TgVar(y)),)
            if mode == PARAMETRIC:
                sty = nameful_synth(scrut, env)
                if isinstance(sty, tt.Conj) and sty.right == tt.TOP:
                    pats = pats + (Pair(TgVar(x), STAR),)
            out, count = _replace_pattern(body, x, pats, scrut)
            if count >= 1 and not nameful_occurs(out, x) and not nameful_occurs(out, y):
                return out
    return None


def _rw_eta_pack(t, env, mode):
    match t:
        case LetPack(tv, x, scrut, body):
            sty = nameful_synth(scrut, env)
            pat = Pack(tt.TgVarT(tv), TgVar(x), sty)
            out, count = _replace_pattern(body, x, (pat,), scrut)
            if (
                count >= 1
                and not nameful_occurs(out, x)
                and not nameful_tvar_occurs(out, tv)
            ):
                return out
    return None


def _replace_first_scrut(body, atom: str, kind, rep):
    """Rebuild body with the first same-kind let scrutinising atom
    redirected, or None if there is none."""
    if atom not in free_atoms(body):
        return None
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


def _rw_dedup_pair(t, env, mode):
    # let <x,y> = a in B  =  let <x,y> = a in B[<x,y>/a]  (pair eta at one
    # occurrence); redirecting an inner re-destructuring of a onto the
    # outer binders lets beta contract it.
    match t:
        case LetPair(x, y, TgVar(a), body):
            out = _replace_first_scrut(body, a, LetPair, Pair(TgVar(x), TgVar(y)))
            if out is not None:
                return LetPair(x, y, TgVar(a), out)
    return None


def _rw_dedup_pack(t, env, mode):
    match t:
        case LetPack(tv, x, TgVar(a), body):
            rep = Pack(tt.TgVarT(tv), TgVar(x), nameful_synth(TgVar(a), env))
            out = _replace_first_scrut(body, a, LetPack, rep)
            if out is not None:
                return LetPack(tv, x, TgVar(a), out)
    return None


def _rw_dead_let_pair(t, env, mode):
    match t:
        case LetPair(x, y, _, body):
            if not nameful_occurs(body, x) and not nameful_occurs(body, y):
                return body
    return None


def _rw_dead_let_pack(t, env, mode):
    match t:
        case LetPack(tv, x, _, body):
            if not nameful_occurs(body, x) and not nameful_tvar_occurs(body, tv):
                return body
    return None


# The hoist-* rules below are commuting conversions: each one is the
# composite of a let-eta instance read right-to-left (abstract the let's
# scrutinee at the moved position) and the corresponding let-beta
# contraction, so the replayer may treat a hoist step as two axiom
# steps.  let-swap is two such conversions back to back.


def _is_let(t) -> bool:
    return isinstance(t, (LetPair, LetPack))


def _remake_let(t, scrut, body):
    if isinstance(t, LetPair):
        return LetPair(t.hint_x, t.hint_y, scrut, body)
    return LetPack(t.hint_t, t.hint_x, scrut, body)


def _rw_hoist_app_fn(t, env, mode):
    match t:
        case TgApp(fn, arg) if _is_let(fn):
            return _remake_let(fn, fn.scrut, TgApp(fn.body, arg))
    return None


def _rw_hoist_app_arg(t, env, mode):
    match t:
        case TgApp(fn, arg) if _is_let(arg):
            return _remake_let(arg, arg.scrut, TgApp(fn, arg.body))
    return None


def _rw_hoist_pair_left(t, env, mode):
    match t:
        case Pair(left, right) if _is_let(left):
            return _remake_let(left, left.scrut, Pair(left.body, right))
    return None


def _rw_hoist_pair_right(t, env, mode):
    match t:
        case Pair(left, right) if _is_let(right):
            return _remake_let(right, right.scrut, Pair(left, right.body))
    return None


def _rw_hoist_pack(t, env, mode):
    match t:
        case Pack(w, payload, ex) if _is_let(payload):
            return _remake_let(payload, payload.scrut, Pack(w, payload.body, ex))
    return None


def _rw_hoist_scrut(t, env, mode):
    if _is_let(t) and _is_let(t.scrut):
        inner = t.scrut
        return _remake_let(inner, inner.scrut, _remake_let(t, inner.body, t.body))
    return None


def _rw_hoist_lam(t, env, mode):
    # lam x. let p = s in A  =  let p = s in lam x. A   (x not in s);
    # the engine blocks this at the root so the outermost Program keeps
    # its  lam k. A  shape.
    match t:
        case TgLam(x, ann, body) if _is_let(body):
            if not nameful_occurs(body.scrut, x):
                return _remake_let(body, body.scrut, TgLam(x, ann, body.body))
    return None


def _rw_let_expand(t, env, mode):
    # A let of negation type is eta-expanded so the binding can live in
    # the answer layer of the canonical grammar.
    if _is_let(t):
        ty = nameful_synth(t, env)
        if isinstance(ty, tt.Neg):
            k = fresh("k")
            return TgLam(k, ty.body, _remake_let(t, t.scrut, TgApp(t.body, TgVar(k))))
    return None


def _binder_atoms(t) -> tuple[str, ...]:
    if isinstance(t, LetPair):
        return (t.hint_x, t.hint_y)
    if isinstance(t, LetPack):
        return (t.hint_t, t.hint_x)
    return ()


def _scrut_key(scrut, env_order: dict[str, int]):
    # Variables bound further out (or free, by name) order first.
    if isinstance(scrut, TgVar):
        return (0, env_order.get(scrut.name, -1), scrut.name)
    return (1, 0, "")


def _rw_let_swap(t, env, mode):
    # Order adjacent independent lets by their scrutinee variables:
    # outermost-bound scrutinee first, free atoms alphabetically.
    if _is_let(t) and _is_let(t.body):
        outer, inner = t, t.body
        outer_atoms = set(_binder_atoms(outer))
        inner_uses = {
            a for a in outer_atoms if nameful_occurs(inner.scrut, a)
        }
        if isinstance(outer, LetPack) and nameful_tvar_occurs(inner.scrut, outer.hint_t):
            inner_uses.add(outer.hint_t)
        if not inner_uses:
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


def _is_image_neg(ty) -> bool:
    return isinstance(ty, tt.Neg) and tt.is_image(ty.body)


def _expand_value(child, env, mode):
    if not isinstance(child, TgVar):
        return None
    ty = nameful_synth(child, env)
    if isinstance(ty, tt.Conj):
        a, b = fresh("a"), fresh("b")
        return LetPair(a, b, child, Pair(TgVar(a), TgVar(b)))
    return None


def _expand_program(child, env, mode):
    if not isinstance(child, TgVar):
        return None
    ty = nameful_synth(child, env)
    if _is_image_neg(ty):
        k = fresh("k")
        return TgLam(k, ty.body, TgApp(child, TgVar(k)))
    return None


def _rw_expand(t, env, mode):
    slots: list[tuple[int, bool]] = []
    match t:
        case TgApp(_, _):
            slots = [(1, False)]
        case Pair(_, _):
            slots = [(0, True), (1, False)]
        case Pack(_, _, _):
            slots = [(0, False)]
        case LetPair(_, _, _, _) | LetPack(_, _, _, _):
            slots = [(1, False)]
    kids = list(children(t))
    for i, programish in slots:
        child = kids[i]
        cenv = _env_through(t, i, env)
        out = _expand_program(child, cenv, mode) if programish else _expand_value(child, cenv, mode)
        if out is not None:
            kids[i] = out
            return with_children(t, tuple(kids))
    return None


def _at(rule, *heads: type):
    """Declare the node classes at which rule can apply (it returns None at
    every other node)."""
    rule.heads = frozenset(heads)
    return rule


_LETS = (LetPair, LetPack)

# Rule groups in priority order; within a group, scanning is preorder
# (leftmost-outermost) and the listed order breaks ties at a node.  Each
# rule names its heads beside its name; star has none among TgLam, TgApp
# and Pair, whose types are not t, R and t /\ t.
BETA_RULES = (
    ("beta-fun", _at(_rw_beta_fun, TgApp)),
    ("beta-pair", _at(_rw_beta_pair, LetPair)),
    ("beta-pack", _at(_rw_beta_pack, LetPack)),
)
ETA_RULES = (
    ("eta-fun", _at(_rw_eta_fun, TgLam)),
    ("eta-pair", _at(_rw_eta_pair, LetPair)),
    ("eta-pack", _at(_rw_eta_pack, LetPack)),
    ("dead-let-pair", _at(_rw_dead_let_pair, LetPair)),
    ("dead-let-pack", _at(_rw_dead_let_pack, LetPack)),
    ("dedup-pair", _at(_rw_dedup_pair, LetPair)),
    ("dedup-pack", _at(_rw_dedup_pack, LetPack)),
)
HOIST_RULES = (
    ("hoist-app-fn", _at(_rw_hoist_app_fn, TgApp)),
    ("hoist-app-arg", _at(_rw_hoist_app_arg, TgApp)),
    ("hoist-pair-left", _at(_rw_hoist_pair_left, Pair)),
    ("hoist-pair-right", _at(_rw_hoist_pair_right, Pair)),
    ("hoist-pack", _at(_rw_hoist_pack, Pack)),
    ("hoist-scrut", _at(_rw_hoist_scrut, *_LETS)),
    ("hoist-lam", _at(_rw_hoist_lam, TgLam)),
    ("let-expand", _at(_rw_let_expand, *_LETS)),
    ("let-swap", _at(_rw_let_swap, *_LETS)),
)
STAR_RULES = (
    ("star", _at(_rw_star, TgVar, LetPair, Pack, LetPack)),
    ("star-eta", _at(_rw_star_eta, TgLam)),
)
EXPAND_RULES = (("expand", _at(_rw_expand, TgApp, Pair, Pack, *_LETS)),)
SHARE_RULES = (
    ("dead-let-pair", _rw_dead_let_pair),
    ("dead-let-pack", _rw_dead_let_pack),
    ("dedup-pair", _rw_dedup_pair),
    ("dedup-pack", _rw_dedup_pack),
)

ALL_RULES = dict(BETA_RULES + ETA_RULES + HOIST_RULES + STAR_RULES + EXPAND_RULES)


def _by_head(group, threads_env: bool = True):
    """A group as the search uses it: per node class, the rules whose head
    it is, in listed order; and whether the search must keep env current."""
    rules = {cls: tuple((n, r) for n, r in group if cls in r.heads) for cls in tg.SYNTAX.children}
    return rules, threads_env


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


def _test(z: _Zipper, rules, mode: str):
    """The first rule of a group that applies at the focus, as (name,
    contractum), or None."""
    node = z.node
    for name, rule in rules[node.__class__]:
        if name == "hoist-lam" and not z.stack:
            continue  # the outermost Program keeps its  lam k. A  shape
        out = rule(node, z.env, mode)
        if out is not None:
            return name, out
    return None


def _scan(z: _Zipper, group, mode: str):
    """Search the focus's subtree and then every subtree right of it, in
    preorder.  On a hit the focus is on the redex; otherwise None, with
    the focus on the root."""
    rules, threads_env = group
    while True:
        hit = _test(z, rules, mode)
        if hit is not None:
            return hit
        if not z.down(0, threads_env) and not z.right(threads_env):
            return None


def _search_beta(z: _Zipper, mode: str):
    """The beta group resumes at the focus.  A beta rule reads only its
    node and the class of a child, so a step can make a beta redex only
    in the contractum or at its parent; the parent is re-tested alone."""
    rules = _BETA[0]
    stack = z.stack
    if stack and rules[stack[-1][0].__class__]:
        slot = stack[-1][1]
        z.up()
        hit = _test(z, rules, mode)
        if hit is not None:
            return hit
        z.down(slot, False)
    return _scan(z, _BETA, mode)


def _search(z: _Zipper, group, resume: tuple[int, ...], mode: str):
    """Any other group resumes at its path: it re-tests the ancestors of
    the path from the root down, then scans from the path."""
    rules, threads_env = group
    z.unwind()
    for i in resume:
        hit = _test(z, rules, mode)
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
    raise RewriteError(f"{what} did not terminate within the step budget")


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
    t = _run(t, env, mode, _contract_groups(mode), steps)
    t = _run(t, env, mode, _expand_groups(mode), steps)
    t = _run(t, env, mode, _contract_groups(mode), steps)
    return t, steps


def normalize(
    term: TargetTerm, context: TgContext = (), mode: str = PLAIN, *, beta_only: bool = False
) -> tuple[TargetTerm, list[RewriteStep]]:
    """Normalise a locally closed target term; returns (result, trace)."""
    env = dict(context)
    t = to_nameful(term)
    if beta_only:
        steps: list[RewriteStep] = []
        t = _run(t, env, mode, [_BETA], steps)
    else:
        t, steps = normalize_nameful(t, env, mode)
    return from_nameful(t), steps


def beta_normalize(term: TargetTerm, context: TgContext = ()) -> TargetTerm:
    """Contract all beta redexes (function, pair-let, pack-let)."""
    out, _ = normalize(term, context, PLAIN, beta_only=True)
    return out


def replay(
    term: TargetTerm,
    steps: list[RewriteStep],
    context: TgContext = (),
    mode: str = PLAIN,
) -> TargetTerm:
    """Re-run a logged trace, validating every step, and return the result.

    A step is valid when the named rule's pattern matches at the recorded
    position; primitive rules are literal axiom instances, derived rules
    (hoist-*, let-*, dedup-*, star-eta, the eta-pair and eta-pack
    patterns) compose axiom instances as documented on their
    implementations, some in more than two steps.
    """
    env = dict(context)
    t = to_nameful(term)
    for step in steps:
        rule = ALL_RULES.get(step.rule)
        if rule is None:
            raise ReplayError(f"unknown rule {step.rule}")
        try:
            node = tg.subterm_at(t, step.path)
        except IndexError:
            raise ReplayError(f"path {step.path} does not exist") from None
        node_env = env
        cur = t
        for i in step.path:
            node_env = _env_through(cur, i, node_env)
            cur = children(cur)[i]
        out = rule(node, node_env, mode)
        if out is None:
            raise ReplayError(f"rule {step.rule} does not apply at {step.path}")
        t = tg.replace_at(t, step.path, out)
    return from_nameful(t)
