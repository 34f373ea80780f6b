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

The engine works on the kernel's nameful form of a term
(`target_terms.to_nameful`): every binder holds a globally unique atom
in its hint slot, so moving a subterm across binders (let hoisting) can
never capture.  Duplication re-freshens binder atoms.
`normalize_nameful` and `normalize_pair` take nameful terms, as the
rest of the kernel hands them over; `normalize` opens a locally closed
term and closes its normal form.  `canonical`'s grammar walk types its
heads and scrutinees with `nameful_synth`.

Rule groups are tried in priority order: each step applies the first
group that has a redex, at that group's first redex in preorder
(leftmost-outermost).  The search does not restart at the root after a
step.  A step at path p changes only p's subtree and p's ancestors:
every other node is the same object under the same typing environment.
So each group resumes where its last search left off, or at p if that
is earlier.  Once a search of a group has found nothing, the group
scans no further than the smallest subtree that holds every step
since: after one step it re-tests p's ancestors and scans p's subtree
alone.  The beta group, first in every phase, resumes at the
contractum and re-tests only its parent.  A phase's output has no
redex of any of its rules, so the next phase does not search a group
whose rules are all among them until its first step lands: phase 2
starts with expand alone, phase 3 with eta alone.
The focus is a zipper over the term, and the path to the root is
rebuilt once, when the zipper unwinds.  `_run` states the invariant;
the test suite checks every step against a search from the root.  Type
facts are computed once per immutable type object (`tt.ftv_memo`,
`tt.open_exists`), so they hold under every context.

A beta-pack step whose witness is a type atom Y substitutes nothing:
the let's atom X becomes an alias of Y in the run's state (`RunState`).
Binder atoms are unique and X's binder is gone, so the alias holds for
the rest of the run.  Renaming one type atom to another changes no
type's head class, no comparison with tt.TOP (which has no free atom)
and no tt.is_image answer, so only four places resolve aliases, those
that read atoms: (a) eta-pack's pattern match; (b) whether a let-pack
atom occurs (dead-let-pack, eta-pack's walk); (c) a copy, before it
renames binders, as an alias's target may be bound inside it; (d) the
end of a run or of a `_follow` caller, so no alias leaves a run.  Any
other witness is substituted at once, for X and for X's aliases.

Every applied step is logged as ``rule path``.  `_follow` applies a
logged step list on the zipper by rule name and path, with these same
rule functions; `replay` is that walk on a locally nameless term.  It
shares the engine's rules, so it does not check them.

`normalize_pair` normalises the two sides of an equation in lockstep.
A phase's steps are a function of the alpha-class of its input: no rule
reads an atom's name, and let-swap's name tiebreak only separates
atoms of equal binding order, which are the same atom.  So once the
right side is alpha-equal to the left (`tg.nameful_equal`, which
compares the nameful sides in place), it stops searching and follows
the left side's steps on its own term.  Its binder names, normal form
and trace are exactly those of its own search.  Only the two results
are closed.
"""

from __future__ import annotations

from operator import itemgetter

from . import target_types as tt
from . import target_terms as tg
from .mu_terms import base_name
from .record import fields, record
from .syntax import TERM, TVAR, TYPE, VAR, Child, Leaf, field_getter
from .target_terms import (
    LetPack,
    LetPair,
    Pack,
    Pair,
    Star,
    STAR,
    TargetTerm,
    TgApp,
    TgLam,
    TgVar,
    children,
    fresh,
    to_nameful,
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


# ---------------------------------------------------------------------------
# Nameful round trip: target_terms.to_nameful opens, from_nameful closes.


def from_nameful(t: TargetTerm) -> TargetTerm:
    return tg.close_binders(t, base_name)


# ---------------------------------------------------------------------------
# Free-atom memos.  The free term atoms of a nameful node, and its free
# type atoms, are functions of the node alone, so each node object gets
# each set once, built from its children's sets, and keeps it in its
# instance dict under a key (_ATOMS, _TATOMS) beside the record fields;
# ``==``, ``hash`` and ``repr`` read only the fields.  A rewrite step
# rebuilds the path to the redex and what the rule builds, so only those
# nodes lack a set afterwards; subst_tatom gives the nodes it rebuilds
# both sets.  So most reads hit: `_rebuild` reads a child's set straight
# from its dict and calls `_memo` only on a miss.  `_memo` visits each
# node that lacks the set once: it collects them in one preorder pass
# and fills them in reverse, children first, each by one function of its
# class that `_compile` derives from the binder table.  An annotation's
# type atoms are memoised on the type object.

_ATOMS = "_free_atoms"
_TATOMS = "_free_tatoms"
_NO_ATOMS: frozenset[str] = frozenset()
_KIDS = tg.SYNTAX.children  # node class -> getter of its children, in slot order
_REBUILD = tg.SYNTAX.rebuild  # node class -> rebuild(node, children in slot order)


def _own_set(cls: type, specs: tuple, ns: int, key: str) -> str:
    """The body of cls's own-set function for namespace ns: the union of
    its slots' sets, the term children's memoised under key first, then
    the annotations' (`tt.ftv_memo`), each less the atoms of the node's
    binders that scope over the slot.  It returns a child's set where the
    other operand adds nothing, so most nodes hold a child's set, not a
    copy, and subtracts binder atoms only where one occurs."""
    if specs and isinstance(specs[0], Leaf):  # a free occurrence
        return "return frozenset((t.name,))" if specs[0].ns == ns else "return E"
    binders = [f for f, n, _ in tg.BINDERS.get(cls, ()) if n == ns]  # a later one innermost
    slots = [(f.name, s) for f, s in zip(fields(cls), specs) if isinstance(s, Child) and ns in s.sort]
    slots.sort(key=lambda slot: slot[1].sort != TERM)
    lines = []  # s holds the union so far, o the next operand
    for j, (name, s) in enumerate(slots):
        v = "o" if j else "s"
        lines.append(f"{v} = t.{name}.__dict__[{key!r}]" if s.sort == TERM else f"{v} = ftv(t.{name})")
        under = binders[len(binders) - s[1 + ns]:]  # the innermost binders, as many as the slot sits under
        if under:
            test, atoms = " or ".join(f"t.{b} in {v}" for b in under), "".join(f"t.{b}, " for b in under)
            lines.append(f"if {test}:\n        {v} = {v}.difference(({atoms}))")
        if 0 < j < len(slots) - 1:
            lines.append("if o and o is not s:\n        s = s | o if s else o")
    if len(slots) == 1:
        lines.append("return s")
    elif slots:  # the last union is returned as it is made
        lines.append("if not o or o is s:\n        return s\n    return s | o if s else o")
    return "\n    ".join(lines) or "return E"


def _compile() -> tuple[dict, dict, dict, dict]:
    """Per term class of the binder table, bound leaves aside: its
    own-set function for VAR and for TVAR (see `_own_set`), the getter of
    its annotations (its Child(TYPE) fields), and retype(t, f, kids), t
    with each annotation a replaced by f(a) and its term children by
    kids.  All are compiled in one exec, as `Syntax.rebuild` is."""
    stems = ("atoms", "tatoms", "annotations", "retype")
    env, source, classes = {"E": _NO_ATOMS, "ftv": tt.ftv_memo}, [], []
    for cls, specs in tg.TABLE.items():
        if not issubclass(cls, TargetTerm) or cls in tg.SYNTAX.bound_leaf.values():
            continue
        name, field_names = cls.__name__, [f.name for f in fields(cls)]
        kids = [i for i, s in enumerate(specs) if isinstance(s, Child) and s.sort == TERM]
        anns = [n for n, s in zip(field_names, specs) if isinstance(s, Child) and s.sort == TYPE]
        args = ", ".join(
            f"k[{kids.index(i)}]" if i in kids else f"f(t.{n})" if n in anns else f"t.{n}"
            for i, n in enumerate(field_names)
        )
        env[name] = cls
        classes.append(cls)
        source += (
            f"def atoms_{name}(t):\n    {_own_set(cls, specs, VAR, _ATOMS)}\n",
            f"def tatoms_{name}(t):\n    {_own_set(cls, specs, TVAR, _TATOMS)}\n",
            f"def annotations_{name}(t):\n    return ({''.join(f't.{n}, ' for n in anns)})\n",
            f"def retype_{name}(t, f, k):\n    return {f'{name}({args})' if kids or anns else 't'}\n",
        )
    made: dict = {}
    exec("".join(source), env, made)
    return tuple({cls: made[f"{stem}_{cls.__name__}"] for cls in classes} for stem in stems)


_OWN_ATOMS, _OWN_TATOMS, _ANNOTATIONS, _RETYPE = _compile()
_MEMO_OF = ((_ATOMS, _OWN_ATOMS), (_TATOMS, _OWN_TATOMS))  # per namespace, VAR and TVAR: key and own sets


def _memo(t: TargetTerm, key: str, own: dict) -> frozenset[str]:
    """The set own[class] computes from a node's children's sets, memoised
    under key per node object.  The nodes that lack the key are collected
    in one preorder pass over an explicit stack, so a deep term costs no
    Python frames here, and filled in reverse order, where every node
    comes after its children.  A subterm shared below two collected
    nodes is collected twice and filled once."""
    memo = t.__dict__
    atoms = memo.get(key)
    if atoms is not None:
        return atoms
    todo, found = [t], []
    while todo:
        node = todo.pop()
        found.append(node)
        for kid in _KIDS[node.__class__](node):
            if key not in kid.__dict__:
                todo.append(kid)
    for node in reversed(found):
        held = node.__dict__
        if key not in held:
            held[key] = own[node.__class__](node)
    return memo[key]


def free_atoms(t: TargetTerm) -> frozenset[str]:
    """The free term atoms of a nameful term, memoised per node object.
    Binder atoms are unique, so an atom that occurs anywhere in t is free."""
    return _memo(t, _ATOMS, _OWN_ATOMS)


def free_tatoms(t: TargetTerm) -> frozenset[str]:
    """The free type atoms of a nameful term, memoised per node object."""
    return _memo(t, _TATOMS, _OWN_TATOMS)


def uniquify(t: TargetTerm, run: RunState | None = None) -> TargetTerm:
    """Refresh every binder atom of a nameful term (used on duplication) by
    closing and reopening it, the run's aliases resolved first: fresh sees
    the same base names in preorder."""
    return to_nameful(from_nameful(run.leave(t) if run else t))


def _rebuild(t: TargetTerm, atoms, key: str, own: dict, replace, build=None) -> TargetTerm:
    """Rebuild t bottom-up over an explicit stack, one entry per node on
    the path from the root.  Only subtrees s whose set under key (see
    `_memo`) meets the atoms are visited; every other subtree is kept as
    the same object.  A child's set is read from its instance dict, and
    `_memo` fills it from own only if it is missing.  In preorder,
    replace(s) takes the place of a visited s unless it is None, and
    else s becomes build(s, its children as rebuilt), by default s's
    class's rebuilder (`_REBUILD`)."""
    if _memo(t, key, own).isdisjoint(atoms):
        return t
    out = replace(t)
    if out is not None:
        return out
    stack = []  # per ancestor: its node, children left and children rebuilt
    node, todo, done = t, iter(_KIDS[t.__class__](t)), []
    while True:
        for kid in todo:
            held = kid.__dict__.get(key)
            if held is None:
                held = _memo(kid, key, own)
            if not held.isdisjoint(atoms):
                out = replace(kid)
                if out is None:
                    stack.append((node, todo, done))
                    node, todo, done = kid, iter(_KIDS[kid.__class__](kid)), []
                    break
                kid = out
            done.append(kid)
        else:
            out = _REBUILD[node.__class__](node, done) if build is None else build(node, done)
            if not stack:
                return out
            node, todo, done = stack.pop()
            done.append(out)


def _replace_where(t: TargetTerm, atom: str, replace) -> TargetTerm:
    """Rebuild t with each outermost subtree s for which replace(s) is not
    None replaced by that value.  Only subtrees that hold atom free are
    visited, so every other subtree is returned as the same object."""
    return _rebuild(t, (atom,), _ATOMS, _OWN_ATOMS, replace)


def subst_refresh(t: TargetTerm, x: str, rep: TargetTerm, run: RunState | None = None) -> TargetTerm:
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
        return uniquify(rep, run)

    return _replace_where(t, x, occurrence)


def subst_tatom(t: TargetTerm, reps: dict[str, tt.TargetType]) -> TargetTerm:
    """Nameful substitution of reps[a] for each type atom a, in one pass.
    Only nodes whose free type atoms meet the atoms are rebuilt; every
    other subtree is returned as the same object.  A rebuilt node keeps
    the term-atom memo of the node it replaces, since a type changes no
    term atom, and gets its type atoms from its children (`_OWN_TATOMS`):
    an image's atom may be bound inside the node.  Each distinct
    annotation object that holds one of the atoms is substituted once
    per call."""
    if free_tatoms(t).isdisjoint(reps):
        return t
    images = {}  # id of an annotation -> its image

    def sub(ann: tt.TargetType) -> tt.TargetType:
        if tt.ftv_memo(ann).isdisjoint(reps):
            return ann
        out = images.get(id(ann))
        if out is None:
            out = images[id(ann)] = tt.SYNTAX.subst(TVAR, ann, reps)
        return out

    def build(s: TargetTerm, kids: list) -> TargetTerm:
        cls = s.__class__
        out = _RETYPE[cls](s, sub, kids)
        memo, old = out.__dict__, s.__dict__
        if _ATOMS in old:
            memo[_ATOMS] = old[_ATOMS]
        memo[_TATOMS] = _OWN_TATOMS[cls](out)
        return out

    return _rebuild(t, reps, _TATOMS, _OWN_TATOMS, lambda s: None, build)


# ---------------------------------------------------------------------------
# Type-atom aliases (see the module docstring)


class RunState:
    """One run's state beside its term: the mode, and the alias map from
    each aliased type atom to the atom it stands for."""

    __slots__ = ("mode", "aliases")

    def __init__(self, mode: str):
        self.mode, self.aliases = mode, {}

    def leave(self, t: TargetTerm) -> TargetTerm:
        """t with every aliased type atom replaced by its target."""
        return subst_tatom(t, _targets(self.aliases)) if self.aliases else t


def _find(aliases: dict[str, str], atom: str) -> str:
    """The target of an atom: the end of its alias chain, still bound."""
    while atom in aliases:
        atom = aliases[atom]
    return atom


def _targets(aliases: dict[str, str]) -> dict[str, tt.TargetType]:
    return {a: tt.TgVarT(_find(aliases, a)) for a in aliases}


def _read(s: TargetTerm, aliases: dict[str, str]) -> TargetTerm:
    """s, with the aliased type atoms of its annotations read as their
    targets."""
    if aliases:
        cls = s.__class__
        for ann in _ANNOTATIONS[cls](s):
            if not tt.ftv_memo(ann).isdisjoint(aliases):
                reps = _targets(aliases)
                return _RETYPE[cls](s, lambda a: tt.SYNTAX.subst(TVAR, a, reps), _KIDS[cls](s))
    return s


def _with_aliases(atoms: tuple[str, ...], aliases: dict[str, str]) -> tuple[str, ...]:
    """The type atoms and every atom aliased to one of them."""
    return (*atoms, *(a for a in aliases if _find(aliases, a) in atoms)) if aliases else atoms


def _bind_tatom(body: TargetTerm, tv: str, w: tt.TargetType, run: RunState) -> TargetTerm:
    """body with the let-pack atom tv bound to the witness w: tv becomes an
    alias of an atom w; any other w replaces tv and tv's aliases at once."""
    aliases = run.aliases
    if w.__class__ is tt.TgVarT:
        aliases[tv] = _find(aliases, w.name)
        return body
    tvs = _with_aliases((tv,), aliases)
    for a in tvs[1:]:
        del aliases[a]
    return subst_tatom(body, dict.fromkeys(tvs, w))


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


def _env_lam(t: TgLam, env: dict[str, tt.TargetType]) -> dict[str, tt.TargetType]:
    return {**env, t.hint: t.ann}


def _env_let_pair(t: LetPair, env: dict[str, tt.TargetType]) -> dict[str, tt.TargetType]:
    sty = nameful_synth(t.scrut, env)
    assert isinstance(sty, tt.Conj), sty
    return {**env, t.hint_x: sty.left, t.hint_y: sty.right}


def _env_let_pack(t: LetPack, env: dict[str, tt.TargetType]) -> dict[str, tt.TargetType]:
    sty = nameful_synth(t.scrut, env)
    assert isinstance(sty, tt.Exists), sty
    return {**env, t.hint_x: tt.open_exists(sty, t.hint_t)}


#: Per node class, per child slot: the rule that gives the slot's typing
#: environment from the node's, or None where the slot binds nothing
#: (the environment passes down as it is).  Only a lambda's body and a
#: let's body sit under binders.
_ENV_STEPS = {
    TgVar: (), Star: (), TgLam: (_env_lam,), TgApp: (None, None), Pair: (None, None),
    LetPair: (None, _env_let_pair), Pack: (None,), LetPack: (None, _env_let_pack),
}


def _env_through(t: TargetTerm, i: int, env: dict[str, tt.TargetType]) -> dict[str, tt.TargetType]:
    """Typing environment for child slot i of nameful node t."""
    step = _ENV_STEPS[t.__class__][i]
    return env if step is None else step(t, env)


# ---------------------------------------------------------------------------
# Rules.  Each takes the nameful redex, its env and the run's state
# (`RunState`: the mode and the alias map) and returns the contractum or
# None when the pattern does not apply.


def _rw_beta_fun(t, env, run):
    match t:
        case TgApp(TgLam(x, _, body), arg):
            return subst_refresh(body, x, arg, run)
    return None


def _rw_eta_fun(t, env, run):
    # No check that the head g is not x: lam x:A. x x is ill typed (x
    # applied to itself needs A = not A), and every input to the engine
    # is typechecked first.
    match t:
        case TgLam(x, _, TgApp(TgVar(g), TgVar(x2))) if x2 == x:
            return TgVar(g)
    return None


def _rw_star_eta(t, env, run):
    # lam u : exists X. X. f Star  =  lam u. f u  =  f   (terminality + eta).
    # No check that the head f is not u: u Star with u : exists X. X
    # applies a non-negation, which the typechecker refuses first.
    if run.mode != PARAMETRIC:
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
    # term atom and `_bind_tatom` for the type atom X.  A witness that is
    # a type atom Y is not substituted: X is an alias of Y until the run
    # ends.  Renaming an atom changes no head class, no == tt.TOP and no
    # tt.is_image, and the four readers of atoms resolve aliases: (a)
    # eta-pack's pattern match (`_read`), (b) a let-pack atom's occurrence
    # (`_with_aliases`), (c) a copy, before it renames binders
    # (`uniquify`), and (d) the end of a run (`RunState.leave`).
    let, intro, atoms, parts = k.let, k.intro, k.atoms, k.parts
    substs = tuple(_bind_tatom if ns == TVAR else subst_refresh for ns in k.nss)

    def rule(t, env, run):
        if t.__class__ is let and t.scrut.__class__ is intro:
            body = t.body
            for subst, atom, part in zip(substs, atoms(t), parts(t.scrut)):
                body = subst(body, atom, part, run)
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
    let, intro, by_ns = k.let, k.intro, k.by_ns
    term_atoms = by_ns[0][1]
    star = let is LetPair

    def rule(t, env, run):
        if t.__class__ is not let:
            return None
        scrut, body, aliases = t.scrut, t.body, run.aliases
        pats = (_read(_intro_of_binders(k, t, env), aliases),)
        if star and run.mode == PARAMETRIC and nameful_synth(scrut, env).right == tt.TOP:
            pats += (Pair(pats[0].left, STAR),)
        for ns, atoms_in in by_ns:
            if not _only_in_patterns(body, pats, atoms_in(t), ns, aliases):
                return None
        # Every pattern holds the first term atom; each takes a copy of s.
        copy = lambda sub: uniquify(scrut, run) if sub.__class__ is intro and _read(sub, aliases) in pats else None
        return _replace_where(body, term_atoms(t)[0], copy)

    return rule


def _only_in_patterns(body, pats: tuple[TargetTerm, ...], atoms: tuple[str, ...], ns: int, aliases: dict) -> bool:
    """Whether some pattern occurs in body and every occurrence of the
    atoms, of namespace ns, lies inside one: a read-only walk over the
    subtrees that hold one of them (or, for a type atom, an alias of it).
    Each pattern holds one of the atoms, so the walk meets every pattern."""
    key, own = _MEMO_OF[ns]
    if ns == TVAR:
        atoms = _with_aliases(atoms, aliases)
    found = False
    todo = [body]
    while todo:
        s = todo.pop()
        cls = s.__class__
        if cls is pats[0].__class__ and _read(s, aliases) in pats:
            found = True
            continue
        if ns == VAR:
            if cls is TgVar:
                return False  # an atom outside the patterns, or a body that is one variable
        else:  # a type atom occurs in annotations
            for ann in _ANNOTATIONS[cls](s):
                if not tt.ftv_memo(ann).isdisjoint(atoms):
                    return False
        for kid in _KIDS[cls](s):
            held = kid.__dict__.get(key)
            if held is None:
                held = _memo(kid, key, own)
            if not held.isdisjoint(atoms):
                todo.append(kid)
    return found


def _dead_let(k: _Kind):
    # let p = s in B  =  B  when no atom of p occurs in B: the eta
    # family's instance C[s] = let p = s in C[I(p)] for a C without the
    # pattern.  The type atom must be dead too: it may occur in
    # annotations, itself or through an atom aliased to it.  Term atoms
    # are tested first, their memo is cheaper.
    let, by_ns = k.let, k.by_ns

    def rule(t, env, run):
        if t.__class__ is let:
            body = t.body
            for ns, atoms_in in by_ns:
                atoms = _with_aliases(atoms_in(t), run.aliases) if ns == TVAR else atoms_in(t)
                if not _memo(body, *_MEMO_OF[ns]).isdisjoint(atoms):
                    return None
            return body
        return None

    return rule


def _dedup(k: _Kind):
    # let p = a in B  =  let p = a in B[I(p)/a]  (let-eta at one occurrence
    # of a); redirecting the first inner let of the same kind that
    # re-destructures a onto I(p) lets beta contract it.
    let = k.let

    def rule(t, env, run):
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

    out = _rebuild(body, (atom,), _ATOMS, _OWN_ATOMS, replace, build)
    return out if found else None


# The hoist-* rules below are commuting conversions: each one is the
# composite of a let-eta instance read right-to-left (abstract the let's
# scrutinee at the moved position) and the corresponding let-beta
# contraction, so the replayer may treat a hoist step as two axiom
# steps.  let-swap is two such conversions back to back.


def _hoist(slot: int, *heads: type, moves=None):
    """C[let p = s in A]  =  let p = s in C[A] for a let in child slot
    `slot` of a node of a head class, if moves(node, let) holds."""

    def rule(t, env, run):
        if t.__class__ in heads:
            kids = children(t)
            let = kids[slot]
            if let.__class__ in _LETS and (moves is None or moves(t, let)):
                kids = kids[:slot] + (let.body,) + kids[slot + 1:]
                return _remake_let(let, let.scrut, with_children(t, kids))
        return None

    return _at(rule, *heads)


def _rw_let_expand(t, env, run):
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


def _rw_let_swap(t, env, run):
    # Order adjacent independent lets by their scrutinee variables:
    # outermost-bound scrutinee first, free atoms alphabetically.  Only a
    # variable scrutinee moves out (the key orders every other one last),
    # and a variable holds no type atom, so the inner let is independent
    # unless its scrutinee is one of the outer let's term atoms.
    if t.__class__ in _LETS and t.body.__class__ in _LETS:
        outer, inner = t, t.body
        if free_atoms(inner.scrut).isdisjoint(_BINDER_ATOMS[outer.__class__](outer)):
            order = {a: i for i, a in enumerate(env)}
            if _scrut_key(inner.scrut, order) < _scrut_key(outer.scrut, order):
                return _remake_let(
                    inner, inner.scrut, _remake_let(outer, outer.scrut, inner.body)
                )
    return None


def _rw_star(t, env, run):
    if run.mode != PARAMETRIC or isinstance(t, Star):
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


def _rw_expand(t, env, run):
    kids = children(t)
    for i, expand in _EXPAND_SLOTS.get(t.__class__, ()):
        child = kids[i]
        if child.__class__ is TgVar:
            out = expand(child, nameful_synth(child, _env_through(t, i, env)), run.mode)
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
    ("hoist-lam", _hoist(0, TgLam, moves=lambda lam, let: lam.hint not in free_atoms(let.scrut))),
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
    it is, in listed order; whether the search must keep env current; the
    same table for the root, which lacks hoist-lam; and its rule names."""
    rules = {cls: tuple((n, r) for n, r in group if cls in r.heads) for cls in tg.SYNTAX.children}
    root = {cls: tuple(nr for nr in kids if nr[0] != "hoist-lam") for cls, kids in rules.items()}
    return rules, threads_env, root, frozenset(n for n, _ in group)


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
# leftmost-outermost search where that group's last search left off,
# and, once a search of the group has found nothing, no further than
# the subtree that the steps since have changed.  So a step costs the
# nodes it changes and the search the nodes it visits anew, not a walk
# from the root.


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
        kids = _KIDS[node.__class__](node)
        if i >= len(kids):
            return False
        env = self.env
        self.stack.append([node, i, env, kids, False])
        self.node = kids[i]
        if threads_env:
            step = _ENV_STEPS[node.__class__][i]
            if step is not None:
                self.env = step(node, env)
        else:
            self.env = None
        return True

    def up(self) -> None:
        parent, _, env, kids, dirty = self.stack.pop()
        self.env = env
        if dirty:
            self.replace(_REBUILD[parent.__class__](parent, kids))
        else:
            self.node = parent

    def right(self, threads_env: bool, floor: int) -> bool:
        """Move to the next subtree in preorder outside the focus but
        inside the subtree at depth floor on its path: the right sibling
        of the focus or of its nearest ancestor below that depth that has
        one.  False, with the focus at depth floor, at the end of that
        subtree."""
        stack = self.stack
        while len(stack) > floor:
            frame = stack[-1]
            i = frame[1] + 1
            kids = frame[3]
            if i < len(kids):
                frame[1] = i
                self.node = kids[i]
                if threads_env:
                    step = _ENV_STEPS[frame[0].__class__][i]
                    self.env = frame[2] if step is None else step(frame[0], frame[2])
                else:
                    self.env = None
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


def _test(z: _Zipper, group, run: RunState):
    """The first rule of a group that applies at the focus, as (name,
    contractum), or None."""
    node = z.node
    for name, rule in (group[0] if z.stack else group[2])[node.__class__]:
        out = rule(node, z.env, run)
        if out is not None:
            return name, out
    return None


def _scan(z: _Zipper, group, floor: int, run: RunState):
    """Search the focus's subtree and then every subtree right of it, in
    preorder, up to the end of the subtree at depth floor on the focus's
    path.  On a hit the focus is on the redex; otherwise None, with the
    focus at depth floor."""
    threads_env = group[1]
    while True:
        hit = _test(z, group, run)
        if hit is not None:
            return hit
        if not z.down(0, threads_env) and not z.right(threads_env, floor):
            return None


def _search_beta(z: _Zipper, floor: int, run: RunState):
    """The beta group resumes at the focus.  A beta rule reads only its
    node and the class of a child, so a step can make a beta redex only
    in the contractum or at its parent; the parent is re-tested alone,
    then `_scan` runs from the focus within floor."""
    stack = z.stack
    if stack and _BETA[0][stack[-1][0].__class__]:
        slot = stack[-1][1]
        z.up()
        hit = _test(z, _BETA, run)
        if hit is not None:
            return hit
        z.down(slot, False)
    return _scan(z, _BETA, floor, run)


def _search(z: _Zipper, group, resume: tuple[int, ...], floor: int, run: RunState):
    """Any other group resumes at its path: it re-tests the ancestors of
    the path from the root down, then `_scan` runs from the path within
    floor."""
    threads_env = group[1]
    z.unwind()
    for i in resume:
        hit = _test(z, group, run)
        if hit is not None:
            return hit
        z.down(i, threads_env)
    return _scan(z, group, floor, run)


def _run(t, env, mode, groups, steps, normal=frozenset()):
    """Rewrite t to a normal form of the groups, which are in priority
    order with the beta group first: each step applies the first group
    that has a redex, at its first redex in preorder.  No rule named in
    normal has a redex in t.

    Every group keeps a resume path r and a floor depth f <= len(r),
    with the invariant: each redex of the group is an ancestor of r, or
    lies at or after r in preorder inside the subtree at r[:f] (paths
    compare in preorder as tuples).  A search tests r's ancestors, whose
    rules read the subtrees that hold r, from the root down, then scans
    from r in preorder to the end of the subtree at r[:f].  That search
    is complete: r's ancestors come before every node of the scan in
    preorder, and the invariant puts every other redex in the scan.  So
    it finds the group's first redex, and if it finds none the group has
    no redex anywhere: r is None.  A group starts at r = () and f = 0,
    the whole term.  Beta tests only the parent of r, its focus: a beta
    rule reads only its node and the class of a child, so no other
    ancestor of a step can become a beta redex.  The run's aliases
    (`RunState`) are resolved in the normal form it returns.

    A step at path p replaces p's subtree and rebuilds p's ancestors;
    every other node is the same object under the same env (the rules
    preserve types), so it is a redex only if it was one before.  So
    afterwards a group with r = None holds (p, len(p)): its next search
    tests p's ancestors and scans p's subtree alone.  Any other group
    adds p's subtree to its own: if p lies outside the subtree at
    r[:f], the floor falls to the length of their common prefix
    (`_meet`).  It resumes at min(r, p), or at p if it is the group that
    stepped, which found no redex before p.  A group whose rules are all
    in normal has no redex anywhere, so it starts at r = None and is not
    searched until a step lands.  For beta, first in every phase, r is
    always p, where the focus is after the step."""
    z, run = _Zipper(t, env), RunState(mode)
    resume: list = [None if group[3] <= normal else () for group in groups]
    floor = [0] * len(groups)
    for _ in range(MAX_STEPS):
        for g, group in enumerate(groups):
            if resume[g] is None:
                continue
            if g == 0:
                hit = _search_beta(z, floor[g], run)
            else:
                hit = _search(z, group, resume[g], floor[g], run)
            if hit is not None:
                break
            resume[g] = None
        else:
            return run.leave(z.unwind())
        name, out = hit
        path = z.path()
        z.replace(out)
        steps.append(RewriteStep(name, path))
        for h, r in enumerate(resume):
            if r is None:
                resume[h], floor[h] = path, len(path)
                continue
            f = floor[h]
            if path[:f] != r[:f]:
                floor[h] = _meet(r, f, path)
            if h == g or path < r:
                resume[h] = path
    raise StepBudgetExceeded("rewrite did not terminate within the step budget")


def _meet(r: tuple[int, ...], f: int, p: tuple[int, ...]) -> int:
    """The length of the common prefix of r[:f] and a path p outside the
    subtree at r[:f]."""
    c, end = 0, min(f, len(p))
    while c < end and r[c] == p[c]:
        c += 1
    return c


def _phases(mode: str):
    """Contract, eta-expand to the long form, then contract again."""
    return _contract_groups(mode), _expand_groups(mode), _contract_groups(mode)


def _covered(groups) -> frozenset:
    """The rule names of the groups: none has a redex in a phase's output."""
    return frozenset().union(*(group[3] for group in groups))


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
    normal = frozenset()
    for groups in _phases(mode):
        t = _run(t, env, mode, groups, steps, normal)
        normal = _covered(groups)
    return t, steps


def normalize(
    term: TargetTerm, context: TgContext = (), mode: str = PLAIN
) -> tuple[TargetTerm, list[RewriteStep]]:
    """Normalise a locally closed target term; returns (result, trace)."""
    t, steps = normalize_nameful(to_nameful(term), dict(context), mode)
    return from_nameful(t), steps


# ---------------------------------------------------------------------------
# Following a trace, and the lockstep pair


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


def _follow(z: _Zipper, steps, run: RunState) -> None:
    """Apply logged steps to the zipper's term, each by rule name at its
    path, under the run's state; the caller resolves its aliases
    (`RunState.leave`).  It trusts where the steps came from: it checks
    only that each rule is known, each path exists and each rule applies
    there."""
    for step in steps:
        rule = ALL_RULES.get(step.rule)
        if rule is None:
            raise ReplayError(f"unknown rule {step.rule}")
        if not _goto(z, step.path):
            raise ReplayError(f"path {step.path} does not exist")
        out = rule(z.node, z.env, run)
        if out is None:
            raise ReplayError(f"rule {step.rule} does not apply at {step.path}")
        z.replace(out)


def normalize_pair(
    left: TargetTerm,
    right: TargetTerm,
    context: TgContext = (),
    mode: str = PLAIN,
) -> tuple[TargetTerm, list[RewriteStep], TargetTerm, list[RewriteStep], str | None]:
    """Normalise two nameful terms, each as `normalize_nameful` does, in
    lockstep; returns (left result, left trace, right result, right
    trace, where they met), the results closed.

    Both sides run the phases of `normalize_nameful`, the left first.
    The sides are compared nameful, with `tg.nameful_equal`, at three
    points: the inputs before any phase ("inputs"); the right side's
    input to a phase against the left side's output of it ("ahead n":
    the right side is already a normal form of the phase and takes no
    step in it); and the two outputs of a phase ("outputs n").  Only the
    two results are closed.  From the point where they meet, the right
    side stops searching and follows the left side's later steps on its
    own term.  Since the steps of a phase depend only on the alpha-class
    of its input, the right side's result and trace are exactly those of
    its own search; a followed step that does not apply is a bug and
    raises RewriteError.
    """
    env = dict(context)
    lt, rt = left, right
    lsteps: list[RewriteStep] = []
    rsteps: list[RewriteStep] = []
    met = "inputs" if tg.nameful_equal(lt, rt) else None
    normal = frozenset()  # both sides are normal for these rules
    for phase, groups in enumerate(_phases(mode), 1):
        start = len(lsteps)
        lt = _run(lt, env, mode, groups, lsteps, normal)
        if met is not None:
            z, run = _Zipper(rt, env), RunState(mode)
            try:
                _follow(z, lsteps[start:], run)
            except ReplayError as exc:
                raise RewriteError(f"the right side cannot follow the left: {exc}") from exc
            rt = run.leave(z.unwind())
            rsteps += lsteps[start:]
        elif tg.nameful_equal(lt, rt):
            met = f"ahead {phase}"
        else:
            rt = _run(rt, env, mode, groups, rsteps, normal)
            if tg.nameful_equal(lt, rt):
                met = f"outputs {phase}"
        normal = _covered(groups)
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
    z, run = _Zipper(to_nameful(term), dict(context)), RunState(mode)
    _follow(z, steps, run)
    return from_nameful(run.leave(z.unwind()))
