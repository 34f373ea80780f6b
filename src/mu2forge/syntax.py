"""One binder-aware traversal for the syntax of both calculi.

Every syntax node is a frozen record (:mod:`.record`).  A constant binder
table says, per node class and per field in constructor order, what the
field is:

* ``PASS``: carried through untouched (binder hints);
* ``Leaf(ns, bound)``: the node is an occurrence of namespace ``ns``,
  free (its field is the atom ``name``) or bound (its field is the de
  Bruijn ``index``);
* ``Child(sort, var, tvar, name)``: a subtree of ``sort`` that sits under
  that many binders of each namespace.

:class:`Syntax` compiles a table into one plan per namespace and derives
open, close, instantiate, substitute, free atoms, local closure and the
child slots from it.  Every such operation of ``mu_types``, ``mu_terms``,
``target_types`` and ``target_terms`` is a one-line call into it.  The
recursion, :func:`_map`, takes exactly one Python frame per tree level;
structural equality, :meth:`Syntax.equal`, takes none.
"""

from __future__ import annotations

from operator import attrgetter, eq, ge
from typing import NamedTuple

from .record import fields as record_fields

#: The three binder namespaces: term variables, type variables, mu-names.
VAR, TVAR, NAME = 0, 1, 2

PASS = None


class Leaf(NamedTuple):
    ns: int
    bound: bool


class Child(NamedTuple):
    sort: frozenset[int]  # the namespaces that can occur in the subtree
    var: int = 0
    tvar: int = 0
    name: int = 0


TYPE = frozenset((TVAR,))
TERM = frozenset((VAR, TVAR, NAME))
NAME_REF = frozenset((NAME,))

_FREE, _BOUND = "free", "bound"


def _fields(names: tuple[str, ...]):
    """A getter for the named fields that always returns a tuple."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda t: (get(t),)
    return attrgetter(*names) if names else lambda t: ()


def _map(t, plan, free, bound, d):
    """Rebuild t, replacing each occurrence of the plan's namespace by
    free(node, d) or bound(node, d), d being its binder depth (``None``
    keeps the occurrence).  Unchanged subtrees are returned as they are."""
    step = plan[t.__class__]
    if step is None:
        return t
    if step is _BOUND:
        return t if bound is None else bound(t, d)
    if step is _FREE:
        return t if free is None else free(t, d)
    cls, fields, slots = step
    vals = fields(t)
    args = None
    for i, shift in slots:
        old = vals[i]
        new = _map(old, plan, free, bound, d + shift)
        if new is not old:
            if args is None:
                args = list(vals)
            args[i] = new
    return t if args is None else cls(*args)


class Syntax:
    """The traversals of one syntax, compiled from its binder table."""

    def __init__(self, table: dict[type, tuple]):
        self._plans = ({}, {}, {})
        self._free: dict[int, type] = {}
        self._bound: dict[int, type] = {}
        #: node class -> getter of its term children, in path-slot order
        self.children: dict[type, object] = {}
        self._rebuild: dict[type, tuple] = {}
        self._compare: dict[type, tuple] = {}
        for cls, specs in table.items():
            fields = record_fields(cls)
            names = tuple(f.name for f in fields)
            if len(names) != len(specs):
                raise TypeError(f"binder table of {cls.__name__} has {len(specs)} fields")
            kids = tuple(i for i, s in enumerate(specs) if isinstance(s, Child) and s.sort == TERM)
            self.children[cls] = _fields(tuple(names[i] for i in kids))
            self._rebuild[cls] = (_fields(names), kids)
            compared = [(f.name, isinstance(s, Child)) for f, s in zip(fields, specs) if f.compare]
            self._compare[cls] = (
                _fields(tuple(n for n, sub in compared if not sub)),
                _fields(tuple(n for n, sub in compared if sub)),
            )
            leaf = specs[0] if specs and isinstance(specs[0], Leaf) else None
            if leaf is not None:
                (self._bound if leaf.bound else self._free)[leaf.ns] = cls
            for ns, plan in enumerate(self._plans):
                if leaf is not None:
                    plan[cls] = (_BOUND if leaf.bound else _FREE) if ns == leaf.ns else None
                    continue
                slots = tuple(
                    (i, s[1 + ns])
                    for i, s in enumerate(specs)
                    if isinstance(s, Child) and ns in s.sort
                )
                plan[cls] = (cls, _fields(names), slots) if slots else None

    def with_children(self, t, kids: tuple):
        fields, slots = self._rebuild[t.__class__]
        if not slots:
            return t
        args = list(fields(t))
        for i, kid in zip(slots, kids):
            args[i] = kid
        return t.__class__(*args)

    def equal(self, a, b) -> bool:
        """The generated ``__eq__`` of the node classes, over the same
        compared fields (hints are skipped), but driven by an explicit
        stack: the depth of the trees costs no Python frames."""
        stack = [(a, b)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__:
                return False
            values, subtrees = self._compare[a.__class__]
            if values(a) != values(b):
                return False
            stack.extend(zip(subtrees(a), subtrees(b)))
        return True

    # The operations take the namespace first, so that a calculus defines
    # each of its own as functools.partial(op, namespace).

    def close(self, ns: int, t, atom: str, depth: int = 0):
        """Abstract the free atom as the bound index at depth."""
        mk = self._bound[ns]
        return _map(t, self._plans[ns], lambda n, d: mk(d) if n.name == atom else n, None, depth)

    def open(self, ns: int, t, atom: str, depth: int = 0):
        """Replace the bound index at depth by the free atom."""
        mk = self._free[ns]
        return _map(t, self._plans[ns], None, lambda n, d: mk(atom) if n.index == d else n, depth)

    def open_all(self, ns: int, t, atoms: list[str]):
        """Open each bound index that points k binders past t's own to the
        atom atoms[-1 - k]; indices past all of atoms stay bound."""
        mk, n = self._free[ns], len(atoms)
        bound = lambda b, d: mk(atoms[d - b.index - 1]) if 0 <= b.index - d < n else b
        return _map(t, self._plans[ns], None, bound, 0) if atoms else t

    def close_all(self, ns: int, t, levels: dict[str, int], n: int):
        """Close each free atom that levels maps to its binder's level, n
        binders (the outermost at level 0) enclosing t."""
        mk = self._bound[ns]
        free = lambda a, d: a if (lv := levels.get(a.name)) is None else mk(d + n - 1 - lv)
        return _map(t, self._plans[ns], free, None, 0) if levels else t

    def inst(self, ns: int, t, rep, depth: int = 0):
        """Replace the bound index at depth by the locally closed rep."""
        return _map(t, self._plans[ns], None, lambda n, d: rep if n.index == d else n, depth)

    def subst(self, ns: int, t, reps: dict):
        """Replace every free atom that reps maps, all in one pass."""
        return _map(t, self._plans[ns], lambda n, d: reps.get(n.name, n), None, 0)

    def free(self, ns: int, t) -> frozenset[str]:
        acc: set[str] = set()

        def note(n, d):
            acc.add(n.name)
            return n

        _map(t, self._plans[ns], note, None, 0)
        return frozenset(acc)

    def any_bound(self, ns: int, t, test, depth: int = 0) -> bool:
        """Does test(index, binder depth) hold at some bound occurrence?"""
        hits = []

        def note(n, d):
            if test(n.index, d):
                hits.append(n)
            return n

        _map(t, self._plans[ns], None, note, depth)
        return bool(hits)

    def uses_bound(self, ns: int, t, depth: int) -> bool:
        return self.any_bound(ns, t, eq, depth)

    def locally_closed(self, ns: int, t, depth: int = 0) -> bool:
        return not self.any_bound(ns, t, ge, depth)
