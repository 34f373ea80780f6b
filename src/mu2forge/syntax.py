"""One binder-aware traversal for the syntax of both calculi.

Every syntax node is a frozen record (:mod:`.record`).  A constant binder
table says, per node class and per field in constructor order, what the
field is:

* ``Hint(ns, base)``: a binder hint, carried through untouched by the
  traversals; the node binds one atom of namespace ``ns`` there, and a
  printer names it from the hint, or from ``base`` for a hint without
  a base name;
* ``Leaf(ns, bound)``: the node is an occurrence of namespace ``ns``,
  free (its field is the atom ``name``) or bound (its field is the de
  Bruijn ``index``);
* ``Child(sort, var, tvar, name)``: a subtree of ``sort`` that sits under
  that many binders of each namespace.

:class:`Syntax` compiles a table into one plan per namespace and derives
open, close, instantiate, substitute, free atoms, local closure and the
child slots from it; it compiles a rebuilder per class with term children
and the two whole-tree binder passes, ``close_binders`` and
``open_binders``.  Every such operation of the four syntax modules is a
one-line call into it.  The traversal, :func:`_map`, the binder passes
and :meth:`Syntax.equal` run on explicit stacks: the depth of a tree
costs them no Python frames.
"""

from __future__ import annotations

from operator import attrgetter, eq, ge
from typing import NamedTuple

from .record import fields as record_fields

#: The three binder namespaces: term variables, type variables, mu-names.
VAR, TVAR, NAME = 0, 1, 2


class Hint(NamedTuple):
    ns: int
    base: str


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


def field_getter(names: tuple[str, ...]):
    """A getter for the named fields that always returns a tuple."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda t: (get(t),)
    return attrgetter(*names) if names else lambda t: ()


def _map(t, plan, free, bound, d):
    """Rebuild t, replacing each occurrence of the plan's namespace by
    free(node, d) or bound(node, d), d being its binder depth (``None``
    keeps the occurrence).  Unchanged subtrees are returned as they are.
    The walk is a post-order loop over an explicit stack that holds one
    entry per node on the path from the root, so depth costs no frames."""
    step = plan[t.__class__]
    if step is None:
        return t
    if step is _BOUND:
        return t if bound is None else bound(t, d)
    if step is _FREE:
        return t if free is None else free(t, d)
    cls, fields, slots = step
    vals, todo, args = fields(t), iter(slots), None
    stack = None  # per ancestor: its node, class, fields, slots left, depth, args and slot
    while True:
        for i, shift in todo:
            old = vals[i]
            step = plan[old.__class__]
            if step is None:
                continue
            if step is _BOUND:
                new = old if bound is None else bound(old, d + shift)
            elif step is _FREE:
                new = old if free is None else free(old, d + shift)
            else:
                if stack is None:
                    stack = []
                stack.append((t, cls, vals, todo, d, args, i))
                t, d = old, d + shift
                cls, fields, slots = step
                vals, todo, args = fields(t), iter(slots), None
                break
            if new is not old:
                if args is None:
                    args = list(vals)
                args[i] = new
        else:
            new = t if args is None else cls(*args)
            if not stack:
                return new
            old = t
            t, cls, vals, todo, d, args, i = stack.pop()
            if new is not old:
                if args is None:
                    args = list(vals)
                args[i] = new


def _same(t, kids):
    return t


#: The whole-tree binder passes.  ``close_binders(t, hint=str)`` abstracts
#: every binder's atom of a nameful tree, its hint becoming hint(atom);
#: ``open_binders(t, fresh, error)`` opens every binder of a locally closed
#: one with fresh(hint or base), drawn in preorder, and raises error at a
#: dangling occurrence outside an annotation.  Types stay locally nameless
#: in a term: in an annotation a type's binders only shift the depth; at a
#: type root they bind.  Per pass, as source text in the namespace {ns} and
#: the hint's index {i}, field {f} and base {base}: on a free and a bound
#: occurrence (classes F{ns}, B{ns}); per hint, on the visit (if drawn), on
#: entering and leaving its binder, and as rebuilt; on an annotation a_{f}.
_PASSES = {
    "close_binders(t, hint=str)": dict(
        head="L0, L1, L2 = {}, {}, {}  # per namespace: atom -> level of its innermost binder, or None\n"
             "d0 = d1 = d2 = 0  # per namespace: the binders around the node\n"
             "ty = lambda n, d, L=L1: n if (lv := L.get(n.name)) is None else B1(d - 1 - lv)",
        free="lv = L{ns}.get(t.name)\nout.append(t if lv is None else B{ns}(d{ns} - 1 - lv))",
        bound="out.append(t)",
        enter="b{i} = L{ns}.get(t.{f})\nL{ns}[t.{f}] = d{ns}\nd{ns} += 1",
        leave="d{ns} -= 1\nL{ns}[t.{f}] = b{i}",
        hint="hint(t.{f})",
        ann="a_{f} = t.{f} if t.{f} is None or not d1 else _map(t.{f}, P1, ty, None, d1)",
    ),
    "open_binders(t, fresh, error)": dict(
        head="A0, A1, A2 = [], [], []  # per namespace: the atoms of the binders around, innermost last\n"
             "ty = lambda b, d, A=A1: F1(A[d - b.index - 1]) if 0 <= b.index - d < len(A) else b",
        free="out.append(t)",
        bound="k = t.index\nif not 0 <= k < len(A{ns}):\n    raise error(f'dangling bound variable {{k}}')\n"
              "out.append(F{ns}(A{ns}[-1 - k]))",
        draw="b{i} = fresh(t.{f} or {base!r})",
        enter="A{ns}.append(b{i})",
        leave="A{ns}.pop()",
        hint="b{i}",
        ann="a_{f} = t.{f} if t.{f} is None or not A1 else _map(t.{f}, P1, None, ty, 0)",
    ),
}


def _binder_pass(head: str, table: dict[type, tuple], name: dict[type, str], hints_of: dict[type, tuple]) -> str:
    """The source of the pass ``_PASSES[head]`` for a binder table and its
    hint slots, ``name`` naming each class, F{ns} and B{ns} its
    occurrences: one loop over an explicit stack with one branch per class
    on a visit, on entering its binders and on finishing it.  A slot
    under binders sits under all of its node's hints, after every slot
    outside them.  A TYPE slot of a term node (a node with a slot of
    another sort) is an annotation: one `_map` over TVAR rewrites it, in
    which its own binders only shift the depth; a None one is kept."""
    op = _PASSES[head]
    visit, enter, finish = [], [], []  # per class: its name and lines
    # term classes first: a pass over a term meets type nodes only at a type root
    for cls, specs in sorted(table.items(), key=lambda item: not any(
        isinstance(s, Leaf) and s.ns != TVAR or isinstance(s, Child) and s.sort != TYPE for s in item[1]
    )):
        names = [f.name for f in record_fields(cls)]
        hints = hints_of[cls]
        counts = tuple(sum(ns == k for _, ns, _ in hints) for k in (VAR, TVAR, NAME))
        term_node = any(isinstance(s, Child) and s.sort != TYPE for s in specs)
        outside, inside, anns_out, anns_in = slots = ([], [], [], [])  # children, annotations: outside, under
        for n, s in zip(names, specs):
            if isinstance(s, Child):
                under = s[1:] != (0, 0, 0)
                if s[1:] != (counts if under else (0, 0, 0)) or not under and (inside or anns_in):
                    raise TypeError(f"a slot of {cls.__name__} is not under all or none of its binders, in order")
                slots[2 * (term_node and s.sort == TYPE) + under].append(n)
        c, leaf = name[cls], specs[0] if specs and isinstance(specs[0], Leaf) else None
        if leaf or not (hints or outside or inside):
            visit.append((c, [op["bound" if leaf.bound else "free"].format(ns=leaf.ns) if leaf else "out.append(t)"]))
            continue
        each = lambda key: [op[key].format(i=i, f=n, ns=ns, base=base) for i, (n, ns, base) in enumerate(hints)]
        held, main = "".join(f"b{i}, " for i in range(len(hints))), outside + inside
        push = lambda marker, fields: f"todo += ({', '.join([marker, *(f't.{n}' for n in reversed(fields))])},)"
        if hints:  # its binders are entered once the slots outside them are done
            drawn = each("draw") if "draw" in op else []
            visit.append((c, [*drawn, push(f"[t, ({held})]" if drawn else "[t, None]", outside)]))
            enter.append((c, [*([f"{held}= saved"] if drawn else []), *each("enter"), push(f"(t, ({held}))", inside)]))
        else:
            visit.append((c, [push("(t, None)", main)]))
        made = {n: op["hint"].format(i=i, f=n) for i, (n, _, _) in enumerate(hints)}
        made.update({n: f"v_{n}" for n in main[1:]}, **{n: f"a_{n}" for n in anns_out + anns_in})
        args = ", ".join(made.get(n, "out[-1]") for n in names)  # out[-1]: the first child
        finish.append((c, [
            *([f"{held}= saved"] if hints else []), *(op["ann"].format(f=n) for n in anns_in),
            *reversed(each("leave")), *(op["ann"].format(f=n) for n in anns_out),
            *(f"v_{n} = out.pop()" for n in reversed(main[1:])),
            f"out[-1] = {c}({args})" if main else f"out.append({c}({args}))",
        ]))

    def chain(cases, indent, first="if"):
        for k, (c, lines) in enumerate(cases):
            code.append(f"{' ' * indent}{'elif' if k else first} cls is {c}:")
            code.extend(f"{' ' * indent}    {line}" for line in "\n".join(lines).split("\n"))

    code = [f"def {head}:", *(f"    {line}" for line in op["head"].split("\n")), "    out = []",
            "    todo = [t]  # nodes, [node, atoms] to enter its binders, (node, binders) to finish it",
            "    while todo:", "        t = todo.pop()", "        cls = t.__class__",
            "        if cls is tuple:", "            t, saved = t", "            cls = t.__class__"]
    chain(finish, 12)
    chain(visit, 8, "elif")
    code += ["        elif cls is list:", "            t, saved = t", "            cls = t.__class__"]
    chain(enter, 12)
    code += ["        else:", "            raise TypeError(f'not a node of this syntax: {t!r}')", "    return out[0]\n"]
    return "\n".join(code)


class Syntax:
    """The traversals of one syntax, compiled from its binder table."""

    def __init__(self, table: dict[type, tuple]):
        self._plans = ({}, {}, {})
        #: namespace -> class of its free (bound) occurrences
        self.free_leaf: dict[int, type] = {}
        self.bound_leaf: dict[int, type] = {}
        #: node class -> getter of its term children, in path-slot order
        self.children: dict[type, object] = {}
        #: node class -> rebuild(t, kids): t with its term children
        #: replaced by kids, in path-slot order (t itself if it has none)
        self.rebuild: dict[type, object] = {}
        built: list[type] = []  # the classes with term children
        source = []  # their rebuilders, in that order
        #: node class -> getters of its compared fields: values, subtrees
        self.compared: dict[type, tuple] = {}
        #: node class -> per hint slot, in field order: the field, the
        #: namespace it binds and the base name of a fresh atom for it
        self.hints: dict[type, tuple] = {}
        for j, (cls, specs) in enumerate(table.items()):
            fields = record_fields(cls)
            names = tuple(f.name for f in fields)
            if len(names) != len(specs):
                raise TypeError(f"binder table of {cls.__name__} has {len(specs)} fields")
            self.hints[cls] = tuple((n, s.ns, s.base) for n, s in zip(names, specs) if isinstance(s, Hint))
            kids = tuple(i for i, s in enumerate(specs) if isinstance(s, Child) and s.sort == TERM)
            self.children[cls] = field_getter(tuple(names[i] for i in kids))
            self.rebuild[cls] = _same
            if kids:
                args = ", ".join(f"k[{kids.index(i)}]" if i in kids else f"t.{n}" for i, n in enumerate(names))
                source.append(f"def r{len(built)}(t, k):\n    return c{j}({args})\n")
                built.append(cls)
            compared = [(f.name, isinstance(s, Child)) for f, s in zip(fields, specs) if f.compare]
            self.compared[cls] = (
                field_getter(tuple(n for n, sub in compared if not sub)),
                field_getter(tuple(n for n, sub in compared if sub)),
            )
            leaf = specs[0] if specs and isinstance(specs[0], Leaf) else None
            if leaf is not None:
                (self.bound_leaf if leaf.bound else self.free_leaf)[leaf.ns] = cls
            for ns, plan in enumerate(self._plans):
                if leaf is not None:
                    plan[cls] = (_BOUND if leaf.bound else _FREE) if ns == leaf.ns else None
                    continue
                slots = tuple(
                    (i, s[1 + ns])
                    for i, s in enumerate(specs)
                    if isinstance(s, Child) and ns in s.sort
                )
                plan[cls] = (cls, field_getter(names), slots) if slots else None
        # The rebuilders are compiled in one exec, as `record` compiles its
        # methods: each reads the node's other fields by name and calls the
        # constructor once, as in cls(t.hint, t.ann, k[0]).
        name = {cls: f"c{i}" for i, cls in enumerate(table)}
        env = {c: cls for cls, c in name.items()}
        env.update({f"F{ns}": cls for ns, cls in self.free_leaf.items()}, _map=_map, P1=self._plans[TVAR])
        env.update({f"B{ns}": cls for ns, cls in self.bound_leaf.items()})
        made: dict = {}
        exec("".join(source), env, made)
        for i, cls in enumerate(built):
            made[f"r{i}"].__qualname__ = f"rebuild_{cls.__name__}"
            self.rebuild[cls] = made[f"r{i}"]
        self._source, self._env = (table, name, self.hints), env

    def __getattr__(self, attr: str):
        """A binder pass of `_PASSES`, compiled on its first use: a cold
        start pays only for the passes it uses."""
        head = next((head for head in _PASSES if head.startswith(attr + "(")), None)
        if head is None:
            raise AttributeError(attr)
        exec(_binder_pass(head, *self._source), self._env, self.__dict__)
        return self.__dict__[attr]

    def with_children(self, t, kids):
        """t with its term children replaced by kids, in path-slot order."""
        return self.rebuild[t.__class__](t, kids)

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
            values, subtrees = self.compared[a.__class__]
            if values(a) != values(b):
                return False
            stack.extend(zip(subtrees(a), subtrees(b)))
        return True

    # The operations take the namespace first, so that a calculus defines
    # each of its own as functools.partial(op, namespace).

    def close(self, ns: int, t, atom: str, depth: int = 0):
        """Abstract the free atom as the bound index at depth."""
        mk = self.bound_leaf[ns]
        return _map(t, self._plans[ns], lambda n, d: mk(d) if n.name == atom else n, None, depth)

    def open(self, ns: int, t, atom: str, depth: int = 0):
        """Replace the bound index at depth by the free atom."""
        mk = self.free_leaf[ns]
        return _map(t, self._plans[ns], None, lambda n, d: mk(atom) if n.index == d else n, depth)

    def open_all(self, ns: int, t, atoms: list[str]):
        """Open each bound index that points k binders past t's own to the
        atom atoms[-1 - k]; indices past all of atoms stay bound."""
        mk, n = self.free_leaf[ns], len(atoms)
        bound = lambda b, d: mk(atoms[d - b.index - 1]) if 0 <= b.index - d < n else b
        return _map(t, self._plans[ns], None, bound, 0) if atoms else t

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
