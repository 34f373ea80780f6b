"""What each node pays, checked against the general computation.

`syntax.Syntax` compiles one rebuilder per class with term children from
the binder table; here each is compared with a rebuild field by field.
`rewrite` compiles, per term class, its free-atom functions, the getter
of its annotations and a rebuild that maps them; the last two are
compared field by field too, and each own-set function is checked to
share a child's set where the other operands add nothing.
`rewrite._memo` collects the nodes that lack a free-atom set in one pass
and fills each once, also a subterm shared below two of them.  The
zipper steps a typing environment only at a slot under binders
(`rewrite._ENV_STEPS`); at every node a search tests, its environment
is compared with one computed from the root with a reference that
matches on the node's shape.  The generator's per-type memos are
compared with a computation from scratch.
"""

import random
from itertools import chain

import pytest

from mu2forge import mu_terms as tm
from mu2forge import mu_types as mt
from mu2forge import rewrite
from mu2forge import target_terms as tg
from mu2forge import target_types as tt
from mu2forge import theory
from mu2forge.mu_typing import check_contexts, ctx
from mu2forge.record import fields
from mu2forge.syntax import TERM, TVAR, TYPE, VAR, Child, Hint, Leaf
from mu2forge.target_typing import PARAMETRIC, PLAIN
from test_search_resume import catalog_images, numeral_images

SYNTAXES = {"mu_types": mt, "mu_terms": tm, "target_types": tt, "target_terms": tg}


def fieldwise(table, t, kids, retype=None):
    """t with its term children replaced by kids: every field read into a
    list, the child slots patched, the class called on the list.  Given
    retype, each Child(TYPE) field a is patched to retype(a) too."""
    specs = table[t.__class__]
    args = [getattr(t, f.name) for f in fields(t.__class__)]
    slots = [i for i, s in enumerate(specs) if isinstance(s, Child) and s.sort == TERM]
    for i, kid in zip(slots, kids):
        args[i] = kid
    if retype is not None:
        for i, s in enumerate(specs):
            if isinstance(s, Child) and s.sort == TYPE:
                args[i] = retype(args[i])
    return t.__class__(*args)


@pytest.mark.parametrize("name", SYNTAXES)
def test_compiled_rebuilders_match_a_fieldwise_rebuild(name):
    module = SYNTAXES[name]
    table, syntax = module.TABLE, module.SYNTAX
    rebuilt = 0
    for cls, specs in table.items():
        t = cls(*(object() for _ in specs))  # a distinct object per field
        n = sum(isinstance(s, Child) and s.sort == TERM for s in specs)
        kids = [object() for _ in range(n)]
        out = syntax.rebuild[cls](t, kids)
        if not n:
            assert out is t and syntax.with_children(t, kids) is t, cls
            continue
        want = fieldwise(table, t, kids)
        assert out.__class__ is cls
        for f in fields(cls):
            assert getattr(out, f.name) is getattr(want, f.name), (cls, f.name)
        rebuilt += 1
    assert rebuilt == {"mu_types": 0, "mu_terms": 5, "target_types": 0, "target_terms": 6}[name]


TERM_CLASSES = {
    cls for cls, specs in tg.TABLE.items()
    if issubclass(cls, tg.TargetTerm) and not (specs and isinstance(specs[0], Leaf) and specs[0].bound)
}


def test_annotation_getter_and_retype_match_a_fieldwise_rebuild():
    """Each term class's annotations are its Child(TYPE) fields in field
    order, and its retype maps them and replaces its term children, as
    a rebuild field by field does; a class with no child is returned as
    it is."""
    for table in (rewrite._OWN_ATOMS, rewrite._OWN_TATOMS, rewrite._ANNOTATIONS, rewrite._RETYPE):
        assert table.keys() == TERM_CLASSES
    typed = 0
    for cls in TERM_CLASSES:
        specs = tg.TABLE[cls]
        t = cls(*(object() for _ in specs))  # a distinct object per field
        anns = [getattr(t, f.name) for f, s in zip(fields(cls), specs) if isinstance(s, Child) and s.sort == TYPE]
        got = rewrite._ANNOTATIONS[cls](t)
        assert len(got) == len(anns) and all(a is b for a, b in zip(got, anns)), cls
        images = {id(a): object() for a in anns}
        kids = [object() for s in specs if isinstance(s, Child) and s.sort == TERM]
        out = rewrite._RETYPE[cls](t, lambda a: images[id(a)], kids)
        if not any(isinstance(s, Child) for s in specs):
            assert out is t, cls
            continue
        want = fieldwise(tg.TABLE, t, kids, lambda a: images[id(a)])
        assert out.__class__ is cls
        for f in fields(cls):
            assert getattr(out, f.name) is getattr(want, f.name), (cls, f.name)
        typed += bool(anns)
    assert typed == 2  # TgLam and Pack


class NoDifference(frozenset):
    """A memoised set whose difference must not be taken."""

    def difference(self, *others):
        raise AssertionError(f"difference taken of {set(self)} though no binder atom occurs")


def with_sets(cls, ns: int, sets: list) -> tg.TargetTerm:
    """A node of cls with a term atom in each hint, whose slots of
    namespace ns hold the given sets in field order: a term child's
    memo under the namespace's key, an annotation's free type atoms."""
    key = (rewrite._ATOMS, rewrite._TATOMS)[ns]
    sets, args = iter(sets), []
    for i, s in enumerate(tg.TABLE[cls]):
        if isinstance(s, Hint):
            args.append(f"h{i}")
        elif s.sort == TERM:
            args.append(tg.TgVar(f"k{i}"))
            args[-1].__dict__[key] = next(sets)
        else:
            args.append(tt.TgVarT(f"A{i}"))
            if ns in s.sort:
                args[-1].__dict__["_ftv"] = next(sets)
    return cls(*args)


@pytest.mark.parametrize("ns", (VAR, TVAR), ids=("atoms", "tatoms"))
def test_own_sets_share_a_child_set(ns):
    """A node's memo is a child's set object when every other operand is
    empty or that same object, and no difference is taken unless a
    binder atom occurs in the set it is taken of."""
    shared = 0
    for cls, own in (rewrite._OWN_ATOMS, rewrite._OWN_TATOMS)[ns].items():
        specs = tg.TABLE[cls]
        if specs and isinstance(specs[0], Leaf):
            continue
        n = sum(isinstance(s, Child) and ns in s.sort for s in specs)
        if not n:
            assert own(cls(*(f"h{i}" for i in range(len(specs))))) is rewrite._NO_ATOMS, cls
            continue
        for i in range(n):
            held = NoDifference({"a"})
            sets = [frozenset() for _ in range(n)]
            sets[i] = held
            assert own(with_sets(cls, ns, sets)) is held, (cls, i)
        held = NoDifference({"a"})
        assert own(with_sets(cls, ns, [held] * n)) is held, cls
        apart = [NoDifference({f"a{i}"}) for i in range(n)]
        assert own(with_sets(cls, ns, apart)) == {f"a{i}" for i in range(n)}, cls
        shared += 1
    assert shared == 6  # all but TgVar and Star


def test_a_shared_subterm_is_filled_once(monkeypatch):
    """A subterm shared below two unfilled nodes is collected twice by
    `_memo`'s pass and filled once; so is the one Star node."""
    v, app = tg.TgVar, tg.TgApp
    shared = app(v("f"), tg.Pair(v("g"), tg.STAR))
    term = tg.LetPair("a", "b", shared, app(tg.TgLam("k", tt.R, app(shared, v("k"))), tg.Pair(v("a"), tg.STAR)))
    filled = []
    for key, own in ((rewrite._ATOMS, rewrite._OWN_ATOMS), (rewrite._TATOMS, rewrite._OWN_TATOMS)):
        monkeypatch.delitem(tg.STAR.__dict__, key, raising=False)
        for cls, fill in list(own.items()):
            def counted(t, fill=fill, key=key):
                filled.append((key, id(t)))
                return fill(t)

            monkeypatch.setitem(own, cls, counted)
    assert rewrite.free_atoms(term) == {"f", "g"}
    assert rewrite.free_tatoms(term) == frozenset()
    distinct = {id(node) for node in walk(term)}
    assert len(distinct) == 12  # of 18 in the tree: `shared`, with a Star, appears twice; one more Star
    for key in (rewrite._ATOMS, rewrite._TATOMS):
        ids = [i for k, i in filled if k == key]
        assert sorted(ids) == sorted(distinct)


def walk(t):
    todo = [t]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(tg.children(node))


def reference_env(t, i, env):
    """The typing environment of child slot i of nameful node t, by the
    node's shape: a lambda's body and a let's body extend it."""
    match t:
        case tg.TgLam(x, ann, _):
            return {**env, x: ann}
        case tg.LetPair(x, y, scrut, _) if i == 1:
            sty = rewrite.nameful_synth(scrut, env)
            return {**env, x: sty.left, y: sty.right}
        case tg.LetPack(tv, x, scrut, _) if i == 1:
            sty = rewrite.nameful_synth(scrut, env)
            return {**env, x: tt.open_exists(sty, tv)}
    return env


@pytest.mark.parametrize("mode", [PLAIN, PARAMETRIC])
def test_zipper_env_matches_env_through(monkeypatch, mode):
    """At every node a search that keeps env current tests, the zipper's
    env and every frame's env equal those computed from the root, both
    by `_env_through` and by the reference."""
    real, checked = rewrite._test, [0]

    def test(z, group, run):
        if group[1]:
            env = z.stack[0][2] if z.stack else z.env
            for parent, slot, held, _, _ in z.stack:
                assert held == env
                env, ref = rewrite._env_through(parent, slot, env), reference_env(parent, slot, env)
                assert env == ref
            assert z.env == env
            checked[0] += 1
        return real(z, group, run)

    monkeypatch.setattr(rewrite, "_test", test)
    for _, term, env in chain(catalog_images(), numeral_images()):
        rewrite.normalize_nameful(rewrite.to_nameful(term), env, mode)
    assert checked[0] > 1000


def test_generator_type_memos_match_a_computation_from_scratch():
    """The instantiations of a forall at the atom pool, its body opened
    at the pre-filter's atoms, and whether a context type is locally
    closed are memoised per type object, as `gen_judgement` draws and
    uses them; each memo equals the function it stands for."""
    instances = opened = closed = 0
    for seed in range(300):
        rng = random.Random(seed)
        gamma = ctx(("v1", theory.gen_type(rng, 2)), ("v2", theory.gen_type(rng, 2)))
        delta = ctx(("k1", theory.gen_type(rng, 2)),)
        goal = theory.gen_type(rng, 2)
        try:
            theory.gen_typed_term(rng.randrange(1 << 30), 6, gamma, delta, goal)
        except theory.GaveUp:
            pass
        check_contexts(gamma, delta)
        for _, t in chain(gamma, delta):
            assert vars(t)["_locally_closed"] == mt.locally_closed(t)
            closed += 1
        for t in types_below([t for _, t in chain(gamma, delta)] + [goal]):
            memo = vars(t)
            if "_instances" in memo:
                assert memo["_instances"] == tuple(mt.inst_tvar(t.body, a) for a in theory._ATOM_POOL)
                instances += 1
            for atom, body in memo.get("_opened", {}).items():
                assert repr(body) == repr(mt.open_tvar(t.body, atom))
                opened += 1
    assert instances > 10 and opened > 10 and closed == 900


def types_below(types):
    """Every type object below types, and below their memoised bodies."""
    todo = list(types)
    while todo:
        t = todo.pop()
        yield t
        if isinstance(t, mt.Arrow):
            todo += (t.dom, t.cod)
        elif isinstance(t, mt.Forall):
            todo.append(t.body)
            todo += vars(t).get("_opened", {}).values()
