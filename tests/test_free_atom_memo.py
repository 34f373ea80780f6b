"""The engine's free-atom memos against a computation from scratch.

`rewrite` keeps, per nameful node object, its free term atoms and its
free type atoms, filled from one function per node class, and a type
substitution hands each node it rebuilds the term atoms of the node it
replaces and type atoms filled from its children.  Here every memo on
the result of each phase, and on the contractum of each beta-pack step,
is compared with the free atoms of the node closed back to locally
nameless form, which shares no code with the memos.  A beta-pack step
at a witness that is a type atom substitutes nothing (the atom becomes
an alias until the run ends), so `witness_images` adds inputs whose
witnesses are not atoms.  The memos that
`target_types` keeps on type objects (free type atoms, and the opened
body of an existential per atom) are compared with `tt.ftv` and
`tt.inst_tvar`.
"""

from itertools import chain

import pytest

from mu2forge import mu_terms as tm
from mu2forge import mu_types as mt
from mu2forge import rewrite
from mu2forge import target_terms as tg
from mu2forge import target_types as tt
from mu2forge.combinators import church, church_type
from mu2forge.cps import cps_term_typed
from mu2forge.target_typing import PARAMETRIC, PLAIN
from test_search_resume import catalog_images, generated_images, numeral_images


def witness_images():
    """Church n (n < 6) applied to types that are not atoms: each of
    their beta-pack steps substitutes its witness at once."""
    a = mt.TVar("a")
    for n in range(6):
        for ty in (mt.Arrow(a, a), church_type(), mt.Arrow(church_type(), a)):
            yield f"{n} [{ty}]", cps_term_typed((), (), tm.TyApp(church(n), ty))[0], {}


def scratch(node):
    """The free term and type atoms of a nameful node: what stays free
    once its binders are closed."""
    closed = tg.close_binders(node)
    return tg.free_vars(closed), tg.free_tvars(closed)


def nodes(t):
    todo, seen = [t], set()
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            yield node
            todo.extend(tg.children(node))


def check_memos(t) -> int:
    checked = 0
    for node in nodes(t):
        memo = node.__dict__
        if "_free_atoms" in memo or "_free_tatoms" in memo:
            atoms, tatoms = scratch(node)
            assert memo.get("_free_atoms", atoms) == atoms, node
            assert memo.get("_free_tatoms", tatoms) == tatoms, node
            checked += 1
    return checked


@pytest.mark.parametrize("images", [catalog_images, numeral_images, generated_images, witness_images])
@pytest.mark.parametrize("mode", [PLAIN, PARAMETRIC])
def test_memos_match_a_computation_from_scratch(images, mode):
    checked = 0
    for label, term, env in images():
        t = rewrite.to_nameful(term)
        steps = []
        for phase, groups in enumerate(rewrite._phases(mode), 1):
            t = rewrite._run(t, env, mode, groups, steps)
            try:
                checked += check_memos(t)
            except AssertionError as failure:
                raise AssertionError(f"{label}, phase {phase}: {failure}") from None
    assert checked > 100


def test_type_substitution_keeps_term_atom_memos():
    # let <p, q> = x in (\k:X. p k) q, as the body of a let that binds X:
    # each node that subst_tatom rebuilds for X := s keeps the term-atom
    # memo of the node it replaces, and every memo stays right.
    s = tt.TgVarT("s")
    body = tg.LetPair("p", "q", tg.TgVar("x"),
                      tg.TgApp(tg.TgLam("k", tt.TgVarT("X"), tg.TgApp(tg.TgVar("p"), tg.TgVar("k"))),
                               tg.TgVar("q")))
    assert rewrite.free_atoms(body) == {"x"} and rewrite.free_tatoms(body) == {"X"}
    out = rewrite.subst_tatom(body, {"X": s})
    assert out is not body and out.body is not body.body and out.scrut is body.scrut
    for old, new in ((body, out), (body.body, out.body), (body.body.fn, out.body.fn)):
        assert new.__dict__["_free_atoms"] is old.__dict__["_free_atoms"]
    assert check_memos(out) == 8
    assert rewrite.free_tatoms(out) == {"s"}


def type_objects(types):
    """Every type object in types and below them, each once."""
    todo, seen = list(types), set()
    while todo:
        ty = todo.pop()
        if id(ty) not in seen:
            seen.add(id(ty))
            yield ty
            todo.extend(v for v in vars(ty).values() if isinstance(v, tt.TargetType))
            todo.extend(vars(ty).get("_opened", {}).values())


def annotations(t):
    for node in nodes(t):
        if isinstance(node, tg.TgLam):
            yield node.ann
        elif isinstance(node, tg.Pack):
            yield from (node.witness, node.ex_ann)


def check_type_memos(types) -> tuple[int, int]:
    """Check every type memo below types; returns how many ftv and
    opened-body memos were checked."""
    atoms = opened = 0
    for ty in type_objects(types):
        memo = vars(ty)
        if "_ftv" in memo:
            assert memo["_ftv"] == tt.ftv(ty), ty
            atoms += 1
        for atom, body in memo.get("_opened", {}).items():
            # repr shows the hints of existentials, which == skips
            assert repr(body) == repr(tt.inst_tvar(ty.body, tt.TgVarT(atom))), (ty, atom)
            opened += 1
    return atoms, opened


@pytest.mark.parametrize("mode", [PLAIN, PARAMETRIC])
def test_type_memos_match_a_computation_from_scratch(mode):
    atoms = opened = 0
    for label, term, env in chain(catalog_images(), numeral_images(), generated_images(), witness_images()):
        t = rewrite.to_nameful(term)
        types = [*annotations(t), *env.values()]
        normal, _ = rewrite.normalize_nameful(t, env, mode)
        try:
            a, o = check_type_memos([*types, *annotations(normal)])
        except AssertionError as failure:
            raise AssertionError(f"{label}: {failure}") from None
        atoms, opened = atoms + a, opened + o
    assert atoms > 100 and opened > 10


@pytest.mark.parametrize("mode", [PLAIN, PARAMETRIC])
def test_beta_pack_contractum_memos(monkeypatch, mode):
    """Replay each image's trace, checking every memo on the contractum
    of each beta-pack step: the nodes that subst_tatom rebuilt carry
    their type atoms from the start."""
    real, rebuilt = rewrite.ALL_RULES["beta-pack"], [0]

    def checked(t, env, run):
        out = real(t, env, run)
        before = {id(node) for node in nodes(t)}
        rebuilt[0] += sum("_free_tatoms" in vars(node) for node in nodes(out) if id(node) not in before)
        check_memos(out)
        return out

    monkeypatch.setitem(rewrite.ALL_RULES, "beta-pack", checked)
    for label, term, env in chain(catalog_images(), numeral_images(), witness_images()):
        _, steps = rewrite.normalize(term, tuple(env.items()), mode)
        try:
            rewrite.replay(term, steps, tuple(env.items()), mode)
        except AssertionError as failure:
            raise AssertionError(f"{label}: {failure}") from None
    assert rebuilt[0] > 10
