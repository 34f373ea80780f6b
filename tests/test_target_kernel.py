import pytest

from mu2forge import target_terms as tg
from mu2forge import target_types as tt
from mu2forge.rewrite import RewriteError, normalize
from mu2forge.target_typing import (
    EscapeCheckFailed,
    NonAnswerBody,
    PARAMETRIC,
    PLAIN,
    StarInPlainMode,
    TargetTypeMismatch,
    UnboundTargetVariable,
    tg_ctx,
    typecheck_target,
)

S = tt.TgVarT("s")
T = tt.TgVarT("t")


def test_pairing_rule():
    term = tg.Pair(tg.TgVar("m"), tg.TgVar("n"))
    got = typecheck_target(tg_ctx(("m", S), ("n", T)), term)
    assert got == tt.Conj(S, T)


def test_pack_rule():
    ex = tt.exists("X", tt.Conj(tt.Neg(tt.TgVarT("X")), tt.TgVarT("X")))
    term = tg.Pack(S, tg.TgVar("k"), ex)
    got = typecheck_target(tg_ctx(("k", tt.Conj(tt.Neg(S), S))), term)
    assert got == ex


def test_star_modes():
    with pytest.raises(StarInPlainMode):
        typecheck_target(tg_ctx(), tg.STAR, PLAIN)
    assert typecheck_target(tg_ctx(), tg.STAR, PARAMETRIC) == tt.TOP


def test_non_answer_body_rejected():
    term = tg.close_binders(tg.TgLam("x", S, tg.TgVar("x")))
    with pytest.raises(NonAnswerBody):
        typecheck_target(tg_ctx(), term)


def test_escape_check():
    bad = tg.close_binders(tg.LetPack("X", "x", tg.TgVar("v"), tg.TgVar("x")))
    with pytest.raises(EscapeCheckFailed):
        typecheck_target(tg_ctx(("v", tt.TOP)), bad)


def test_unbound_and_mismatch():
    with pytest.raises(UnboundTargetVariable):
        typecheck_target(tg_ctx(), tg.TgVar("ghost"))
    with pytest.raises(TargetTypeMismatch):
        typecheck_target(
            tg_ctx(("f", tt.Neg(S)), ("x", T)), tg.TgApp(tg.TgVar("f"), tg.TgVar("x"))
        )


def _redexes():
    """One instance of each beta/eta axiom schema, with its context."""
    k, f, z = ("k", S), ("f", tt.Neg(S)), ("z", tt.Conj(tt.Neg(S), T))
    ex = tt.exists("X", tt.TgVarT("X"))
    out = []
    # beta-fun
    out.append((tg.TgApp(tg.close_binders(tg.TgLam("x", S, tg.TgApp(tg.TgVar("f"), tg.TgVar("x")))), tg.TgVar("k")), (k, f)))
    # beta-pair
    body = tg.TgApp(tg.TgVar("x"), tg.TgVar("y"))
    pair = tg.Pair(tg.TgVar("f"), tg.TgVar("k"))
    out.append((tg.close_binders(tg.LetPair("x", "y", pair, body)), (k, f)))
    # beta-pack
    pk = tg.Pack(S, tg.TgVar("k"), ex)
    out.append(
        (
            tg.close_binders(tg.LetPack("X", "x", pk, tg.TgApp(tg.TgVar("f2"), tg.STAR))),
            (k, ("f2", tt.Neg(ex))),
        )
    )
    # eta-fun
    out.append((tg.close_binders(tg.TgLam("x", S, tg.TgApp(tg.TgVar("f"), tg.TgVar("x")))), (f,)))
    # eta-pair
    body = tg.TgApp(tg.TgVar("g"), tg.Pair(tg.TgVar("x"), tg.TgVar("y")))
    out.append(
        (
            tg.close_binders(tg.LetPair("x", "y", tg.TgVar("z"), body)),
            (z, ("g", tt.Neg(tt.Conj(tt.Neg(S), T)))),
        )
    )
    # eta-pack
    body = tg.TgApp(tg.TgVar("h"), tg.Pack(tt.TgVarT("X"), tg.TgVar("x"), ex))
    out.append(
        (
            tg.close_binders(tg.LetPack("X", "x", tg.TgVar("w"), body)),
            (("w", ex), ("h", tt.Neg(ex))),
        )
    )
    return out


def test_subject_reduction_for_each_axiom():
    mode = PARAMETRIC
    for term, context in _redexes():
        before = typecheck_target(context, term, mode)
        after, steps = normalize(term, context, mode)
        assert steps, f"no rewrite applied to {term}"
        assert typecheck_target(context, after, mode) == before


def test_no_lam_body_off_answer_type():
    """Structural scan: every abstraction inside a well-typed translation
    has an answer-typed body (enforced by the typing rule itself)."""
    from mu2forge import mu_types as mt
    from mu2forge.combinators import catalog
    from mu2forge.cps import cps_context, cps_term_typed
    from mu2forge.suite_runner import _entry_gamma

    for entry in catalog():
        gamma = _entry_gamma(entry)
        target, _ = cps_term_typed(gamma, (), entry.term)
        # typechecks without NonAnswerBody
        typecheck_target(cps_context(gamma, ()), target)


def test_substitution_helpers():
    t = tg.close_binders(tg.TgLam("x", S, tg.TgApp(tg.TgVar("y"), tg.TgVar("x"))))
    out = tg.subst_var(t, "y", tg.TgVar("z"))
    assert out == tg.close_binders(tg.TgLam("x", S, tg.TgApp(tg.TgVar("z"), tg.TgVar("x"))))
    ty_out = tg.subst_tvar_term(t, "s", T)
    assert ty_out == tg.close_binders(tg.TgLam("x", T, tg.TgApp(tg.TgVar("y"), tg.TgVar("x"))))


def test_binders_agree_with_binder_table():
    """BINDERS names, per binding node, as many binders of each namespace
    as the binder table puts over its body, and the body is the last
    field, right after the hint slots and the one field outside them."""
    from mu2forge.record import fields
    from mu2forge.syntax import TVAR, VAR, Child

    binding = {cls for cls, specs in tg.TABLE.items() if issubclass(cls, tg.TargetTerm)
               and any(isinstance(s, Child) and (s.var or s.tvar) for s in specs)}
    assert binding == tg.BINDERS.keys()
    for cls, binders in tg.BINDERS.items():
        names = [f.name for f in fields(cls)]
        assert names[: len(binders)] == [name for name, _, _ in binders]
        assert len(names) == len(binders) + 2 and names[-1] == "body"
        body = tg.TABLE[cls][-1]
        namespaces = [ns for _, ns, _ in binders]
        assert (body.var, body.tvar) == (namespaces.count(VAR), namespaces.count(TVAR))


def test_paths():
    t = tg.TgApp(tg.TgVar("f"), tg.Pair(tg.TgVar("x"), tg.TgVar("y")))
    assert tg.subterm_at(t, (1, 0)) == tg.TgVar("x")
    swapped = tg.replace_at(t, (1, 0), tg.TgVar("q"))
    assert tg.subterm_at(swapped, (1, 0)) == tg.TgVar("q")


def test_structural_equality_matches_eq_without_recursion():
    def nest(n, leaf, hint="x"):
        t = leaf
        for _ in range(n):
            t = tg.TgLam(hint, tt.Neg(S), tg.TgApp(tg.TgBVar(0), tg.Pair(t, tg.STAR)))
        return t

    pairs = [
        (nest(3, tg.TgVar("a")), nest(3, tg.TgVar("a"), hint="y")),  # hints not compared
        (nest(3, tg.TgVar("a")), nest(3, tg.TgVar("b"))),
        (tg.Pack(S, tg.TgVar("k"), tt.TOP), tg.Pack(T, tg.TgVar("k"), tt.TOP)),
        (tg.TgVar("a"), tg.TgBVar(0)),
    ]
    for a, b in pairs:
        assert tg.equal(a, b) == (a == b)
    assert tg.equal(nest(5000, tg.TgVar("a")), nest(5000, tg.TgVar("a"), hint="y"))
    assert not tg.equal(nest(5000, tg.TgVar("a")), nest(5000, tg.TgVar("b")))


# -- differential check of the one-pass binder conversions against the
#    per-binder definitions they replace (each open_* / close_* call below
#    walks the whole remaining term), kept here as the reference.


def _ref_lam(x, ann, body):
    return tg.TgLam(x, ann, tg.close_var(body, x))


def _ref_let_pair(x, y, scrut, body):
    return tg.LetPair(x, y, scrut, tg.close_var(tg.close_var(body, y), x, 1))


def _ref_let_pack(tv, x, scrut, body):
    return tg.LetPack(tv, x, scrut, tg.close_tvar_term(tg.close_var(body, x), tv))


def _ref_translate(gamma, delta, term):
    from mu2forge import mu_terms as tm
    from mu2forge import mu_types as mt
    from mu2forge.cps import cps_type
    from mu2forge.mu_typing import lookup

    match term:
        case tm.Var(n):
            return tg.TgVar(n), lookup(gamma, n)
        case tm.Lam(hint, ann, body):
            x = tm.fresh(hint or "x")
            tb, body_ty = _ref_translate(gamma + ((x, ann),), delta, tm.open_var(body, x))
            fun_ty = mt.Arrow(ann, body_ty)
            z, k = tm.fresh("z"), tm.fresh("k")
            inner = _ref_let_pair(x, k, tg.TgVar(z), tg.TgApp(tb, tg.TgVar(k)))
            return _ref_lam(z, cps_type(fun_ty), inner), fun_ty
        case tm.App(fun, arg):
            tf, fun_ty = _ref_translate(gamma, delta, fun)
            ta, _ = _ref_translate(gamma, delta, arg)
            k = tm.fresh("k")
            body = tg.TgApp(tf, tg.Pair(ta, tg.TgVar(k)))
            return _ref_lam(k, cps_type(fun_ty.cod), body), fun_ty.cod
        case tm.TyLam(hint, body):
            xv = tm.fresh(hint or "X")
            tb, body_ty = _ref_translate(gamma, delta, tm.open_tvar_term(body, xv))
            all_ty = mt.Forall(hint or "X", mt.close_tvar(body_ty, xv))
            z, k = tm.fresh("z"), tm.fresh("k")
            inner = _ref_let_pack(xv, k, tg.TgVar(z), tg.TgApp(tb, tg.TgVar(k)))
            return _ref_lam(z, cps_type(all_ty), inner), all_ty
        case tm.TyApp(fun, ty_arg):
            tf, fun_ty = _ref_translate(gamma, delta, fun)
            inst = mt.inst_tvar(fun_ty.body, ty_arg)
            k = tm.fresh("k")
            pack = tg.Pack(cps_type(ty_arg), tg.TgVar(k), cps_type(fun_ty))
            return _ref_lam(k, cps_type(inst), tg.TgApp(tf, pack)), inst
        case tm.Mu(hint, ann, target, body):
            a = tm.fresh(hint or "a")
            opened = tm.open_name(body, a)
            tname = a if target == tm.BName(0) else target.name
            tb, _ = _ref_translate(gamma, ((a, ann),) + delta, opened)
            return _ref_lam(a, cps_type(ann), tg.TgApp(tb, tg.TgVar(tname))), ann
    raise TypeError(term)


def _ref_to_nameful(t):
    match t:
        case tg.TgVar(_) | tg.Star():
            return t
        case tg.TgBVar(k):
            raise RewriteError(f"dangling bound variable {k}")
        case tg.TgLam(hint, ann, body):
            x = tg.fresh(hint or "x")
            return tg.TgLam(x, ann, _ref_to_nameful(tg.open_var(body, x)))
        case tg.TgApp(fn, arg):
            return tg.TgApp(_ref_to_nameful(fn), _ref_to_nameful(arg))
        case tg.Pair(left, right):
            return tg.Pair(_ref_to_nameful(left), _ref_to_nameful(right))
        case tg.LetPair(hx, hy, scrut, body):
            x, y = tg.fresh(hx or "x"), tg.fresh(hy or "y")
            opened = tg.open_var(tg.open_var(body, y), x, 1)
            return tg.LetPair(x, y, _ref_to_nameful(scrut), _ref_to_nameful(opened))
        case tg.Pack(w, payload, ex):
            return tg.Pack(w, _ref_to_nameful(payload), ex)
        case tg.LetPack(ht, hx, scrut, body):
            tv, x = tg.fresh(ht or "X"), tg.fresh(hx or "x")
            opened = tg.open_var(tg.open_tvar_term(body, tv), x)
            return tg.LetPack(tv, x, _ref_to_nameful(scrut), _ref_to_nameful(opened))
    raise TypeError(t)


def _ref_from_nameful(t):
    from mu2forge.mu_terms import base_name as b

    match t:
        case tg.TgVar(_) | tg.Star():
            return t
        case tg.TgLam(x, ann, body):
            return tg.TgLam(b(x), ann, tg.close_var(_ref_from_nameful(body), x))
        case tg.TgApp(fn, arg):
            return tg.TgApp(_ref_from_nameful(fn), _ref_from_nameful(arg))
        case tg.Pair(left, right):
            return tg.Pair(_ref_from_nameful(left), _ref_from_nameful(right))
        case tg.LetPair(x, y, scrut, body):
            closed = tg.close_var(tg.close_var(_ref_from_nameful(body), y), x, 1)
            return tg.LetPair(b(x), b(y), _ref_from_nameful(scrut), closed)
        case tg.Pack(w, payload, ex):
            return tg.Pack(w, _ref_from_nameful(payload), ex)
        case tg.LetPack(tv, x, scrut, body):
            closed = tg.close_tvar_term(tg.close_var(_ref_from_nameful(body), x), tv)
            return tg.LetPack(b(tv), b(x), _ref_from_nameful(scrut), closed)
    raise TypeError(t)


def _ref_uniquify(t):
    from mu2forge.mu_terms import base_name as b

    def go(t, ren, tren):
        def rty(ty):
            return tt.SYNTAX.subst(tt.TVAR, ty, tren) if tren else ty

        match t:
            case tg.TgVar(n):
                return tg.TgVar(ren.get(n, n))
            case tg.Star():
                return t
            case tg.TgLam(x, ann, body):
                x2 = tg.fresh(b(x))
                return tg.TgLam(x2, rty(ann), go(body, {**ren, x: x2}, tren))
            case tg.TgApp(fn, arg):
                return tg.TgApp(go(fn, ren, tren), go(arg, ren, tren))
            case tg.Pair(left, right):
                return tg.Pair(go(left, ren, tren), go(right, ren, tren))
            case tg.LetPair(x, y, scrut, body):
                x2, y2 = tg.fresh(b(x)), tg.fresh(b(y))
                return tg.LetPair(x2, y2, go(scrut, ren, tren), go(body, {**ren, x: x2, y: y2}, tren))
            case tg.Pack(w, payload, ex):
                return tg.Pack(rty(w), go(payload, ren, tren), rty(ex))
            case tg.LetPack(tv, x, scrut, body):
                tv2, x2 = tg.fresh(b(tv)), tg.fresh(b(x))
                tren2 = {**tren, tv: tt.TgVarT(tv2)}
                return tg.LetPack(tv2, x2, go(scrut, ren, tren), go(body, {**ren, x: x2}, tren2))
        raise TypeError(t)

    return go(t, {}, {})


def _ref_typecheck(context, term, mode=PLAIN, atoms=()):
    """atoms: the let-pack type atoms in scope, which a message shows by
    their binders' hints."""
    from mu2forge.mu_terms import base_name
    from mu2forge.printer import print_target_type
    from mu2forge.syntax import TVAR
    from mu2forge.target_typing import TargetTypeError

    def show(ty):
        return print_target_type(tt.SYNTAX.subst(TVAR, ty, {a: tt.TgVarT(base_name(a)) for a in atoms}))

    match term:
        case tg.TgVar(n):
            ty = dict(reversed(context)).get(n)
            if ty is None:
                raise UnboundTargetVariable(n)
            return ty
        case tg.TgBVar(k):
            raise TargetTypeError(f"dangling bound variable {k}")
        case tg.Star():
            if mode != PARAMETRIC:
                raise StarInPlainMode("Star is legal only in parametric mode")
            return tt.TOP
        case tg.TgLam(hint, ann, body):
            x = tg.fresh(hint or "x")
            body_ty = _ref_typecheck(context + ((x, ann),), tg.open_var(body, x), mode, atoms)
            if not isinstance(body_ty, tt.RType):
                raise NonAnswerBody(f"abstraction body has type {show(body_ty)}, not R")
            return tt.Neg(ann)
        case tg.TgApp(fn, arg):
            fn_ty = _ref_typecheck(context, fn, mode, atoms)
            if not isinstance(fn_ty, tt.Neg):
                raise TargetTypeMismatch(f"application of non-negation type {show(fn_ty)}")
            arg_ty = _ref_typecheck(context, arg, mode, atoms)
            if arg_ty != fn_ty.body:
                raise TargetTypeMismatch(
                    f"argument type {show(arg_ty)} does not match expected {show(fn_ty.body)}"
                )
            return tt.R
        case tg.Pair(left, right):
            left, right = (_ref_typecheck(context, kid, mode, atoms) for kid in (left, right))
            return tt.Conj(left, right)
        case tg.LetPair(hx, hy, scrut, body):
            scrut_ty = _ref_typecheck(context, scrut, mode, atoms)
            if not isinstance(scrut_ty, tt.Conj):
                raise TargetTypeMismatch(f"let-pair scrutinee has type {show(scrut_ty)}")
            x, y = tg.fresh(hx or "x"), tg.fresh(hy or "y")
            opened = tg.open_var(tg.open_var(body, y), x, 1)
            ctx2 = context + ((x, scrut_ty.left), (y, scrut_ty.right))
            return _ref_typecheck(ctx2, opened, mode, atoms)
        case tg.Pack(witness, payload, ex_ann):
            if not isinstance(ex_ann, tt.Exists):
                raise TargetTypeMismatch(f"pack annotated with non-existential {ex_ann if ex_ann is None else show(ex_ann)}")
            payload_ty = _ref_typecheck(context, payload, mode, atoms)
            want = tt.inst_tvar(ex_ann.body, witness)
            if payload_ty != want:
                raise TargetTypeMismatch(f"pack payload has type {show(payload_ty)}, expected {show(want)}")
            return ex_ann
        case tg.LetPack(ht, hx, scrut, body):
            scrut_ty = _ref_typecheck(context, scrut, mode, atoms)
            if not isinstance(scrut_ty, tt.Exists):
                raise TargetTypeMismatch(f"let-pack scrutinee has type {show(scrut_ty)}")
            tv, x = tg.fresh(ht or "X"), tg.fresh(hx or "x")
            opened = tg.open_var(tg.open_tvar_term(body, tv), x)
            ctx2 = context + ((x, tt.inst_tvar(scrut_ty.body, tt.TgVarT(tv))),)
            atoms += (tv,)  # in scope in the body and in the escape check's message
            result = _ref_typecheck(ctx2, opened, mode, atoms)
            if tv in tt.ftv(result):
                raise EscapeCheckFailed(
                    f"type variable {base_name(tv)} escapes through the let-pack result {show(result)}"
                )
            return result
    raise TypeError(term)


def _judgements():
    """(gamma, delta, source, mutate) for every catalog entry, S^n O
    (n <= 8) and a sample of generated judgements; mutate is false for the
    larger numerals."""
    from mu2forge import mu_terms as tm
    from mu2forge.combinators import catalog, church_succ, church_zero
    from mu2forge.suite_runner import _entry_gamma
    from mu2forge.theory import GaveUp, gen_judgement

    out = [(_entry_gamma(entry), (), entry.term, True) for entry in catalog()]
    t = church_zero()
    for n in range(9):
        out.append(((), (), t, n <= 3))
        t = tm.App(church_succ(), t)
    seed = 150_000
    while len(out) < 30 + 9 + len(catalog()):
        try:
            gamma, delta, source, _ = gen_judgement(seed, budget=5)
            out.append((gamma, delta, source, True))
        except GaveUp:
            pass
        seed += 1
    return out


def _canonical_atoms(text: str) -> str:
    """Renumber fresh-atom suffixes by first appearance: the new typing
    pass calls fresh less often, so only the numbering may differ."""
    import re

    seen: dict[str, str] = {}
    return re.sub(r"%\d+", lambda m: seen.setdefault(m.group(), f"%{len(seen)}"), text)


def _mutants(term):
    """Ill-typed and dangling variants of a locally closed term."""
    paths, todo = [], [((), term)]
    while todo and len(paths) < 24:
        path, t = todo.pop()
        paths.append(path)
        todo.extend((path + (i,), kid) for i, kid in enumerate(tg.children(t)))
    out = []
    for path in paths[1::3]:
        node = tg.subterm_at(term, path)
        out.append(tg.replace_at(term, path, tg.TgBVar(0)))
        out.append(tg.replace_at(term, path, tg.TgBVar(7)))
        out.append(tg.replace_at(term, path, tg.STAR))
        if isinstance(node, tg.TgLam):
            for ann in (tt.R, tt.TOP, *map(tt.TgBoundT, range(3)), tt.Neg(tt.TgBoundT(3))):
                out.append(tg.replace_at(term, path, tg.TgLam(node.hint, ann, node.body)))
        if isinstance(node, tg.Pack):
            for ann in (tt.TgBoundT(2), tt.Exists("X", tt.TgBoundT(2)), tt.TOP):
                out.append(tg.replace_at(term, path, tg.Pack(node.witness, node.payload, ann)))
            out.append(tg.replace_at(term, path, tg.Pack(tt.TgBoundT(5), node.payload, node.ex_ann)))
        if isinstance(node, tg.Pair):
            out.append(tg.replace_at(term, path, tg.Pair(node.right, node.left)))
    return out


def _outcome(check, context, term, mode):
    try:
        return "type", _canonical_atoms(repr(check(context, term, mode)))
    except Exception as exc:  # the class and message are what is compared
        return type(exc).__name__, _canonical_atoms(str(exc))


def test_binder_passes_match_per_binder_reference(monkeypatch):
    """CPS, the nameful round trip and target typing give what their
    per-binder definitions give: the same terms and hints from the same
    fresh-counter start, and the same types or the same errors."""
    import itertools

    from mu2forge import mu_terms as tm
    from mu2forge import rewrite
    from mu2forge.cps import cps_context, cps_term_typed

    def at(start, fn, *args):
        monkeypatch.setattr(tm, "_fresh_counter", itertools.count(start))
        return fn(*args)

    checked = mutants = 0
    for gamma, delta, source, mutate in _judgements():
        image, ty = at(1000, cps_term_typed, gamma, delta, source)
        ref_image, ref_ty = at(1000, _ref_translate, gamma, delta, source)
        assert image == ref_image and ty == ref_ty
        assert repr(image) == repr(ref_image)  # the hints too
        nameful = at(5000, rewrite.to_nameful, image)
        assert repr(nameful) == repr(at(5000, _ref_to_nameful, image))
        assert repr(rewrite.from_nameful(nameful)) == repr(_ref_from_nameful(nameful))
        assert repr(at(9000, rewrite.uniquify, nameful)) == repr(at(9000, _ref_uniquify, nameful))
        context = cps_context(gamma, delta)
        for mode in (PLAIN, PARAMETRIC):
            want = _outcome(_ref_typecheck, context, image, mode)
            assert _outcome(typecheck_target, context, image, mode) == want
            assert want[0] == "type"
        for bad in _mutants(image) if mutate else ():
            for mode in (PLAIN, PARAMETRIC):
                want = _outcome(_ref_typecheck, context, bad, mode)
                assert _outcome(typecheck_target, context, bad, mode) == want, bad
                mutants += want[0] != "type"
            try:
                want = repr(at(7000, _ref_to_nameful, bad))
            except RewriteError as exc:
                with pytest.raises(RewriteError, match=f"^{exc}$"):
                    at(7000, rewrite.to_nameful, bad)
            else:
                assert repr(at(7000, rewrite.to_nameful, bad)) == want
        checked += 1
    assert checked > 60 and mutants > 500
