"""Rewrite engine for the target theory.

Rules are instances of the six beta/eta axiom schemas, the terminality
rewrite of parametric mode (any term of type exists X. X equals Star),
plus derived rules (hoisting and star-modulated eta patterns) that are
two-step compositions of the primitive schemas; each derived rule's
validator documents its decomposition.

The engine works on a "nameful" image of the term: every binder is
opened with a globally unique atom kept in the hint slot, so moving a
subterm across binders (let hoisting) can never capture.  Duplication
re-freshens binder atoms.  Public inputs and outputs stay locally
nameless.

Every applied step is logged as ``rule path``; `replay` re-applies a
logged trace step by step, validating each rule pattern, which is the
trace-consumer contract of the equality oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import target_types as tt
from . import target_terms as tg
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


@dataclass(frozen=True)
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
    match t:
        case TgVar(_) | Star():
            return t
        case TgBVar(k):
            raise RewriteError(f"dangling bound variable {k}")
        case TgLam(hint, ann, body):
            x = fresh(hint or "x")
            return TgLam(x, ann, to_nameful(tg.open_var(body, x)))
        case TgApp(fn, arg):
            return TgApp(to_nameful(fn), to_nameful(arg))
        case Pair(left, right):
            return Pair(to_nameful(left), to_nameful(right))
        case LetPair(hx, hy, scrut, body):
            x, y = fresh(hx or "x"), fresh(hy or "y")
            opened = tg.open_var(tg.open_var(body, y), x, 1)
            return LetPair(x, y, to_nameful(scrut), to_nameful(opened))
        case Pack(w, payload, ex):
            return Pack(w, to_nameful(payload), ex)
        case LetPack(ht, hx, scrut, body):
            tv, x = fresh(ht or "X"), fresh(hx or "x")
            opened = tg.open_var(tg.open_tvar_term(body, tv), x)
            return LetPack(tv, x, to_nameful(scrut), to_nameful(opened))
    raise TypeError(t)


def from_nameful(t: TargetTerm) -> TargetTerm:
    from .mu_terms import base_name

    match t:
        case TgVar(_) | Star():
            return t
        case TgLam(x, ann, body):
            return TgLam(base_name(x), ann, tg.close_var(from_nameful(body), x))
        case TgApp(fn, arg):
            return TgApp(from_nameful(fn), from_nameful(arg))
        case Pair(left, right):
            return Pair(from_nameful(left), from_nameful(right))
        case LetPair(x, y, scrut, body):
            closed = tg.close_var(tg.close_var(from_nameful(body), y), x, 1)
            return LetPair(base_name(x), base_name(y), from_nameful(scrut), closed)
        case Pack(w, payload, ex):
            return Pack(w, from_nameful(payload), ex)
        case LetPack(tv, x, scrut, body):
            closed = tg.close_tvar_term(tg.close_var(from_nameful(body), x), tv)
            return LetPack(base_name(tv), base_name(x), from_nameful(scrut), closed)
    raise TypeError(t)


def uniquify(t: TargetTerm) -> TargetTerm:
    """Refresh every binder atom of a nameful term (used on duplication)."""
    from .mu_terms import base_name

    def go(t: TargetTerm, ren: dict[str, str], tren: dict[str, tt.TargetType]) -> TargetTerm:
        def rty(ty: tt.TargetType) -> tt.TargetType:
            for old, new in tren.items():
                ty = tt.subst_tvar(ty, old, new)
            return ty

        match t:
            case TgVar(n):
                return TgVar(ren.get(n, n))
            case Star():
                return t
            case TgLam(x, ann, body):
                x2 = fresh(base_name(x))
                return TgLam(x2, rty(ann), go(body, {**ren, x: x2}, tren))
            case TgApp(fn, arg):
                return TgApp(go(fn, ren, tren), go(arg, ren, tren))
            case Pair(left, right):
                return Pair(go(left, ren, tren), go(right, ren, tren))
            case LetPair(x, y, scrut, body):
                x2, y2 = fresh(base_name(x)), fresh(base_name(y))
                return LetPair(
                    x2, y2, go(scrut, ren, tren), go(body, {**ren, x: x2, y: y2}, tren)
                )
            case Pack(w, payload, ex):
                return Pack(rty(w), go(payload, ren, tren), rty(ex))
            case LetPack(tv, x, scrut, body):
                tv2, x2 = fresh(base_name(tv)), fresh(base_name(x))
                return LetPack(
                    tv2,
                    x2,
                    go(scrut, ren, tren),
                    go(body, {**ren, x: x2}, {**tren, tv: tt.TgVarT(tv2)}),
                )
        raise TypeError(t)

    return go(t, {}, {})


def subst_refresh(t: TargetTerm, x: str, rep: TargetTerm) -> TargetTerm:
    """Nameful substitution; each inserted copy gets fresh binder atoms."""
    match t:
        case TgVar(n):
            return uniquify(rep) if n == x else t
        case Star():
            return t
        case TgLam(h, ann, body):
            return TgLam(h, ann, subst_refresh(body, x, rep))
        case TgApp(fn, arg):
            return TgApp(subst_refresh(fn, x, rep), subst_refresh(arg, x, rep))
        case Pair(left, right):
            return Pair(subst_refresh(left, x, rep), subst_refresh(right, x, rep))
        case LetPair(hx, hy, scrut, body):
            return LetPair(hx, hy, subst_refresh(scrut, x, rep), subst_refresh(body, x, rep))
        case Pack(w, payload, ex):
            return Pack(w, subst_refresh(payload, x, rep), ex)
        case LetPack(ht, hx, scrut, body):
            return LetPack(ht, hx, subst_refresh(scrut, x, rep), subst_refresh(body, x, rep))
    raise TypeError(t)


def nameful_occurs(t: TargetTerm, x: str) -> bool:
    match t:
        case TgVar(n):
            return n == x
        case Star():
            return False
    for c in children(t):
        if nameful_occurs(c, x):
            return True
    return False


def nameful_tvar_occurs(t: TargetTerm, tv: str) -> bool:
    match t:
        case TgVar(_) | Star():
            return False
        case TgLam(_, ann, _) if tv in tt.ftv(ann):
            return True
        case Pack(w, _, ex) if tv in tt.ftv(w) or tv in tt.ftv(ex):
            return True
    for c in children(t):
        if nameful_tvar_occurs(c, tv):
            return True
    return False


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
            body2 = tg.subst_tvar_term(body, tv, w)
            return subst_refresh(body2, x, payload)
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


def _replace_pattern(t, pats: tuple[TargetTerm, ...], rep: TargetTerm):
    """Replace every occurrence of any pattern; counts replacements."""
    count = 0

    def go(t):
        nonlocal count
        if t in pats:
            count += 1
            return uniquify(rep)
        if isinstance(t, (TgVar, Star)):
            return t
        return with_children(t, tuple(go(c) for c in children(t)))

    out = go(t)
    return out, count


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
            out, count = _replace_pattern(body, pats, scrut)
            if count >= 1 and not nameful_occurs(out, x) and not nameful_occurs(out, y):
                return out
    return None


def _rw_eta_pack(t, env, mode):
    match t:
        case LetPack(tv, x, scrut, body):
            sty = nameful_synth(scrut, env)
            pat = Pack(tt.TgVarT(tv), TgVar(x), sty)
            out, count = _replace_pattern(body, (pat,), scrut)
            if (
                count >= 1
                and not nameful_occurs(out, x)
                and not nameful_tvar_occurs(out, tv)
            ):
                return out
    return None


def _replace_first_scrut(body, atom: str, kind, rep):
    """Rebuild body with the first same-kind let scrutinising atom redirected."""
    if isinstance(body, kind) and body.scrut == TgVar(atom):
        return _remake_let(body, rep, body.body)
    if isinstance(body, (TgVar, Star)):
        return None
    kids = children(body)
    for i, kid in enumerate(kids):
        out = _replace_first_scrut(kid, atom, kind, rep)
        if out is not None:
            new = list(kids)
            new[i] = out
            return with_children(body, tuple(new))
    return None


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


# Rule groups in priority order; within a group, scanning is preorder
# (leftmost-outermost) and the listed order breaks ties at a node.
BETA_RULES = (
    ("beta-fun", _rw_beta_fun),
    ("beta-pair", _rw_beta_pair),
    ("beta-pack", _rw_beta_pack),
)
ETA_RULES = (
    ("eta-fun", _rw_eta_fun),
    ("eta-pair", _rw_eta_pair),
    ("eta-pack", _rw_eta_pack),
    ("dead-let-pair", _rw_dead_let_pair),
    ("dead-let-pack", _rw_dead_let_pack),
    ("dedup-pair", _rw_dedup_pair),
    ("dedup-pack", _rw_dedup_pack),
)
HOIST_RULES = (
    ("hoist-app-fn", _rw_hoist_app_fn),
    ("hoist-app-arg", _rw_hoist_app_arg),
    ("hoist-pair-left", _rw_hoist_pair_left),
    ("hoist-pair-right", _rw_hoist_pair_right),
    ("hoist-pack", _rw_hoist_pack),
    ("hoist-scrut", _rw_hoist_scrut),
    ("hoist-lam", _rw_hoist_lam),
    ("let-expand", _rw_let_expand),
    ("let-swap", _rw_let_swap),
)
STAR_RULES = (
    ("star", _rw_star),
    ("star-eta", _rw_star_eta),
)
EXPAND_RULES = (("expand", _rw_expand),)
SHARE_RULES = (
    ("dead-let-pair", _rw_dead_let_pair),
    ("dead-let-pack", _rw_dead_let_pack),
    ("dedup-pair", _rw_dedup_pair),
    ("dedup-pack", _rw_dedup_pack),
)

ALL_RULES = dict(BETA_RULES + ETA_RULES + HOIST_RULES + STAR_RULES + EXPAND_RULES)


def _find(t, group, env, mode, path=()):
    for name, rule in group:
        if name == "hoist-lam" and path == ():
            continue
        out = rule(t, env, mode)
        if out is not None:
            return name, path, out
    for i, kid in enumerate(children(t)):
        hit = _find(kid, group, _env_through(t, i, env), mode, path + (i,))
        if hit is not None:
            return hit
    return None


def _contract_groups(mode: str):
    groups = [BETA_RULES, ETA_RULES, HOIST_RULES]
    if mode == PARAMETRIC:
        groups.append(STAR_RULES)
    return groups


def _expand_groups(mode: str):
    groups = [BETA_RULES, SHARE_RULES, HOIST_RULES]
    if mode == PARAMETRIC:
        groups.append(STAR_RULES)
    groups.append(EXPAND_RULES)
    return groups


def _run(t, env, mode, groups, steps):
    for _ in range(MAX_STEPS):
        hit = None
        for group in groups:
            hit = _find(t, group, env, mode)
            if hit is not None:
                break
        if hit is None:
            return t
        name, path, out = hit
        t = tg.replace_at(t, path, out)
        steps.append(RewriteStep(name, path))
    raise RewriteError("rewrite did not terminate within the step budget")


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
        for _ in range(MAX_STEPS):
            hit = _find(t, BETA_RULES, env, mode)
            if hit is None:
                return from_nameful(t), steps
            name, path, out = hit
            t = tg.replace_at(t, path, out)
            steps.append(RewriteStep(name, path))
        raise RewriteError("beta reduction did not terminate within the step budget")
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
    (hoist-*, let-*, star-eta, the starred eta-pair pattern) are the
    two-step axiom compositions documented on their implementations.
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
