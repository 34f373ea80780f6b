"""Pretty printers and the s-expression interchange format.

Output is UTF-8 and re-sugars the falsity type, negations, named terms
and bold-mu abstractions; the surface parser accepts both the ASCII and
the printed spellings, so parse(print(t)) = t.  Binder display names are
derived from hints and deduplicated deterministically, so printing is
stable across runs regardless of the internal fresh-atom counter.

The s-expression writer and reader serve both calculi and are derived
from the binder tables (:mod:`.syntax`) plus one tag per node class.
"""

from __future__ import annotations

import re
from functools import partial

from . import mu_terms as tm
from . import mu_types as mt
from . import target_terms as tg
from . import target_types as tt
from .mu_terms import base_name
from .record import fields
from .syntax import NAME, NAME_REF, TERM, TYPE, Hint, Leaf, field_getter

# ---------------------------------------------------------------------------
# Binder display names


class Names:
    """The binder display names of one printout.  A binder takes the first
    of b, b1, b2, ... that is neither held nor avoided, b being its hint's
    base name, or its table base for a hint without one.

    A held name stays taken until it is released.  The global policy
    (:meth:`bind`) holds every name for good, so no two binders share one;
    the scoped policy holds a binder's names only over the children under
    it.  Every name below a base's start suffix is held, so the next
    search for that base begins there and naming stays linear."""

    def __init__(self, taken=()):
        self.held = dict.fromkeys(taken, 1)  # name -> binders holding it
        self.scope: list[tuple[str, str, int]] = []  # per hold: name, base, the base's old start
        self.start: dict[str, int] = {}

    def pick(self, hint: str, base: str, avoid=()) -> tuple[str, str, int]:
        """(b, name, start): the name, and the suffix a later search for b
        may start at while every name held now stays held."""
        b = base_name(hint) or base
        i = self.start.get(b, 0)
        name, gap = f"{b}{i}" if i else b, None
        while name in self.held or name in avoid:
            if gap is None and name not in self.held:
                gap = i
            i += 1
            name = f"{b}{i}"
        return b, name, i + 1 if gap is None else gap

    def hold(self, b: str, name: str, start: int) -> None:
        self.scope.append((name, b, self.start.get(b, 0)))
        self.start[b] = start
        self.held[name] = self.held.get(name, 0) + 1

    def release(self) -> None:
        name, b, self.start[b] = self.scope.pop()
        self.held[name] -= 1
        if not self.held[name]:
            del self.held[name]

    def bind(self, hint: str, base: str) -> str:
        """Name a binder under the global policy."""
        picked = self.pick(hint, base)
        self.hold(*picked)
        return picked[1]


# ---------------------------------------------------------------------------
# Source types and terms


def print_mu_type(ty: mt.MuType, env: tuple[str, ...] = (), prec: int = 0) -> str:
    match ty:
        case mt.TVar(n):
            return n
        case mt.TBound(k):
            return env[k] if k < len(env) else f"?{k}"
        case _ if mt.is_bot(ty):
            return "⊥"
        case _ if mt.is_neg(ty):
            inner = print_mu_type(ty.dom, env, 2)
            return f"¬{inner}"
        case mt.Arrow(dom, cod):
            s = f"{print_mu_type(dom, env, 1)} → {print_mu_type(cod, env, 0)}"
            return f"({s})" if prec > 0 else s
        case mt.Forall(hint, body):
            x = Names(env).pick(hint, "X", mt.ftv(body))[1]
            s = f"∀{x}. {print_mu_type(body, (x,) + env, 0)}"
            return f"({s})" if prec > 0 else s
    raise TypeError(ty)


def print_mu_term(t: tm.MuTerm) -> str:
    names = Names(tm.fv(t) | tm.fn(t) | tm.ftv_term(t))
    return _pmt(t, names)


def _unfold(todo: list, out: list, paren: bool, *parts) -> None:
    """Schedule the parts of a template, strings and (node, ...) items to
    print, in order, parenthesised if paren."""
    if paren:
        out.append("(")
        todo.append(")")
    todo.extend(reversed(parts))


def _pmt(t, names: Names) -> str:
    """The term's text, printed in preorder over an explicit stack of
    template parts: strings, and (node, venv, tenv, nenv, prec) items,
    prec being 0 top, 1 application, 2 atom."""
    out: list[str] = []
    todo: list = [(t, (), (), (), 0)]
    while todo:
        item = todo.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        t, venv, tenv, nenv, prec = item
        match t:
            case tm.Var(n):
                out.append(n)
            case tm.BVar(k):
                out.append(venv[k] if k < len(venv) else f"?v{k}")
            case tm.App(fn, arg):
                _unfold(todo, out, prec > 1, (fn, venv, tenv, nenv, 1), " ", (arg, venv, tenv, nenv, 2))
            case tm.TyApp(fn, ty):
                _unfold(todo, out, prec > 1, (fn, venv, tenv, nenv, 1), f" [{print_mu_type(ty, tenv)}]")
            case tm.Lam(hint, ann, body):
                x = names.bind(hint, "x")
                head = f"λ{x}:{print_mu_type(ann, tenv)}. "
                _unfold(todo, out, prec > 0, head, (body, (x,) + venv, tenv, nenv, 0))
            case tm.TyLam(hint, body):
                x = names.bind(hint, "X")
                _unfold(todo, out, prec > 0, f"Λ{x}. ", (body, venv, (x,) + tenv, nenv, 0))
            case tm.Mu(_, _, _, _):
                sug = tm.match_named(t)
                if sug is not None:
                    target, body = sug
                    tname = target.name if isinstance(target, tm.FName) else nenv[target.index - 1]
                    inner = (body, venv, tenv, ("?self",) + nenv, 0)
                    _unfold(todo, out, prec > 0, f"[{tname}] ", inner)
                    continue
                bold = tm.match_bold_mu(t)
                if bold is not None:
                    ann, inner = bold
                    a = names.bind(t.hint, "a")
                    head = f"μ*{a}:{print_mu_type(ann, tenv)}. "
                    _unfold(todo, out, prec > 0, head, (inner, venv, tenv, (a,) + nenv, 0))
                    continue
                a = names.bind(t.hint, "a")
                nenv2 = (a,) + nenv
                if isinstance(t.target, tm.BName):
                    tname = nenv2[t.target.index]
                else:
                    tname = t.target.name
                head = f"μ{a}:{print_mu_type(t.ann, tenv)}. [{tname}] "
                _unfold(todo, out, prec > 0, head, (t.body, venv, tenv, nenv2, 0))
            case _:
                raise TypeError(t)
    return "".join(out)


# ---------------------------------------------------------------------------
# Target types and terms


def print_target_type(ty: tt.TargetType, env: tuple[str, ...] = (), prec: int = 0) -> str:
    match ty:
        case tt.TgVarT(n):
            return n
        case tt.TgBoundT(k):
            return env[k] if k < len(env) else f"?{k}"
        case tt.RType():
            return "R"
        case tt.Neg(body):
            return f"¬{print_target_type(body, env, 2)}"
        case tt.Conj(left, right):
            s = f"{print_target_type(left, env, 2)} ∧ {print_target_type(right, env, 1)}"
            return f"({s})" if prec > 1 else s
        case tt.Exists(hint, body):
            x = Names(env).pick(hint, "X", tt.ftv(body))[1]
            s = f"∃{x}. {print_target_type(body, (x,) + env, 0)}"
            return f"({s})" if prec > 0 else s
    raise TypeError(ty)


def print_target_term(t: tg.TargetTerm, rename: dict[str, str] | None = None) -> str:
    """The term, each free atom shown as rename maps it (default: as is).
    No binder is shown under the name of a free atom, raw or shown."""
    free = tg.free_vars(t) | tg.free_tvars(t)
    if rename:
        free |= {rename.get(a, a) for a in free}
    return _ptt(t, Names(free), rename or {})


def _ptt(t, names: Names, rename: dict[str, str]) -> str:
    """As _pmt, for target terms: (node, venv, tenv, prec) items."""
    out: list[str] = []
    todo: list = [(t, (), (), 0)]
    while todo:
        item = todo.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        t, venv, tenv, prec = item
        match t:
            case tg.TgVar(n):
                out.append(rename.get(n, n))
            case tg.TgBVar(k):
                out.append(venv[k] if k < len(venv) else f"?v{k}")
            case tg.Star():
                out.append("⋆")
            case tg.TgApp(fn, arg):
                _unfold(todo, out, prec > 1, (fn, venv, tenv, 1), " ", (arg, venv, tenv, 2))
            case tg.TgLam(hint, ann, body):
                x = names.bind(hint, "x")
                head = f"λ{x}:{print_target_type(ann, tenv)}. "
                _unfold(todo, out, prec > 0, head, (body, (x,) + venv, tenv, 0))
            case tg.Pair(left, right):
                _unfold(todo, out, False, "⟨", (left, venv, tenv, 0), ", ", (right, venv, tenv, 0), "⟩")
            case tg.Pack(w, payload, ex):
                head = f"⟨{print_target_type(w, tenv)} | "
                tail = f" : {print_target_type(ex, tenv)}⟩"
                _unfold(todo, out, False, head, (payload, venv, tenv, 0), tail)
            case tg.LetPair(hx, hy, scrut, body):
                x = names.bind(hx, "x")
                y = names.bind(hy, "y")
                _unfold(todo, out, prec > 0, f"let ⟨{x}, {y}⟩ = ", (scrut, venv, tenv, 0), " in ",
                        (body, (y, x) + venv, tenv, 0))
            case tg.LetPack(ht, hx, scrut, body):
                xv = names.bind(ht, "X")
                x = names.bind(hx, "x")
                _unfold(todo, out, prec > 0, f"let ⟨{xv}, {x}⟩ = ", (scrut, venv, tenv, 0), " in ",
                        (body, (x,) + venv, (xv,) + tenv, 0))
            case _:
                raise TypeError(t)
    return "".join(out)


# ---------------------------------------------------------------------------
# S-expression interchange: ``(tag field ...)`` per node, its fields in
# constructor order.  Binders are exported nameful under display names.

#: One s-expression tag per node class of both calculi.  A mu-name
#: occurrence has none: it is written as its bare atom.
TAGS = {
    mt.TVar: "tvar", mt.TBound: "tvar", mt.Arrow: "arrow", mt.Forall: "forall",
    tm.Var: "var", tm.BVar: "var", tm.Lam: "lam", tm.App: "app", tm.TyLam: "tylam",
    tm.TyApp: "tyapp", tm.FName: None, tm.BName: None, tm.Mu: "mu",
    tt.TgVarT: "tvar", tt.TgBoundT: "tvar", tt.RType: "r", tt.Neg: "neg", tt.Conj: "conj",
    tt.Exists: "exists",
    tg.TgVar: "var", tg.TgBVar: "var", tg.TgLam: "lam", tg.TgApp: "app", tg.Pair: "pair",
    tg.LetPair: "letpair", tg.Pack: "pack", tg.LetPack: "letpack", tg.Star: "star",
}

_TABLE = {**tm.TABLE, **tg.TABLE}


def _plan(cls, specs):
    """What the writer and the reader use of a class's table row: its tag,
    its leaf spec (or None), the getter of its fields, per hint (field
    index, namespace, base), and per later field (whether it sits under
    the node's binders, its sort).  The hints come first."""
    leaf = specs[0] if specs and isinstance(specs[0], Leaf) else None
    hints = tuple((i, s.ns, s.base) for i, s in enumerate(specs) if isinstance(s, Hint))
    if hints and hints[-1][0] != len(hints) - 1:
        raise TypeError(f"the hints of {cls.__name__} do not come first")
    kids = () if leaf else tuple((bool(s.var or s.tvar or s.name), s.sort) for s in specs[len(hints):])
    return TAGS[cls], leaf, field_getter(tuple(f.name for f in fields(cls))), hints, kids


_PLANS = {cls: _plan(cls, specs) for cls, specs in _TABLE.items()}
_NO_ATOMS: frozenset = frozenset()


def _atom(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _free_under(node, out: dict) -> frozenset:
    """The free atoms (namespace, atom) of node, in one bottom-up pass on
    an explicit stack; out maps the id of each binding node to those of
    its children under it."""
    done: list[frozenset] = []  # the free atoms of each finished subtree
    todo: list = [(node, False)]
    while todo:
        t, children_done = todo.pop()
        _, leaf, get, hints, kids = _PLANS[t.__class__]
        if leaf is not None:
            done.append(_NO_ATOMS if leaf.bound else frozenset(((leaf.ns, t.name),)))
        elif not children_done:
            todo.append((t, True))
            todo.extend((v, False) for v in reversed(get(t)[len(hints):]))
        else:
            start = len(done) - len(kids)
            acc = under = _NO_ATOMS
            for (inside, _), atoms in zip(kids, done[start:]):
                if atoms:
                    acc |= atoms
                    if inside:
                        under |= atoms
            del done[start:]
            if hints:
                out[id(t)] = under
            done.append(acc)
    return done[0]


def sexpr(node) -> str:
    """The s-expression of a type or term of either calculus, written on
    an explicit stack.  A binder takes the first display name that no
    binder of its namespace in scope holds and no free atom of that
    namespace under it uses."""
    under: dict[int, frozenset] = {}
    _free_under(node, under)
    names = (Names(), Names(), Names())  # per namespace
    out: list[str] = []
    todo: list = [node]  # nodes, text, and (hold, picked) around a child under binders
    while todo:
        t = todo.pop()
        cls = t.__class__
        if cls is str:
            out.append(t)
            continue
        if cls is tuple:
            hold, picked = t
            for ns, p in picked:
                if hold:
                    names[ns].hold(*p)
                else:
                    names[ns].release()
            continue
        tag, leaf, get, hints, kids = _PLANS[cls]
        if leaf is not None:
            atom = _atom(names[leaf.ns].scope[-1 - t.index][0] if leaf.bound else t.name)
            out.append(atom if tag is None else f"({tag} {atom})")
            continue
        vals = get(t)
        picked = []  # per hint: its namespace and (base, name, start)
        for i, ns, base in hints:  # a later hint avoids the earlier ones
            avoid = {a for n, a in under[id(t)] if n == ns} | {p[1] for n, p in picked if n == ns}
            picked.append((ns, names[ns].pick(vals[i], base, avoid)))
        out.append(f"({tag}")
        out.extend(f" {_atom(p[1])}" for _, p in picked)
        todo.append(")")
        for (inside, _), v in reversed(tuple(zip(kids, vals[len(hints):]))):
            todo.extend(((False, picked), v, (True, picked), " ") if inside else (v, " "))
    return "".join(out)


def sexpr_mu_term(t: tm.MuTerm) -> str:
    return sexpr(t)


def sexpr_target_term(t: tg.TargetTerm) -> str:
    return sexpr(t)


# ---------------------------------------------------------------------------
# S-expression reader


class SexprError(Exception):
    pass


# a parenthesis, a string (backslash escapes the next character), another
# atom, or else the opening quote of an unterminated string
_TOKEN = r'\s*(?:([()])|"((?:[^"\\]|\\.)*)"|([^\s()"][^\s()]*)|(\S))'


def parse_sexpr(text: str):
    """The tree of one s-expression: a list per parenthesis, and
    ("str", s) or ("sym", s) per atom."""
    stack: list[list] = [[]]
    for paren, string, sym, bad in re.findall(_TOKEN, text, re.S):
        if bad:
            raise SexprError("unterminated string")
        if paren == "(":
            stack.append([])
        elif paren == ")":
            if len(stack) == 1:
                raise SexprError("unexpected )")
            done = stack.pop()
            stack[-1].append(done)
        else:
            atom = ("sym", sym) if sym else ("str", re.sub(r"\\(.)", r"\1", string, flags=re.S))
            stack[-1].append(atom)
    if len(stack) > 1:
        raise SexprError("missing closing parenthesis")
    if len(stack[0]) != 1:
        raise SexprError("trailing input" if stack[0] else "unexpected end of input")
    return stack[0][0]


def _sym(node) -> str:
    if isinstance(node, tuple):
        return node[1]
    raise SexprError(f"expected an atom, got {node}")


def _read(node, calculus, sort):
    """The node of sort read from a parsed s-expression of the calculus.
    It is built nameful, then closed by one `Syntax.close_binders` pass
    at each root: a type's, whether it stands alone or in a term, and the
    term's.  An occurrence of an atom that a binder around it binds
    becomes the index of the innermost such binder."""
    types, syntax, tags = calculus

    def go(node, sort):
        if sort is NAME_REF:
            return syntax.free_leaf[NAME](_sym(node))
        if not isinstance(node, list) or not node:
            raise SexprError(f"expected a tagged list, got {node}")
        tag = _sym(node[0])
        cls = tags.get(tag)
        if cls is None or (cls in types) != (sort is TYPE):
            raise SexprError(f"unknown {'type' if sort is TYPE else 'term'} tag {tag}")
        _, leaf, _, hints, kids = _PLANS[cls]
        if len(node) != 1 + len(_TABLE[cls]):
            raise SexprError(f"({tag} ...) takes {len(_TABLE[cls])} fields, not {len(node) - 1}")
        if leaf is not None:
            return cls(_sym(node[1]))
        args = [_sym(node[1 + i]) for i, _, _ in hints]
        for (_, sort), x in zip(kids, node[1 + len(hints):]):
            made = go(x, sort)
            args.append(syntax.close_binders(made) if sort is TYPE and cls not in types else made)
        return cls(*args)

    return syntax.close_binders(go(node, sort))


def _calculus(types: dict, syntax, table: dict):
    """A calculus as the reader sees it: its types table, its syntax, and
    tag -> class of each node it builds, every one but bound occurrences."""
    bound = syntax.bound_leaf.values()
    return types, syntax, {TAGS[cls]: cls for cls in table if TAGS[cls] and cls not in bound}


_MU = _calculus(mt.TABLE, tm.SYNTAX, tm.TABLE)
_TARGET = _calculus(tt.TABLE, tg.SYNTAX, tg.TABLE)
mu_type_from_sexpr = partial(_read, calculus=_MU, sort=TYPE)
mu_term_from_sexpr = partial(_read, calculus=_MU, sort=TERM)
target_type_from_sexpr = partial(_read, calculus=_TARGET, sort=TYPE)
target_term_from_sexpr = partial(_read, calculus=_TARGET, sort=TERM)
