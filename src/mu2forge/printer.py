"""Pretty printers and the s-expression interchange format.

Output is UTF-8 and re-sugars the falsity type, negations, named terms
and bold-mu abstractions; the surface parser accepts both the ASCII and
the printed spellings, so parse(print(t)) = t.  Binder display names are
derived from hints and deduplicated deterministically, so printing is
stable across runs regardless of the internal fresh-atom counter.
"""

from __future__ import annotations

from . import mu_terms as tm
from . import mu_types as mt
from . import target_terms as tg
from . import target_types as tt
from .mu_terms import base_name


class _Names:
    def __init__(self, avoid: set[str], rename: dict[str, str] | None = None):
        self.used = set(avoid)
        self.rename = dict(rename or {})

    def display(self, atom: str) -> str:
        if atom in self.rename:
            return self.rename[atom]
        return atom

    def bind(self, hint: str, fallback: str) -> str:
        base = base_name(hint) or fallback
        name = base
        i = 1
        while name in self.used:
            name = f"{base}{i}"
            i += 1
        self.used.add(name)
        return name


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
            x = _fresh_display(hint or "X", env, mt.ftv(body))
            s = f"∀{x}. {print_mu_type(body, (x,) + env, 0)}"
            return f"({s})" if prec > 0 else s
    raise TypeError(ty)


def _fresh_display(hint: str, env: tuple[str, ...], avoid: frozenset[str]) -> str:
    base = base_name(hint) or "X"
    name = base
    i = 1
    while name in env or name in avoid:
        name = f"{base}{i}"
        i += 1
    return name


def print_mu_term(
    t: tm.MuTerm,
    rename: dict[str, str] | None = None,
) -> str:
    avoid = set(tm.fv(t)) | set(tm.fn(t)) | set(tm.ftv_term(t))
    names = _Names(avoid, rename)
    return _pmt(t, (), (), (), names, 0)


def _pmt(t, venv, tenv, nenv, names: _Names, prec: int) -> str:
    # prec: 0 top, 1 application, 2 atom
    match t:
        case tm.Var(n):
            return names.display(n)
        case tm.BVar(k):
            return venv[k] if k < len(venv) else f"?v{k}"
        case tm.App(fn, arg):
            s = f"{_pmt(fn, venv, tenv, nenv, names, 1)} {_pmt(arg, venv, tenv, nenv, names, 2)}"
            return f"({s})" if prec > 1 else s
        case tm.TyApp(fn, ty):
            s = f"{_pmt(fn, venv, tenv, nenv, names, 1)} [{print_mu_type(ty, tenv)}]"
            return f"({s})" if prec > 1 else s
        case tm.Lam(hint, ann, body):
            x = names.bind(hint, "x")
            s = f"λ{x}:{print_mu_type(ann, tenv)}. {_pmt(body, (x,) + venv, tenv, nenv, names, 0)}"
            return f"({s})" if prec > 0 else s
        case tm.TyLam(hint, body):
            x = names.bind(hint, "X")
            s = f"Λ{x}. {_pmt(body, venv, (x,) + tenv, nenv, names, 0)}"
            return f"({s})" if prec > 0 else s
        case tm.Mu(_, _, _, _):
            sug = tm.match_named(t)
            if sug is not None:
                target, body = sug
                tname = names.display(target.name) if isinstance(target, tm.FName) else nenv[target.index - 1]
                s = f"[{tname}] {_pmt(body, venv, tenv, ('?self',) + nenv, names, 0)}"
                return f"({s})" if prec > 0 else s
            bold = tm.match_bold_mu(t)
            if bold is not None:
                ann, inner = bold
                a = names.bind(t.hint, "a")
                s = f"μ*{a}:{print_mu_type(ann, tenv)}. {_pmt(inner, venv, tenv, (a,) + nenv, names, 0)}"
                return f"({s})" if prec > 0 else s
            a = names.bind(t.hint, "a")
            nenv2 = (a,) + nenv
            if isinstance(t.target, tm.BName):
                tname = nenv2[t.target.index]
            else:
                tname = names.display(t.target.name)
            s = f"μ{a}:{print_mu_type(t.ann, tenv)}. [{tname}] {_pmt(t.body, venv, tenv, nenv2, names, 0)}"
            return f"({s})" if prec > 0 else s
    raise TypeError(t)


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
            x = _fresh_display(hint or "X", env, tt.ftv(body))
            s = f"∃{x}. {print_target_type(body, (x,) + env, 0)}"
            return f"({s})" if prec > 0 else s
    raise TypeError(ty)


def print_target_term(t: tg.TargetTerm, rename: dict[str, str] | None = None) -> str:
    avoid = set(tg.free_vars(t)) | set(tg.free_tvars(t))
    names = _Names(avoid, rename)
    return _ptt(t, (), (), names, 0)


def _ptt(t, venv, tenv, names: _Names, prec: int) -> str:
    match t:
        case tg.TgVar(n):
            return names.display(n)
        case tg.TgBVar(k):
            return venv[k] if k < len(venv) else f"?v{k}"
        case tg.Star():
            return "⋆"
        case tg.TgApp(fn, arg):
            s = f"{_ptt(fn, venv, tenv, names, 1)} {_ptt(arg, venv, tenv, names, 2)}"
            return f"({s})" if prec > 1 else s
        case tg.TgLam(hint, ann, body):
            x = names.bind(hint, "x")
            s = f"λ{x}:{print_target_type(ann, tenv)}. {_ptt(body, (x,) + venv, tenv, names, 0)}"
            return f"({s})" if prec > 0 else s
        case tg.Pair(left, right):
            return f"⟨{_ptt(left, venv, tenv, names, 0)}, {_ptt(right, venv, tenv, names, 0)}⟩"
        case tg.Pack(w, payload, ex):
            return (
                f"⟨{print_target_type(w, tenv)} | {_ptt(payload, venv, tenv, names, 0)}"
                f" : {print_target_type(ex, tenv)}⟩"
            )
        case tg.LetPair(hx, hy, scrut, body):
            x = names.bind(hx, "x")
            y = names.bind(hy, "y")
            s = (
                f"let ⟨{x}, {y}⟩ = {_ptt(scrut, venv, tenv, names, 0)} in "
                f"{_ptt(body, (y, x) + venv, tenv, names, 0)}"
            )
            return f"({s})" if prec > 0 else s
        case tg.LetPack(ht, hx, scrut, body):
            xv = names.bind(ht, "X")
            x = names.bind(hx, "x")
            s = (
                f"let ⟨{xv}, {x}⟩ = {_ptt(scrut, venv, tenv, names, 0)} in "
                f"{_ptt(body, (x,) + venv, (xv,) + tenv, names, 0)}"
            )
            return f"({s})" if prec > 0 else s
    raise TypeError(t)


# ---------------------------------------------------------------------------
# S-expression interchange.  Tags match the constructor names; binders
# are exported nameful with their display hints.


def _atom(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def sexpr_mu_type(ty: mt.MuType, env: tuple[str, ...] = ()) -> str:
    match ty:
        case mt.TVar(n):
            return f"(tvar {_atom(n)})"
        case mt.TBound(k):
            return f"(tvar {_atom(env[k])})"
        case mt.Arrow(dom, cod):
            return f"(arrow {sexpr_mu_type(dom, env)} {sexpr_mu_type(cod, env)})"
        case mt.Forall(hint, body):
            x = _fresh_display(hint or "X", env, mt.ftv(body))
            return f"(forall {_atom(x)} {sexpr_mu_type(body, (x,) + env)})"
    raise TypeError(ty)


def sexpr_mu_term(t: tm.MuTerm, venv=(), tenv=(), nenv=()) -> str:
    match t:
        case tm.Var(n):
            return f"(var {_atom(n)})"
        case tm.BVar(k):
            return f"(var {_atom(venv[k])})"
        case tm.Lam(hint, ann, body):
            x = _fresh_display(hint or "x", venv, tm.fv(body))
            return f"(lam {_atom(x)} {sexpr_mu_type(ann, tenv)} {sexpr_mu_term(body, (x,) + venv, tenv, nenv)})"
        case tm.App(fn, arg):
            return f"(app {sexpr_mu_term(fn, venv, tenv, nenv)} {sexpr_mu_term(arg, venv, tenv, nenv)})"
        case tm.TyLam(hint, body):
            x = _fresh_display(hint or "X", tenv, tm.ftv_term(body))
            return f"(tylam {_atom(x)} {sexpr_mu_term(body, venv, (x,) + tenv, nenv)})"
        case tm.TyApp(fn, ty):
            return f"(tyapp {sexpr_mu_term(fn, venv, tenv, nenv)} {sexpr_mu_type(ty, tenv)})"
        case tm.Mu(hint, ann, target, body):
            a = _fresh_display(hint or "a", nenv, tm.fn(t))
            nenv2 = (a,) + nenv
            tname = nenv2[target.index] if isinstance(target, tm.BName) else target.name
            return (
                f"(mu {_atom(a)} {sexpr_mu_type(ann, tenv)} {_atom(tname)} "
                f"{sexpr_mu_term(body, venv, tenv, nenv2)})"
            )
    raise TypeError(t)


def sexpr_target_type(ty: tt.TargetType, env=()) -> str:
    match ty:
        case tt.TgVarT(n):
            return f"(tvar {_atom(n)})"
        case tt.TgBoundT(k):
            return f"(tvar {_atom(env[k])})"
        case tt.RType():
            return "(r)"
        case tt.Neg(body):
            return f"(neg {sexpr_target_type(body, env)})"
        case tt.Conj(left, right):
            return f"(conj {sexpr_target_type(left, env)} {sexpr_target_type(right, env)})"
        case tt.Exists(hint, body):
            x = _fresh_display(hint or "X", env, tt.ftv(body))
            return f"(exists {_atom(x)} {sexpr_target_type(body, (x,) + env)})"
    raise TypeError(ty)


def sexpr_target_term(t: tg.TargetTerm, venv=(), tenv=()) -> str:
    match t:
        case tg.TgVar(n):
            return f"(var {_atom(n)})"
        case tg.TgBVar(k):
            return f"(var {_atom(venv[k])})"
        case tg.Star():
            return "(star)"
        case tg.TgLam(hint, ann, body):
            x = _fresh_display(hint or "x", venv, tg.free_vars(body))
            return f"(lam {_atom(x)} {sexpr_target_type(ann, tenv)} {sexpr_target_term(body, (x,) + venv, tenv)})"
        case tg.TgApp(fn, arg):
            return f"(app {sexpr_target_term(fn, venv, tenv)} {sexpr_target_term(arg, venv, tenv)})"
        case tg.Pair(left, right):
            return f"(pair {sexpr_target_term(left, venv, tenv)} {sexpr_target_term(right, venv, tenv)})"
        case tg.Pack(w, payload, ex):
            return (
                f"(pack {sexpr_target_type(w, tenv)} {sexpr_target_term(payload, venv, tenv)} "
                f"{sexpr_target_type(ex, tenv)})"
            )
        case tg.LetPair(hx, hy, scrut, body):
            used = tg.free_vars(body)
            x = _fresh_display(hx or "x", venv, used)
            y = _fresh_display(hy or "y", (x,) + venv, used)
            return (
                f"(letpair {_atom(x)} {_atom(y)} {sexpr_target_term(scrut, venv, tenv)} "
                f"{sexpr_target_term(body, (y, x) + venv, tenv)})"
            )
        case tg.LetPack(ht, hx, scrut, body):
            xv = _fresh_display(ht or "X", tenv, tg.free_tvars(body))
            x = _fresh_display(hx or "x", venv, tg.free_vars(body))
            return (
                f"(letpack {_atom(xv)} {_atom(x)} {sexpr_target_term(scrut, venv, tenv)} "
                f"{sexpr_target_term(body, (x,) + venv, (xv,) + tenv)})"
            )
    raise TypeError(t)


# ---------------------------------------------------------------------------
# S-expression reader


class SexprError(Exception):
    pass


def _tokenize_sexpr(text: str):
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            yield ch
            i += 1
        elif ch == '"':
            j = i + 1
            out = []
            while j < n and text[j] != '"':
                if text[j] == "\\":
                    j += 1
                out.append(text[j])
                j += 1
            if j >= n:
                raise SexprError("unterminated string")
            yield ("str", "".join(out))
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "()":
                j += 1
            yield ("sym", text[i:j])
            i = j


def parse_sexpr(text: str):
    tokens = list(_tokenize_sexpr(text))
    pos = 0

    def walk():
        nonlocal pos
        if pos >= len(tokens):
            raise SexprError("unexpected end of input")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            items = []
            while pos < len(tokens) and tokens[pos] != ")":
                items.append(walk())
            if pos >= len(tokens):
                raise SexprError("missing closing parenthesis")
            pos += 1
            return items
        if tok == ")":
            raise SexprError("unexpected )")
        return tok

    out = walk()
    if pos != len(tokens):
        raise SexprError("trailing input")
    return out


def _sym(node) -> str:
    if isinstance(node, tuple):
        return node[1]
    raise SexprError(f"expected an atom, got {node}")


def mu_type_from_sexpr(node) -> mt.MuType:
    tag = _sym(node[0])
    if tag == "tvar":
        return mt.TVar(_sym(node[1]))
    if tag == "arrow":
        return mt.Arrow(mu_type_from_sexpr(node[1]), mu_type_from_sexpr(node[2]))
    if tag == "forall":
        x = _sym(node[1])
        return mt.forall(x, mu_type_from_sexpr(node[2]))
    raise SexprError(f"unknown type tag {tag}")


def mu_term_from_sexpr(node) -> tm.MuTerm:
    tag = _sym(node[0])
    if tag == "var":
        return tm.Var(_sym(node[1]))
    if tag == "lam":
        return tm.lam(_sym(node[1]), mu_type_from_sexpr(node[2]), mu_term_from_sexpr(node[3]))
    if tag == "app":
        return tm.App(mu_term_from_sexpr(node[1]), mu_term_from_sexpr(node[2]))
    if tag == "tylam":
        return tm.tylam(_sym(node[1]), mu_term_from_sexpr(node[2]))
    if tag == "tyapp":
        return tm.TyApp(mu_term_from_sexpr(node[1]), mu_type_from_sexpr(node[2]))
    if tag == "mu":
        return tm.mu(
            _sym(node[1]),
            mu_type_from_sexpr(node[2]),
            _sym(node[3]),
            mu_term_from_sexpr(node[4]),
        )
    raise SexprError(f"unknown term tag {tag}")


def target_type_from_sexpr(node) -> tt.TargetType:
    tag = _sym(node[0])
    if tag == "tvar":
        return tt.TgVarT(_sym(node[1]))
    if tag == "r":
        return tt.R
    if tag == "neg":
        return tt.Neg(target_type_from_sexpr(node[1]))
    if tag == "conj":
        return tt.Conj(target_type_from_sexpr(node[1]), target_type_from_sexpr(node[2]))
    if tag == "exists":
        return tt.exists(_sym(node[1]), target_type_from_sexpr(node[2]))
    raise SexprError(f"unknown target type tag {tag}")


def target_term_from_sexpr(node) -> tg.TargetTerm:
    return tg.close_binders(_nameful_target_term(node))


def _nameful_target_term(node) -> tg.TargetTerm:
    tag = _sym(node[0])
    if tag == "var":
        return tg.TgVar(_sym(node[1]))
    if tag == "star":
        return tg.STAR
    if tag == "lam":
        return tg.TgLam(
            _sym(node[1]), target_type_from_sexpr(node[2]), _nameful_target_term(node[3])
        )
    if tag == "app":
        return tg.TgApp(_nameful_target_term(node[1]), _nameful_target_term(node[2]))
    if tag == "pair":
        return tg.Pair(_nameful_target_term(node[1]), _nameful_target_term(node[2]))
    if tag == "pack":
        return tg.Pack(
            target_type_from_sexpr(node[1]),
            _nameful_target_term(node[2]),
            target_type_from_sexpr(node[3]),
        )
    if tag == "letpair":
        return tg.LetPair(
            _sym(node[1]),
            _sym(node[2]),
            _nameful_target_term(node[3]),
            _nameful_target_term(node[4]),
        )
    if tag == "letpack":
        return tg.LetPack(
            _sym(node[1]),
            _sym(node[2]),
            _nameful_target_term(node[3]),
            _nameful_target_term(node[4]),
        )
    raise SexprError(f"unknown target term tag {tag}")
