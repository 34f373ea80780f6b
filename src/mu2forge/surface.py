"""Surface syntax for both calculi.

ASCII spellings:  \\x:t. M,  /\\X. M,  M N,  M [t],  mu a:t. [b] M,
mu* a:t. M (bold mu),  [b] M (named term),  bot,  not t,  forall X. t,
t -> t;  target adds  R,  t /\\ t,  exists X. t,  <M, N>,  <t | M>
(pack, optionally <t | M : T> with its existential type, which
target_typing.resolve_nameful infers when it is left out),  let <x,y> =
M in N,  let <X,x> = M in N (pack elimination when the first binder is
capitalised),  * (Star).  The printers' UTF-8 spellings are accepted as
synonyms, so parse(print(t)) = t.
"""

from __future__ import annotations

from functools import partial

from . import mu_terms as tm
from . import mu_types as mt
from . import target_terms as tg
from . import target_types as tt
from .record import record


class MuParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


_UNICODE = {
    "λ": "\\",
    "Λ": "/\\",
    "μ": "mu",
    "∀": "forall",
    "∃": "exists",
    "¬": "not",
    "⊥": "bot",
    "→": "->",
    "⇒": "->",
    "∧": "/\\",
    "⟨": "<",
    "⟩": ">",
    "⋆": "*",
}

_PUNCT = ("/\\", "->", "\\", ".", ":", "(", ")", "[", "]", "<", ">", ",", "|", "*", "=")


@record
class Token:
    kind: str  # "ident" | "punct"
    text: str
    line: int
    col: int
    end_col: int = 0


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch in _UNICODE:
            rep = _UNICODE[ch]
            kind = "ident" if rep.isalpha() else "punct"
            tokens.append(Token(kind, rep, line, col, col + 1))
            i += 1
            col += 1
            continue
        matched = None
        for p in _PUNCT:
            if text.startswith(p, i):
                matched = p
                break
        if matched:
            tokens.append(Token("punct", matched, line, col, col + len(matched)))
            i += len(matched)
            col += len(matched)
            continue
        if ch.isalnum() or ch in "_'":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, col, col + (j - i)))
            col += j - i
            i = j
            continue
        raise MuParseError(f"unexpected character {ch!r}", line, col)
    # merge an adjacent  mu *  into the bold-mu keyword
    out: list[Token] = []
    k = 0
    while k < len(tokens):
        t = tokens[k]
        if (
            t.kind == "ident"
            and t.text == "mu"
            and k + 1 < len(tokens)
            and tokens[k + 1].text == "*"
            and tokens[k + 1].line == t.line
            and tokens[k + 1].col == t.end_col
        ):
            out.append(Token("ident", "mu*", t.line, t.col, tokens[k + 1].end_col))
            k += 2
        else:
            out.append(t)
            k += 1
    return out


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self._separators: dict[int, str | None] | None = None

    def separators(self) -> dict[int, str | None]:
        """The separator of each ``<`` token, by token index: the first
        ``,`` or ``|`` at the depth just inside it, or None when a ``>``
        at that depth comes first (a ``<`` missing here has neither).
        Any of ``( < [`` opens a level and any of ``) > ]`` closes one,
        matched or not.  One pass finds them all: each ``<`` waits at its
        inner depth until a ``, | >`` at that depth settles it."""
        if self._separators is None:
            found: dict[int, str | None] = {}
            waiting: dict[int, list[int]] = {}
            depth = 0
            for k, t in enumerate(self.tokens):
                if t.text in (">", ",", "|") and depth in waiting:
                    for opened in waiting.pop(depth):
                        found[opened] = None if t.text == ">" else t.text
                if t.text in ("(", "<", "["):
                    depth += 1
                    if t.text == "<":
                        waiting.setdefault(depth, []).append(k)
                elif t.text in (")", ">", "]"):
                    depth -= 1
            self._separators = found
        return self._separators

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise self.eof("unexpected end of input")
        self.pos += 1
        return tok

    def eof(self, message: str) -> MuParseError:
        last = self.tokens[-1] if self.tokens else Token("punct", "", 1, 1, 1)
        return MuParseError(message, last.line, last.end_col or last.col)

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise MuParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.text == text

    def ident(self) -> str:
        tok = self.next()
        if tok.kind != "ident" or tok.text in (
            "mu", "mu*", "let", "in", "not", "bot", "forall", "exists",
        ):
            raise MuParseError(f"expected an identifier, found {tok.text!r}", tok.line, tok.col)
        return tok.text

    def done(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise MuParseError(f"trailing input at {tok.text!r}", tok.line, tok.col)


# ---------------------------------------------------------------------------
# Source types


def _mu_type(p: _Parser) -> mt.MuType:
    left = _mu_type_atom(p)
    if p.at("->"):
        p.next()
        return mt.Arrow(left, _mu_type(p))
    return left


def _mu_type_atom(p: _Parser) -> mt.MuType:
    tok = p.peek()
    if tok is None:
        raise p.eof("expected a type")
    if tok.text == "bot":
        p.next()
        return mt.BOT
    if tok.text == "not":
        p.next()
        return mt.neg(_mu_type_atom(p))
    if tok.text == "forall":
        p.next()
        x = p.ident()
        p.expect(".")
        return mt.forall(x, _mu_type(p))
    if tok.text == "(":
        p.next()
        ty = _mu_type(p)
        p.expect(")")
        return ty
    if tok.kind == "ident":
        p.next()
        return mt.TVar(tok.text)
    raise MuParseError(f"expected a type, found {tok.text!r}", tok.line, tok.col)


def parse_mu_type(text: str) -> mt.MuType:
    p = _Parser(text)
    ty = _mu_type(p)
    p.done()
    return ty


# ---------------------------------------------------------------------------
# Source terms


# The term parsers climb precedence over an explicit stack of what waits
# for the subterm being read: a constructor that takes it as its last
# field (a binder's body, an application's binder-term argument, a let's
# body), None for an open parenthesis, a 1-tuple (function,) for an
# application whose atom argument is being read, or a tagged tuple for
# the parts of a target bracket or let.  A term ends where its
# application does, so nesting costs no Python frames.

_MU_STOP = ("mu", "mu*", "let", "not", "bot", "forall", "exists")


def _mu_term(p: _Parser) -> tm.MuTerm:
    waiting: list = []
    while True:
        tok = p.peek()
        if tok is None:
            raise p.eof("expected a term")
        if tok.text in ("\\", "/\\", "mu", "mu*", "["):
            waiting.append(_mu_binder(p))
            continue
        tok = p.next()
        if tok.text == "(":
            waiting.append(None)
            continue
        if tok.kind != "ident":
            raise MuParseError(f"expected a term, found {tok.text!r}", tok.line, tok.col)
        term = tm.Var(tok.text)
        while True:  # term is an atom
            if waiting and waiting[-1].__class__ is tuple:
                term = tm.App(waiting.pop()[0], term)
            term = _mu_app(p, term, waiting)
            if term is None:
                break  # a subterm starts
            while waiting and waiting[-1] is not None:
                term = waiting.pop()(term)
            if not waiting:
                return term
            waiting.pop()
            p.expect(")")


def _mu_binder(p: _Parser):
    """Read a binder's header; the nameful constructor that waits for its
    body.  The named term's binder is a fresh atom, bound nowhere."""
    tok = p.next()
    if tok.text == "[":
        b = p.ident()
        p.expect("]")
        return partial(tm.Mu, tm.fresh("_"), mt.BOT, tm.FName(b))
    x = p.ident()
    if tok.text == "/\\":
        p.expect(".")
        return partial(tm.TyLam, x)
    p.expect(":")
    ann = _mu_type(p)
    p.expect(".")
    if tok.text == "\\":
        return partial(tm.Lam, x, ann)
    if tok.text == "mu*":
        return lambda body: tm.Mu(x, ann, tm.FName(x), tm.TyApp(body, ann))
    p.expect("[")
    b = p.ident()
    p.expect("]")
    return partial(tm.Mu, x, ann, tm.FName(b))


def _mu_app(p: _Parser, term: tm.MuTerm, waiting: list) -> tm.MuTerm | None:
    """Apply term to the arguments that follow; None, with what waits
    pushed, when an argument that is a subterm starts."""
    while True:
        tok = p.peek()
        if tok is None:
            return term
        if tok.text == "[":
            p.next()
            ty = _mu_type(p)
            p.expect("]")
            term = tm.TyApp(term, ty)
        elif tok.text == "(" or (tok.kind == "ident" and tok.text != "in"):
            if tok.text in _MU_STOP:
                return term
            p.next()
            if tok.text == "(":
                waiting += ((term,), None)
                return None
            term = tm.App(term, tm.Var(tok.text))
        elif tok.text in ("\\", "/\\"):
            waiting.append(partial(tm.App, term))
            return None
        else:
            return term


def parse_mu_term(text: str) -> tm.MuTerm:
    p = _Parser(text)
    term = _mu_term(p)
    p.done()
    return tm.SYNTAX.close_binders(term, tm.base_name)


# ---------------------------------------------------------------------------
# Target types


def _tg_type(p: _Parser) -> tt.TargetType:
    left = _tg_type_atom(p)
    if p.at("/\\"):
        p.next()
        return tt.Conj(left, _tg_type(p))
    return left


def _tg_type_atom(p: _Parser) -> tt.TargetType:
    tok = p.peek()
    if tok is None:
        raise p.eof("expected a type")
    if tok.text == "R":
        p.next()
        return tt.R
    if tok.text == "not":
        p.next()
        return tt.Neg(_tg_type_atom(p))
    if tok.text == "exists":
        p.next()
        x = p.ident()
        p.expect(".")
        return tt.exists(x, _tg_type(p))
    if tok.text == "(":
        p.next()
        ty = _tg_type(p)
        p.expect(")")
        return ty
    if tok.kind == "ident":
        p.next()
        return tt.TgVarT(tok.text)
    raise MuParseError(f"expected a type, found {tok.text!r}", tok.line, tok.col)


def parse_target_type(text: str) -> tt.TargetType:
    p = _Parser(text)
    ty = _tg_type(p)
    p.done()
    return ty


# ---------------------------------------------------------------------------
# Target terms.  An unannotated pack carries ex_ann=None until
# target_typing.resolve_nameful types the term and fills it in.  The reader
# builds the term nameful (binders hold their source names) and closes it
# once, which resolves each occurrence of a shadowed name to its innermost
# binder; resolve_nameful then opens it to unique atoms for the kernel.


def _tg_term(p: _Parser) -> tg.TargetTerm:
    waiting: list = []
    while True:
        tok = p.peek()
        if tok is None:
            raise p.eof("expected a term")
        if tok.text == "\\":
            p.next()
            x = p.ident()
            p.expect(":")
            ann = _tg_type(p)
            p.expect(".")
            waiting.append(partial(tg.TgLam, x, ann))
            continue
        if tok.text == "let":
            p.next()
            p.expect("<")
            first = p.ident()
            p.expect(",")
            second = p.ident()
            p.expect(">")
            p.expect("=")
            waiting.append(("let", first, second))
            continue
        term = _tg_atom(p, waiting)
        while term is not None:  # term is an atom
            if waiting and waiting[-1].__class__ is tuple and len(waiting[-1]) == 1:
                term = tg.TgApp(waiting.pop()[0], term)
            term = _tg_app(p, term, waiting)
            if term is None:
                break  # a subterm starts
            while waiting and waiting[-1].__class__ is partial:
                term = waiting.pop()(term)
            if not waiting:
                return term
            term = _tg_close(p, waiting, waiting.pop(), term)


def _tg_close(p: _Parser, waiting: list, frame, term: tg.TargetTerm) -> tg.TargetTerm | None:
    """The subterm term ends what frame waited for: the atom that this
    completes, or None when another subterm starts."""
    if frame is None:
        p.expect(")")
        return term
    tag = frame[0]
    if tag == "let":
        p.expect("in")
        _, first, second = frame
        waiting.append(partial(tg.LetPack if first[:1].isupper() else tg.LetPair, first, second, term))
        return None
    if tag == "<,":
        p.expect(",")
        waiting.append(("<,>", term))
        return None
    if tag == "<,>":
        p.expect(">")
        return tg.Pair(frame[1], term)
    ex = None  # tag "<|": a pack
    if p.at(":"):
        p.next()
        ex = _tg_type(p)
    p.expect(">")
    return tg.Pack(frame[1], term, ex)  # type: ignore[arg-type]


def _tg_app(p: _Parser, term: tg.TargetTerm, waiting: list) -> tg.TargetTerm | None:
    """As _mu_app, for target terms."""
    while True:
        tok = p.peek()
        if tok is None:
            return term
        if tok.text in ("(", "<", "*") or (tok.kind == "ident" and tok.text not in ("in", "let")):
            waiting.append((term,))
            atom = _tg_atom(p, waiting)
            if atom is None:
                return None
            waiting.pop()
            term = tg.TgApp(term, atom)
            continue
        if tok.text == "\\":
            waiting.append(partial(tg.TgApp, term))
            return None
        return term


def _tg_atom(p: _Parser, waiting: list) -> tg.TargetTerm | None:
    """Read an atom; None, with what waits pushed, when it opens a subterm."""
    tok = p.next()
    if tok.text == "*":
        return tg.STAR
    if tok.text == "(":
        waiting.append(None)
        return None
    if tok.text == "<":
        # <M, N>  or  <t | M>  or  <t | M : T>, told apart by the separator
        sep = p.separators().get(p.pos - 1)
        if sep == ",":
            waiting.append(("<,", None))
            return None
        if sep == "|":
            witness = _tg_type(p)
            p.expect("|")
            waiting.append(("<|", witness))
            return None
        raise MuParseError("malformed angle-bracket form", tok.line, tok.col)
    if tok.kind == "ident":
        return tg.TgVar(tok.text)
    raise MuParseError(f"expected a term, found {tok.text!r}", tok.line, tok.col)


def parse_target_term(text: str) -> tg.TargetTerm:
    p = _Parser(text)
    term = _tg_term(p)
    p.done()
    return tg.close_binders(term)

