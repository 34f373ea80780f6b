"""Combinator catalog: classical control operators, impredicative
encodings, the polymorphic answer monad, and functorial actions.

All builders return desugared core terms; each typechecks at its
displayed type (the test suite re-derives every entry).
"""

from __future__ import annotations

from . import mu_types as mt
from . import mu_terms as tm
from .mu_terms import App, TyApp, Var, bold_mu, lam, mu, named, tylam
from .mu_types import BOT, Arrow, MuType, TVar, forall, neg
from .record import record


class ArityMismatch(Exception):
    pass


class NegativeOccurrence(Exception):
    pass


# ---------------------------------------------------------------------------
# Type formers


def l_type(sigma: MuType) -> MuType:
    """L sigma = forall X. (sigma -> X) -> X."""
    x = tm.fresh("X")
    return forall(x, Arrow(Arrow(sigma, TVar(x)), TVar(x)))


def church_type() -> MuType:
    """N = forall X. X -> (X -> X) -> X."""
    x = tm.fresh("X")
    return forall(x, Arrow(TVar(x), Arrow(Arrow(TVar(x), TVar(x)), TVar(x))))


N_TYPE = church_type()


def numeral_algebra_type(sigma: MuType) -> MuType:
    """bot -> (sigma -> bot) -> bot, the classical signature of numerals."""
    return Arrow(BOT, Arrow(neg(sigma), BOT))


# ---------------------------------------------------------------------------
# Classical combinators


def dne(sigma: MuType) -> tm.MuTerm:
    """C : not not sigma -> sigma, double-negation elimination."""
    m, a, x = tm.fresh("m"), tm.fresh("a"), tm.fresh("x")
    body = bold_mu(a, sigma, App(Var(m), lam(x, sigma, named(a, Var(x)))))
    return lam(m, neg(neg(sigma)), body)


def peirce(s1: MuType, s2: MuType) -> tm.MuTerm:
    """P : ((s1 -> s2) -> s1) -> s1."""
    m, a, b, x = tm.fresh("m"), tm.fresh("a"), tm.fresh("b"), tm.fresh("x")
    inner = lam(x, s1, mu(b, s2, a, Var(x)))
    return lam(m, Arrow(Arrow(s1, s2), s1), mu(a, s1, a, App(Var(m), inner)))


def abort(sigma: MuType) -> tm.MuTerm:
    """A : bot -> sigma, ex falso quodlibet."""
    x = tm.fresh("x")
    return lam(x, BOT, TyApp(Var(x), sigma))


def identity(sigma: MuType) -> tm.MuTerm:
    x = tm.fresh("x")
    return lam(x, sigma, Var(x))


def compose(f: tm.MuTerm, g: tm.MuTerm, s1: MuType) -> tm.MuTerm:
    """f after g as a lambda term; s1 is g's domain."""
    x = tm.fresh("x")
    return lam(x, s1, App(f, App(g, Var(x))))


# ---------------------------------------------------------------------------
# The monad L sigma = forall X. (sigma -> X) -> X


def l_eta(sigma: MuType) -> tm.MuTerm:
    x, xv, k = tm.fresh("x"), tm.fresh("X"), tm.fresh("k")
    body = tylam(xv, lam(k, Arrow(sigma, TVar(xv)), App(Var(k), Var(x))))
    return lam(x, sigma, body)


def l_mu(sigma: MuType) -> tm.MuTerm:
    z, xv, k, y = tm.fresh("z"), tm.fresh("X"), tm.fresh("k"), tm.fresh("y")
    inner = lam(y, l_type(sigma), App(TyApp(Var(y), TVar(xv)), Var(k)))
    body = tylam(
        xv,
        lam(
            k,
            Arrow(sigma, TVar(xv)),
            App(TyApp(Var(z), TVar(xv)), inner),
        ),
    )
    return lam(z, l_type(l_type(sigma)), body)


def l_map(f: tm.MuTerm, s1: MuType, s2: MuType) -> tm.MuTerm:
    y, xv, h, x = tm.fresh("y"), tm.fresh("X"), tm.fresh("h"), tm.fresh("x")
    comp = lam(x, s1, App(Var(h), App(f, Var(x))))
    body = tylam(xv, lam(h, Arrow(s2, TVar(xv)), App(TyApp(Var(y), TVar(xv)), comp)))
    return lam(y, l_type(s1), body)


def l_alpha(sigma: MuType) -> tm.MuTerm:
    y = tm.fresh("y")
    return lam(y, l_type(sigma), App(TyApp(Var(y), sigma), identity(sigma)))


# ---------------------------------------------------------------------------
# Focal decomposition


def flat(f: tm.MuTerm, s1: MuType) -> tm.MuTerm:
    """f-flat = lam x:s1. f (lam k:not s1. k x), for f : not not s1 -> s2."""
    x, k = tm.fresh("x"), tm.fresh("k")
    return lam(x, s1, App(f, lam(k, neg(s1), App(Var(k), Var(x)))))


def sharp(g: tm.MuTerm, s1: MuType, s2: MuType) -> tm.MuTerm:
    """g-sharp = lam m. mu* b:s2. m (lam x:s1. [b](g x)), focal by construction."""
    m, b, x = tm.fresh("m"), tm.fresh("b"), tm.fresh("x")
    inner = lam(x, s1, named(b, App(g, Var(x))))
    return lam(m, neg(neg(s1)), bold_mu(b, s2, App(Var(m), inner)))


# ---------------------------------------------------------------------------
# Type schemes and functorial actions


@record
class TypeScheme:
    """A type body with one distinguished free variable (the parameter)."""

    var: str
    body: MuType

    def apply(self, ty: MuType) -> MuType:
        return mt.subst_tvar(self.body, self.var, ty)

    def polarities(self) -> frozenset[int]:
        """Signs of the parameter's occurrences: +1 positive, -1 negative."""
        out: set[int] = set()

        def go(ty: MuType, sign: int) -> None:
            match ty:
                case mt.TVar(n):
                    if n == self.var:
                        out.add(sign)
                case mt.TBound(_):
                    pass
                case mt.Arrow(dom, cod):
                    go(dom, -sign)
                    go(cod, sign)
                case mt.Forall(_, body):
                    go(body, sign)

        go(self.body, +1)
        return frozenset(out)

    @property
    def is_positive(self) -> bool:
        return -1 not in self.polarities()


def functorial_action(
    scheme: TypeScheme, f: tm.MuTerm, src: MuType, dst: MuType
) -> tm.MuTerm:
    """Synthesise F[f] : F[src] -> F[dst] for f : src -> dst.

    Mixed variance is handled by simultaneous co/contravariant synthesis;
    a covariant action at a scheme with a negative parameter occurrence
    raises NegativeOccurrence.
    """
    if not scheme.is_positive:
        raise NegativeOccurrence(
            f"parameter {scheme.var} occurs negatively in {scheme.body}"
        )
    return _act(scheme.var, scheme.body, f, src, dst, positive=True)


def _act(var: str, body: MuType, f: tm.MuTerm, src: MuType, dst: MuType, positive: bool) -> tm.MuTerm:
    frm = mt.subst_tvar(body, var, src if positive else dst)
    if var not in mt.ftv(body):
        return identity(frm)
    if body == TVar(var):
        if not positive:
            raise NegativeOccurrence(var)
        return f
    match body:
        case mt.Arrow(dom, cod):
            h, s = tm.fresh("h"), tm.fresh("s")
            dom_in = mt.subst_tvar(dom, var, dst if positive else src)
            arg_act = _act(var, dom, f, src, dst, positive=not positive)
            cod_act = _act(var, cod, f, src, dst, positive=positive)
            inner = App(cod_act, App(Var(h), App(arg_act, Var(s))))
            return lam(h, frm, lam(s, dom_in, inner))
        case mt.Forall(hint, _):
            u, y = tm.fresh("u"), tm.fresh(hint or "Y")
            opened = mt.open_tvar(body.body, y)
            inner_act = _act(var, opened, f, src, dst, positive)
            return lam(u, frm, tylam(y, App(inner_act, TyApp(Var(u), TVar(y)))))
    raise NegativeOccurrence(f"cannot synthesise an action for {body}")


# ---------------------------------------------------------------------------
# Impredicative fixed points


def mu_fix_type(scheme: TypeScheme) -> MuType:
    """mu X. F[X] = forall X. (F[X] -> X) -> X."""
    x = scheme.var
    return forall(x, Arrow(Arrow(scheme.body, TVar(x)), TVar(x)))


def fold_comb(scheme: TypeScheme, sigma: MuType) -> tm.MuTerm:
    """fold = lam a:F[s]->s. lam x:mu X.F. x [s] a."""
    a, x = tm.fresh("a"), tm.fresh("x")
    alg_ty = Arrow(scheme.apply(sigma), sigma)
    return lam(
        a, alg_ty, lam(x, mu_fix_type(scheme), App(TyApp(Var(x), sigma), Var(a)))
    )


def in_comb(scheme: TypeScheme) -> tm.MuTerm:
    """in = lam y. /\\X. lam k:F[X]->X. k (F[fold [X] k] y)."""
    y, xv, k = tm.fresh("y"), tm.fresh("X"), tm.fresh("k")
    fix = mu_fix_type(scheme)
    x_ty = TVar(xv)
    fold_at_x = App(fold_comb(scheme, x_ty), Var(k))
    action = functorial_action(scheme, fold_at_x, fix, x_ty)
    body = tylam(
        xv,
        lam(
            k,
            Arrow(scheme.apply(x_ty), x_ty),
            App(Var(k), App(action, Var(y))),
        ),
    )
    return lam(y, scheme.apply(fix), body)


def in_sharp(scheme: TypeScheme) -> tm.MuTerm:
    """in-sharp = sharp(in) : not not F[mu X.F] -> mu X.F."""
    fix = mu_fix_type(scheme)
    return sharp(in_comb(scheme), scheme.apply(fix), fix)


# ---------------------------------------------------------------------------
# Church numerals and the classical numeral algebra


def church_zero() -> tm.MuTerm:
    xv, x, f = tm.fresh("X"), tm.fresh("x"), tm.fresh("f")
    return tylam(
        xv, lam(x, TVar(xv), lam(f, Arrow(TVar(xv), TVar(xv)), Var(x)))
    )


def church_succ() -> tm.MuTerm:
    n, xv, x, f = tm.fresh("n"), tm.fresh("X"), tm.fresh("x"), tm.fresh("f")
    body = App(Var(f), App(App(TyApp(Var(n), TVar(xv)), Var(x)), Var(f)))
    return lam(
        n,
        N_TYPE,
        tylam(xv, lam(x, TVar(xv), lam(f, Arrow(TVar(xv), TVar(xv)), body))),
    )


def church(n: int) -> tm.MuTerm:
    """The numeral /\\X. lam x f. f^n x."""
    if n < 0:
        raise ArityMismatch("numerals are non-negative")
    xv, x, f = tm.fresh("X"), tm.fresh("x"), tm.fresh("f")
    body: tm.MuTerm = Var(x)
    for _ in range(n):
        body = App(Var(f), body)
    return tylam(
        xv, lam(x, TVar(xv), lam(f, Arrow(TVar(xv), TVar(xv)), body))
    )


def exotic_numeral() -> tm.MuTerm:
    """mu a:N. [a] (S (mu b:N. [a] O)), a closed non-Church inhabitant."""
    a, b = tm.fresh("a"), tm.fresh("b")
    inner = mu(b, N_TYPE, a, church_zero())
    return mu(a, N_TYPE, a, App(church_succ(), inner))


def exotic_numeral_unfolded() -> tm.MuTerm:
    """/\\X. lam x f. mu a:X. [a] (f (mu b:X. [a] x))."""
    xv, x, f, a, b = (
        tm.fresh("X"),
        tm.fresh("x"),
        tm.fresh("f"),
        tm.fresh("a"),
        tm.fresh("b"),
    )
    x_ty = TVar(xv)
    inner = mu(b, x_ty, a, Var(x))
    body = mu(a, x_ty, a, App(Var(f), inner))
    return tylam(
        xv, lam(x, x_ty, lam(f, Arrow(x_ty, x_ty), body))
    )


def g_o(g: tm.MuTerm, sigma: MuType) -> tm.MuTerm:
    """g_o = g (lam x:bot. lam k:not sigma. x) : sigma."""
    x, k = tm.fresh("x"), tm.fresh("k")
    return App(g, lam(x, BOT, lam(k, neg(sigma), Var(x))))


def g_s(g: tm.MuTerm, sigma: MuType) -> tm.MuTerm:
    """g_s = lam y:sigma. g (lam x:bot. lam k:not sigma. k y)."""
    x, k, y = tm.fresh("x"), tm.fresh("k"), tm.fresh("y")
    return lam(
        y, sigma, App(g, lam(x, BOT, lam(k, neg(sigma), App(Var(k), Var(y)))))
    )


def phi(a: tm.MuTerm, f: tm.MuTerm, sigma: MuType) -> tm.MuTerm:
    """phi_{a,f} = lam m. mu* al:sigma. m ([al] a) (lam y. [al] (f y))."""
    m, al, y = tm.fresh("m"), tm.fresh("a"), tm.fresh("y")
    applied = App(App(Var(m), named(al, a)), lam(y, sigma, named(al, App(f, Var(y)))))
    return lam(m, numeral_algebra_type(sigma), bold_mu(al, sigma, applied))


def fold_numeral(g: tm.MuTerm, sigma: MuType) -> tm.MuTerm:
    """fold g = lam n:N. n [sigma] g_o g_s."""
    n = tm.fresh("n")
    return lam(
        n,
        N_TYPE,
        App(App(TyApp(Var(n), sigma), g_o(g, sigma)), g_s(g, sigma)),
    )


# ---------------------------------------------------------------------------
# Catalog


@record
class CatalogEntry:
    name: str
    term: tm.MuTerm
    type: MuType
    ref: str
    description: str


def catalog() -> list[CatalogEntry]:
    """The standard corpus; every entry's type is re-derived by the tests."""
    from .mu_typing import ctx, typecheck_mu

    a, b = TVar("a"), TVar("b")
    scheme_id = TypeScheme("X", TVar("X"))
    scheme_const = TypeScheme("X", a)
    scheme_arrow = TypeScheme("X", Arrow(a, TVar("X")))
    free_f = ctx(("f0", Arrow(a, b)))
    free_n = ctx(("n0", a))
    free_g = ctx(("g0", Arrow(numeral_algebra_type(a), a)))

    entries = [
        ("C", dne(a), (), "2.1", "double-negation elimination"),
        ("Peirce", peirce(a, b), (), "5.2", "the Peirce-law combinator"),
        ("Abort", abort(a), (), "5.2", "ex falso quodlibet"),
        ("identity", identity(a), (), "5.2", "identity map"),
        ("L-eta", l_eta(a), (), "7.1", "unit of the answer monad L"),
        ("L-mu", l_mu(a), (), "7.1", "multiplication of L"),
        ("L-map", l_map(Var("f0"), a, b), free_f, "7.1", "functorial action of L"),
        ("L-alpha", l_alpha(a), (), "7.1", "canonical L-algebra"),
        ("sharp", sharp(Var("f0"), a, b), free_f, "6.1", "focal half of the decomposition"),
        ("flat", flat(Var("f0"), neg(neg(a))), ctx(("f0", Arrow(neg(neg(neg(neg(a)))), b))), "6.1", "plain half of the decomposition"),
        ("in", in_comb(scheme_arrow), (), "6.3", "weak initial algebra map"),
        ("fold", fold_comb(scheme_arrow, b), (), "6.3", "impredicative fold"),
        ("in-sharp", in_sharp(scheme_arrow), (), "6.3", "double-negated algebra map"),
        ("in-const", in_comb(scheme_const), (), "6.3", "algebra map, constant scheme"),
        ("in-id", in_comb(scheme_id), (), "6.3", "algebra map, identity scheme"),
        ("O", church_zero(), (), "6.4", "Church zero"),
        ("S", church_succ(), (), "6.4", "Church successor"),
        ("church-2", church(2), (), "6.4", "Church numeral 2"),
        ("phi", phi(Var("n0"), Var("f1"), a), free_n + ctx(("f1", Arrow(a, a))), "6.4", "classical numeral algebra"),
        ("g_o", g_o(Var("g0"), a), free_g, "6.4", "zero component of a numeral algebra"),
        ("g_s", g_s(Var("g0"), a), free_g, "6.4", "successor component of a numeral algebra"),
        ("fold_N", fold_numeral(Var("g0"), a), free_g, "6.4", "classical numeral fold"),
        ("exotic-numeral", exotic_numeral(), (), "6.4", "non-Church closed numeral"),
    ]
    out = []
    for name, term, gamma, ref, desc in entries:
        ty = typecheck_mu(gamma, ctx(), term)
        out.append(CatalogEntry(name, term, ty, ref, desc))
    return out
