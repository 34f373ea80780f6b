"""Call-by-name CPS translation into the target calculus.

Types:   X deg = X,  (s1 -> s2) deg = not s1deg /\\ s2deg,
         (forall X. s) deg = exists X. sdeg.
Terms:   a subject M : sigma translates to [[M]] : not sigmadeg, with
         free term variables x : sigma becoming x : not sigmadeg and
         names a : sigma becoming target variables a : sigmadeg.

The translation is defined on typing derivations, so it is a builder
over mu_typing's walk: `_Image` gives the image of each typing clause,
and the walk checks the clause and draws its binders' atoms.
`translate` returns the image in the kernel's nameful form (see
`target_terms`): its binder atoms are unique, and `theory.eq_mu` hands
it straight to the equality decision.  `cps_term_typed` and `cps_term`
close it once, for callers that print or compare it.  An ill-typed
subject raises the typechecker's own errors.
"""

from __future__ import annotations

from . import mu_types as mt
from . import mu_terms as tm
from . import target_types as tt
from . import target_terms as tg
from .mu_typing import Context, MuJudgement, _synth, check_contexts
from .record import record
from .target_typing import TgContext, typecheck_nameful


class SoundnessViolation(Exception):
    """Bug sentinel: the translation of a derivable judgement failed to check."""


def cps_type(ty: mt.MuType) -> tt.TargetType:
    match ty:
        case mt.TVar(n):
            return tt.TgVarT(n)
        case mt.TBound(k):
            return tt.TgBoundT(k)
        case mt.Arrow(dom, cod):
            return tt.Conj(tt.Neg(cps_type(dom)), cps_type(cod))
        case mt.Forall(hint, body):
            return tt.Exists(hint, cps_type(body))
    raise TypeError(ty)


def cps_context(gamma: Context, delta: Context) -> TgContext:
    """The translated context: variables at not sigmadeg, names at sigmadeg."""
    out = tuple((x, tt.Neg(cps_type(s))) for x, s in gamma)
    out += tuple((a, cps_type(s)) for a, s in delta)
    return out


def cps_term(judgement: MuJudgement) -> tg.TargetTerm:
    return _closed(judgement.gamma, judgement.delta, judgement.subject)


def cps_term_typed(gamma: Context, delta: Context, subject: tm.MuTerm) -> tuple[tg.TargetTerm, mt.MuType]:
    image, ty = translate(gamma, delta, subject)
    return tg.close_binders(image), ty


def translate(gamma: Context, delta: Context, term: tm.MuTerm) -> tuple[tg.TargetTerm, mt.MuType]:
    """The nameful image of term and term's type."""
    check_contexts(gamma, delta)
    return _synth(gamma, delta, term, _Image())


def _closed(gamma: Context, delta: Context, term: tm.MuTerm) -> tg.TargetTerm:
    return tg.close_binders(translate(gamma, delta, term)[0])


class _Image:
    """The nameful image (see target_terms.close_binders) of each typing
    clause, given the images of its parts and the clause's type.  The
    walk draws the atoms of the source binders; each method draws its
    own k and z.  Each source type object is translated once per
    translation: the memo holds it beside its image, keyed by identity,
    so the walk's nested Arrow(ann, ty) costs one node per clause."""

    def __init__(self):
        self.types: dict[int, tuple[mt.MuType, tt.TargetType]] = {}

    def type(self, ty: mt.MuType) -> tt.TargetType:
        hit = self.types.get(id(ty))
        if hit is not None:
            return hit[1]
        cls = ty.__class__
        if cls is mt.Arrow:
            out = tt.Conj(tt.Neg(self.type(ty.dom)), self.type(ty.cod))
        elif cls is mt.Forall:
            out = tt.Exists(ty.hint, self.type(ty.body))
        else:
            out = cps_type(ty)
        self.types[id(ty)] = (ty, out)
        return out

    def var(self, x):
        return tg.TgVar(x)

    def app(self, fn, arg, ty):  # lam k. fn <arg, k>
        k = tm.fresh("k")
        return tg.TgLam(k, self.type(ty), tg.TgApp(fn, tg.Pair(arg, tg.TgVar(k))))

    def lam(self, x, body, ty):  # lam z. let <x, k> = z in body k
        z, k = tm.fresh("z"), tm.fresh("k")
        return tg.TgLam(z, self.type(ty), tg.LetPair(x, k, tg.TgVar(z), tg.TgApp(body, tg.TgVar(k))))

    def tylam(self, x, body, ty):  # lam z. let <X, k> = z in body k
        z, k = tm.fresh("z"), tm.fresh("k")
        return tg.TgLam(z, self.type(ty), tg.LetPack(x, k, tg.TgVar(z), tg.TgApp(body, tg.TgVar(k))))

    def tyapp(self, fn, fn_ty, arg, ty):  # lam k. fn <argdeg, k>
        k = tm.fresh("k")
        pack = tg.Pack(self.type(arg), tg.TgVar(k), self.type(fn_ty))
        return tg.TgLam(k, self.type(ty), tg.TgApp(fn, pack))

    def mu(self, a, body, name, ty):  # lam a. body name
        return tg.TgLam(a, self.type(ty), tg.TgApp(body, tg.TgVar(name)))


@record
class SoundnessReport:
    judgement: MuJudgement
    source_type: mt.MuType
    target_type: tt.TargetType


def check_type_soundness(judgement: MuJudgement) -> SoundnessReport:
    """Re-derive the translated judgement with the target typechecker;
    the translation's walk is the one typing of the subject."""
    image, source_type = translate(judgement.gamma, judgement.delta, judgement.subject)
    judgement.agree(source_type)
    tctx = cps_context(judgement.gamma, judgement.delta)
    target_type = typecheck_nameful(tctx, image)
    expected = tt.Neg(cps_type(source_type))
    if target_type != expected:
        raise SoundnessViolation(
            f"translation of {judgement.subject} has type {target_type}, expected {expected}"
        )
    return SoundnessReport(judgement, source_type, target_type)


@record
class SubstLemmaReport:
    lemma: str
    holds: bool
    left: object
    right: object


def check_subst_type_in_type(sigma: mt.MuType, x: str, tau: mt.MuType) -> SubstLemmaReport:
    """(sigma[tau/X])deg == sigmadeg[taudeg/X], syntactically."""
    left = cps_type(mt.subst_tvar(sigma, x, tau))
    right = tt.subst_tvar(cps_type(sigma), x, cps_type(tau))
    return SubstLemmaReport("type-in-type", left == right, left, right)


def check_subst_term_in_term(
    gamma: Context, delta: Context, m: tm.MuTerm, x: str, n: tm.MuTerm
) -> SubstLemmaReport:
    """[[M[N/x]]] == [[M]][[[N]]/x], syntactically (up to alpha)."""
    gamma_no_x = tuple((v, s) for v, s in gamma if v != x)
    left = _closed(gamma_no_x, delta, tm.subst_term(m, x, n))
    tm_m = _closed(gamma, delta, m)
    tm_n = _closed(gamma_no_x, delta, n)
    right = tg.subst_var(tm_m, x, tm_n)
    return SubstLemmaReport("term-in-term", left == right, left, right)


def check_subst_type_in_term(
    gamma: Context, delta: Context, m: tm.MuTerm, x: str, sigma: mt.MuType
) -> SubstLemmaReport:
    """[[M[sigma/X]]] == [[M]][sigmadeg/X], syntactically (up to alpha)."""
    gamma_s = tuple((v, mt.subst_tvar(s, x, sigma)) for v, s in gamma)
    delta_s = tuple((a, mt.subst_tvar(s, x, sigma)) for a, s in delta)
    left = _closed(gamma_s, delta_s, tm.subst_type(m, x, sigma))
    tm_m = _closed(gamma, delta, m)
    right = tg.subst_tvar_term(tm_m, x, cps_type(sigma))
    return SubstLemmaReport("type-in-term", left == right, left, right)
