"""Focality: certificate extraction and the repeatable/discardable checks.

A map f : s1 -> s2 is focal when it is an algebra morphism for the
double-negation monad.  Operationally we canonicalise the image of
f x for a fresh x; when the answer spine is x applied to a continuation
built over a single, spine-positioned occurrence of the result
continuation k, that continuation transformer g (with k : s2deg |- g :
s1deg) certifies focality.

The extractor is deliberately conservative: a transformer that uses k
non-linearly or buries it inside a program component is rejected even
though such factorisations exist (the Peirce combinator produces one),
so NoCertificate is inconclusive rather than a disproof.

`check_focal` hands the nameful image of f x to
`canonicalize_nameful` and closes only its canonical form.
"""

from __future__ import annotations

from . import mu_types as mt
from . import mu_terms as tm
from . import target_terms as tg
from . import target_types as tt
from .canonical import EqVerdict, canonicalize_nameful
from .combinators import abort, compose, dne, peirce
from .cps import cps_context, cps_type, translate
from .mu_typing import Context, MuTypeError, typecheck_mu
from .record import field, record
from .rewrite import RewriteStep
from .target_typing import PLAIN, typecheck_target
from .theory import LAMBDA_MU_2P, eq_mu


@record
class FocalityCertificate:
    subject: tm.MuTerm
    source: mt.MuType
    target: mt.MuType
    hole: str = field(compare=False)
    transformer: tg.TargetTerm  # k : target-deg |- g : source-deg, k named `hole`
    evidence: tg.TargetTerm  # canonical form of the image of f x
    trace: tuple[RewriteStep, ...] = field(default=(), compare=False)


@record
class NoCertificate:
    subject: tm.MuTerm
    reason: str

    def __bool__(self) -> bool:
        return False


def check_focal(
    f: tm.MuTerm,
    s1: mt.MuType,
    s2: mt.MuType,
    gamma: Context = (),
    delta: Context = (),
) -> FocalityCertificate | NoCertificate:
    """Try to extract a continuation transformer certifying focality."""
    fty = typecheck_mu(gamma, delta, f)
    if fty != mt.Arrow(s1, s2):
        # imported where used, as in certificate_to_dict: perfbench's tracer wraps
        # a module-level name, which would add this module's printing to its counts
        from .printer import print_mu_type

        want = print_mu_type(mt.Arrow(s1, s2))
        raise MuTypeError(f"subject has type {print_mu_type(fty)}, expected {want}")
    x = tm.fresh("x")
    image, _ = translate(gamma + ((x, s1),), delta, tm.App(f, tm.Var(x)))
    form = canonicalize_nameful(image, None, PLAIN, cps_context(gamma + ((x, s1),), delta))
    term = form.term
    k = tm.fresh("k")
    if term == tg.TgVar(x):
        # identity-like subject; the eta-expanded spine is  lam k. x k
        evidence = tg.TgLam(k, form.type.body, tg.TgApp(tg.TgVar(x), tg.TgBVar(0)))
        cert = FocalityCertificate(f, s1, s2, k, tg.TgVar(k), evidence, form.trace)
        validate_certificate(cert, x, gamma, delta)
        return cert
    if not isinstance(term, tg.TgLam):
        from .printer import print_target_term

        return NoCertificate(f, f"canonical image is not an abstraction: {print_target_term(term)}")
    body = tg.open_var(term.body, k)
    if not (isinstance(body, tg.TgApp) and body.fn == tg.TgVar(x)):
        return NoCertificate(f, "answer spine is not the subject's argument")
    g = body.arg
    if x in tg.free_vars(g):
        return NoCertificate(f, "argument occurs inside its own continuation")
    if not _linear_spine(g, k):
        return NoCertificate(
            f, "continuation transformer uses the result continuation non-linearly"
        )
    cert = FocalityCertificate(f, s1, s2, k, g, term, form.trace)
    validate_certificate(cert, x, gamma, delta)
    return cert


def validate_certificate(
    cert: FocalityCertificate,
    argument: str,
    gamma: Context = (),
    delta: Context = (),
) -> None:
    """Re-typecheck the evidence and reproduce the factorisation.

    The evidence must check at not s2deg with the subject's argument at
    not s1deg in context, and its body must be exactly the argument
    applied to the transformer.  Failures raise (bug sentinel)."""
    ev = cert.evidence
    tctx = cps_context(gamma + ((argument, cert.source),), delta)
    got = typecheck_target(tctx, ev)
    want = tt.Neg(cps_type(cert.target))
    if got != want:
        from .printer import print_target_type

        shown = f"{print_target_type(got)}, expected {print_target_type(want)}"
        raise MuTypeError(f"evidence checks at {shown}")
    if not isinstance(ev, tg.TgLam):
        raise MuTypeError("evidence is not an abstraction")
    k = tm.fresh("k")
    body = tg.open_var(ev.body, k)
    expected = tg.TgApp(tg.TgVar(argument), tg.subst_var(cert.transformer, cert.hole, tg.TgVar(k)))
    if body != expected:
        raise MuTypeError("evidence body does not reproduce the factorisation")


def _linear_spine(g: tg.TargetTerm, k: str) -> bool:
    """k occurs exactly once, threaded through continuation positions
    only.  k is a free atom, so a let's body is read unopened: its
    dangling indices are never k."""
    if g == tg.TgVar(k):
        return True
    match g:
        case tg.Pair(left, right):
            return k not in tg.free_vars(left) and _linear_spine(right, k)
        case tg.Pack(_, payload, _):
            return _linear_spine(payload, k)
        case tg.LetPair(_, _, scrut, body) | tg.LetPack(_, _, scrut, body):
            return k not in tg.free_vars(scrut) and _linear_spine(body, k)
        case _:
            return False


def check_discardable(
    f: tm.MuTerm,
    s1: mt.MuType,
    s2: mt.MuType,
    theory: str = LAMBDA_MU_2P,
    gamma: Context = (),
    delta: Context = (),
) -> EqVerdict:
    """f . abort_{s1} = abort_{s2}."""
    lhs = compose(f, abort(s1), mt.BOT)
    return eq_mu(lhs, abort(s2), theory, gamma, delta)


def check_repeatable(
    f: tm.MuTerm,
    s1: mt.MuType,
    s2: mt.MuType,
    s3: mt.MuType | None = None,
    theory: str = LAMBDA_MU_2P,
    gamma: Context = (),
    delta: Context = (),
) -> EqVerdict:
    """The Peirce naturality square at a schematic instance type s3."""
    if s3 is None:
        s3 = mt.TVar("s3")
    u, h, x = tm.fresh("u"), tm.fresh("h"), tm.fresh("x")
    u_ty = mt.Arrow(mt.Arrow(s1, s3), s1)
    lhs = tm.lam(u, u_ty, tm.App(f, tm.App(peirce(s1, s3), tm.Var(u))))
    mapped = tm.lam(
        h,
        mt.Arrow(s2, s3),
        tm.App(
            f,
            tm.App(
                tm.Var(u),
                tm.lam(x, s1, tm.App(tm.Var(h), tm.App(f, tm.Var(x)))),
            ),
        ),
    )
    rhs = tm.lam(u, u_ty, tm.App(peirce(s2, s3), mapped))
    return eq_mu(lhs, rhs, theory, gamma, delta)


def check_naturality_square(
    cert: FocalityCertificate,
    subject: str,
    theory: str = LAMBDA_MU_2P,
    gamma: Context = (),
    delta: Context = (),
    **kw,
) -> EqVerdict:
    """Instantiate a naturality square for a certified map.

    subject "C" is the double-negation square (focality itself), "P" the
    Peirce square (repeatability), and "fold" the mediating-map square
    for an algebra pair (pass scheme=, alg_a=, alg_b=; the premise
    square must hold at the instance)."""
    f, s1, s2 = cert.subject, cert.source, cert.target
    if subject == "C":
        k = tm.fresh("k")
        kty = mt.neg(mt.neg(s1))
        h, x = tm.fresh("h"), tm.fresh("x")
        lhs = tm.App(f, tm.App(dne(s1), tm.Var(k)))
        lifted = tm.lam(
            h,
            mt.neg(s2),
            tm.App(tm.Var(k), tm.lam(x, s1, tm.App(tm.Var(h), tm.App(f, tm.Var(x))))),
        )
        rhs = tm.App(dne(s2), lifted)
        return eq_mu(lhs, rhs, theory, gamma + ((k, kty),), delta)
    if subject == "P":
        return check_repeatable(f, s1, s2, None, theory, gamma, delta)
    if subject == "fold":
        premise, conclusion = check_fold_square(
            kw["scheme"], f, kw["alg_a"], kw["alg_b"], s1, s2, theory, gamma, delta
        )
        if not premise.equal:
            raise ValueError("fold square premise does not hold at this instance")
        return conclusion
    raise ValueError(f"unknown naturality subject {subject!r}")


def check_fold_square(
    scheme,
    h: tm.MuTerm,
    alg_a: tm.MuTerm,
    alg_b: tm.MuTerm,
    s1: mt.MuType,
    s2: mt.MuType,
    theory: str = LAMBDA_MU_2P,
    gamma: Context = (),
    delta: Context = (),
) -> tuple[EqVerdict, EqVerdict]:
    """Premise h . a = b . F[h] and conclusion h . fold a = fold b."""
    from .combinators import fold_comb, functorial_action, mu_fix_type

    premise_lhs = compose(h, alg_a, scheme.apply(s1))
    action = functorial_action(scheme, h, s1, s2)
    premise_rhs = compose(alg_b, action, scheme.apply(s1))
    premise = eq_mu(premise_lhs, premise_rhs, theory, gamma, delta)
    fix = mu_fix_type(scheme)
    concl_lhs = compose(h, tm.App(fold_comb(scheme, s1), alg_a), fix)
    concl_rhs = tm.App(fold_comb(scheme, s2), alg_b)
    conclusion = eq_mu(concl_lhs, concl_rhs, theory, gamma, delta)
    return premise, conclusion


def certificate_to_dict(cert: FocalityCertificate) -> dict:
    """Serialisable view: subject, type pair, transformer, evidence trace."""
    from .printer import Names, print_mu_term, print_mu_type, print_target_term

    display = Names()
    rename = {
        atom: display.bind(atom, "")
        for atom in sorted(tg.free_vars(cert.transformer) | tg.free_vars(cert.evidence) | {cert.hole})
    }
    return {
        "subject": print_mu_term(cert.subject),
        "source": print_mu_type(cert.source),
        "target": print_mu_type(cert.target),
        "hole": rename.get(cert.hole, cert.hole),
        "transformer": print_target_term(cert.transformer, rename),
        "evidence": print_target_term(cert.evidence, rename),
        "trace": [s.render() for s in cert.trace],
    }
