"""The acceptance corpus: one callable per criterion, shared by the CLI
`suite` subcommand and the test suite.  Every check pins its tolerance
(exact verdict match everywhere; the theory is discrete)."""

from __future__ import annotations

import os
from pathlib import Path

from . import mu_terms as tm
from . import mu_types as mt
from .canonical import canonicalize
from .combinators import (
    TypeScheme,
    abort,
    catalog,
    church,
    church_succ,
    church_zero,
    compose,
    dne,
    exotic_numeral,
    exotic_numeral_unfolded,
    flat,
    fold_comb,
    functorial_action,
    g_o,
    g_s,
    identity,
    in_comb,
    l_alpha,
    l_eta,
    l_map,
    l_mu,
    l_type,
    mu_fix_type,
    peirce,
    phi,
    sharp,
)
from .cps import (
    check_subst_term_in_term,
    check_subst_type_in_term,
    check_subst_type_in_type,
    check_type_soundness,
    cps_context,
    cps_term_typed,
)
from .focality import (
    NoCertificate,
    check_discardable,
    check_focal,
    check_repeatable,
)
from .inverse import roundtrip
from .mu_typing import MuJudgement, ctx, judge
from .record import record
from .relations import free_theorem, instantiate_graph, open_obligations, print_formula
from .target_typing import PLAIN
from .theory import (
    BETA_ETA,
    LAMBDA_MU_2P,
    GaveUp,
    additional_axiom_instances,
    check_schema,
    core_axiom_instances,
    eq_mu,
    gen_judgement,
    gen_type,
    gen_typed_term,
)

GOLDEN_DIR = Path(__file__).resolve().parents[2] / "tests" / "golden"


def golden_dir(override: str | None = None) -> Path:
    if override:
        return Path(override)
    env = os.environ.get("MU2FORGE_GOLDEN")
    return Path(env) if env else GOLDEN_DIR


@record
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


def _a(n: str) -> mt.MuType:
    return mt.TVar(n)


A, B, C = _a("a"), _a("b"), _a("c")


def criterion_1_type_soundness(seed: int = 20240, generated: int = 1000) -> CriterionResult:
    failures = []
    entries = catalog()
    for entry in entries:
        try:
            check_type_soundness(MuJudgement(_entry_gamma(entry), (), entry.term, entry.type))
        except Exception as exc:  # noqa: BLE001 - report any failure
            failures.append(f"{entry.name}: {exc}")
    count = 0
    s = seed
    while count < generated:
        try:
            gamma, delta, term, _ = gen_judgement(s, budget=6)
        except GaveUp:
            s += 1
            continue
        try:
            check_type_soundness(judge(gamma, delta, term))
        except Exception as exc:  # noqa: BLE001
            failures.append(f"seed {s}: {exc}")
        count += 1
        s += 1
    detail = f"{len(entries)} catalog terms + {generated} generated judgements"
    if failures:
        detail += "; failures: " + "; ".join(failures[:5])
    return CriterionResult(1, "type soundness of the translation", not failures, detail)


def _entry_gamma(entry):
    from .combinators import numeral_algebra_type

    frees = {
        "f0": mt.Arrow(A, B),
        "n0": A,
        "f1": mt.Arrow(A, A),
        "g0": mt.Arrow(numeral_algebra_type(A), A),
    }
    names = sorted(tm.fv(entry.term))
    special = {"flat": ctx(("f0", mt.Arrow(mt.neg(mt.neg(mt.neg(mt.neg(A)))), B)))}
    if entry.name in special:
        return special[entry.name]
    return tuple((n, frees[n]) for n in names)


def criterion_2_equational_soundness() -> CriterionResult:
    bad = []
    for inst in core_axiom_instances():
        if not check_schema(inst, BETA_ETA).equal:
            bad.append(f"core {inst.name} not Equal under BetaEta")
    for presentation, instances in additional_axiom_instances().items():
        for inst in instances:
            if not check_schema(inst, LAMBDA_MU_2P).equal:
                bad.append(f"{presentation}/{inst.name} not Equal under LambdaMu2P")
            if check_schema(inst, BETA_ETA).equal:
                bad.append(f"{presentation}/{inst.name} unexpectedly Equal under BetaEta")
    return CriterionResult(
        2,
        "equational soundness (core + additional axioms)",
        not bad,
        "; ".join(bad) if bad else "8 core schemas Equal; 3x3 additional axioms Equal-P/Distinct-BetaEta",
    )


def criterion_3_fullness() -> CriterionResult:
    bad = []
    for entry in catalog():
        gamma = _entry_gamma(entry)
        tctx = cps_context(gamma, ())
        target, _ = cps_term_typed(gamma, (), entry.term)
        form = canonicalize(target, None, PLAIN, tctx)
        if not roundtrip(form, tctx).equal:
            bad.append(entry.name)
    return CriterionResult(
        3,
        "fullness round trips on the catalog",
        not bad,
        "; ".join(bad) if bad else f"{len(catalog())} round trips Equal",
    )


def criterion_4_subst_lemmas(seed: int = 77, per_lemma: int = 200) -> CriterionResult:
    import random

    bad = []
    rng = random.Random(seed)
    for i in range(per_lemma):
        sigma = gen_type(rng, 3)
        tau = gen_type(rng, 2)
        rep = check_subst_type_in_type(sigma, "a", tau)
        if not rep.holds:
            bad.append(f"type-in-type #{i}")
    count = 0
    s = seed
    while count < per_lemma:
        rng = random.Random(s)
        sigma_x = gen_type(rng, 2)
        gamma = ctx(("v1", gen_type(rng, 2)), ("v2", mt.Arrow(sigma_x, sigma_x)))
        delta = ctx(("k1", gen_type(rng, 2)))
        x = "xsubst"
        try:
            m = gen_typed_term(s, 5, gamma + ((x, sigma_x),), delta, gen_type(rng, 2))
            n = gen_typed_term(s + 1, 4, gamma, delta, sigma_x)
        except GaveUp:
            s += 1
            continue
        rep = check_subst_term_in_term(gamma + ((x, sigma_x),), delta, m, x, n)
        if not rep.holds:
            bad.append(f"term-in-term seed {s}")
        count += 1
        s += 1
    count = 0
    s = seed + 10_000
    while count < per_lemma:
        try:
            gamma, delta, term, _ = gen_judgement(s, budget=5)
        except GaveUp:
            s += 1
            continue
        sigma = gen_type(random.Random(s), 2)
        rep = check_subst_type_in_term(gamma, delta, term, "a", sigma)
        if not rep.holds:
            bad.append(f"type-in-term seed {s}")
        count += 1
        s += 1
    return CriterionResult(
        4,
        "substitution lemmas are syntactic identities",
        not bad,
        "; ".join(bad[:5]) if bad else f"3 x {per_lemma} seeded instances",
    )


def criterion_5_named_term_equations() -> CriterionResult:
    bb = mt.Arrow(mt.BOT, mt.BOT)
    arr = mt.Arrow(A, B)
    p, h, n, w, q = tm.Var("p"), tm.Var("h"), tm.Var("n"), tm.Var("w"), tm.Var("q")

    def used(name_, inner):
        return tm.App(p, tm.named(name_, inner))

    checks = []
    # (mu* a.M) N  =  mu* b. M[[b](- N)/[a](-)]
    m1 = used("a'", h)
    lhs = tm.App(tm.bold_mu("a'", arr, m1), n)
    rhs = tm.bold_mu("b'", B, tm.mixed_subst(m1, "a'", tm.AppArg(n), b="b'"))
    checks.append(("application", lhs, rhs, ctx(("p", bb), ("h", arr), ("n", A)), ctx()))
    # (mu* a.M) [s]  =  mu* b. M[[b](- s)/[a](-)]
    fa = mt.forall("X", mt.Arrow(B, mt.TVar("X")))
    m2 = used("a'", w)
    lhs = tm.TyApp(tm.bold_mu("a'", fa, m2), A)
    rhs = tm.bold_mu(
        "b'", mt.Arrow(B, A), tm.mixed_subst(m2, "a'", tm.TyArg(A), b="b'")
    )
    checks.append(("type application", lhs, rhs, ctx(("p", bb), ("w", fa)), ctx()))
    # [a'](mu* a. M)  =  M[a'/a]
    m3 = used("a'", q)
    lhs = tm.named("d2", tm.bold_mu("a'", A, m3))
    rhs = tm.rename_name(m3, "a'", "d2")
    checks.append(("renaming", lhs, rhs, ctx(("p", bb), ("q", A)), ctx(("d2", A))))
    # [a : bot] M  =  M
    m0 = tm.Var("m0")
    checks.append(
        ("falsity naming", tm.named("al", m0), m0, ctx(("m0", mt.BOT)), ctx(("al", mt.BOT)))
    )
    bad = []
    for name, lhs, rhs, gamma, delta in checks:
        if not eq_mu(lhs, rhs, LAMBDA_MU_2P, gamma, delta).equal:
            bad.append(name)
    return CriterionResult(
        5,
        "named-term and bold-mu equations",
        not bad,
        "; ".join(bad) if bad else "4 equations Equal under LambdaMu2P",
    )


def criterion_6_dne() -> CriterionResult:
    m = tm.Var("M")
    lhs = tm.App(dne(A), tm.lam("k", mt.neg(A), tm.App(tm.Var("k"), m)))
    v = eq_mu(lhs, m, LAMBDA_MU_2P, ctx(("M", A)))
    return CriterionResult(
        6,
        "double-negation elimination computes",
        v.equal,
        "C (\\k. k M) = M " + ("Equal" if v.equal else "Distinct"),
    )


def criterion_7_focal_decomposition() -> CriterionResult:
    bad = []
    samples = [
        ("g free", tm.Var("g"), A, B, ctx(("g", mt.Arrow(A, B)))),
        ("identity", identity(A), A, A, ctx()),
        ("abort", abort(A), mt.BOT, A, ctx()),
        ("succ", church_succ(), None, None, ctx()),
        ("compose", compose(tm.Var("g2"), tm.Var("g1"), A), A, C,
         ctx(("g1", mt.Arrow(A, B)), ("g2", mt.Arrow(B, C)))),
    ]
    for name, g, s1, s2, gamma in samples:
        if s1 is None:
            from .combinators import N_TYPE

            s1 = s2 = N_TYPE
        v = eq_mu(flat(sharp(g, s1, s2), s1), g, LAMBDA_MU_2P, gamma)
        if not v.equal:
            bad.append(f"(g#)b != g for {name}")
    nna = mt.neg(mt.neg(A))
    focal_samples = [
        ("identity", identity(nna), A, nna, ctx()),
        ("inst", tm.lam("x", nna, tm.App(tm.Var("x"), tm.Var("N"))), A, mt.BOT,
         ctx(("N", mt.neg(A)))),
        ("abort-composite",
         compose(abort(B), tm.lam("x", nna, tm.App(tm.Var("x"), tm.Var("N"))), nna),
         A, B, ctx(("N", mt.neg(A)))),
    ]
    for name, f, s1, s2, gamma in focal_samples:
        cert = check_focal(f, mt.neg(mt.neg(s1)), s2, gamma)
        if isinstance(cert, NoCertificate):
            bad.append(f"no certificate for {name}: {cert.reason}")
            continue
        v = eq_mu(sharp(flat(f, s1), s1, s2), f, LAMBDA_MU_2P, gamma)
        if not v.equal:
            bad.append(f"(f_b)# != f for {name}")
    return CriterionResult(
        7,
        "focal decomposition",
        not bad,
        "; ".join(bad) if bad else "5 flats and 3 certified sharps",
    )


def criterion_8_weak_initiality() -> CriterionResult:
    s0 = _a("s0")
    bad = []
    for name, scheme in [
        ("identity scheme", TypeScheme("X", mt.TVar("X"))),
        ("constant scheme", TypeScheme("X", s0)),
        ("arrow scheme", TypeScheme("X", mt.Arrow(s0, mt.TVar("X")))),
    ]:
        fix = mu_fix_type(scheme)
        alg = tm.Var("alg")
        gamma = ctx(("alg", mt.Arrow(scheme.apply(B), B)))
        fold_b = tm.App(fold_comb(scheme, B), alg)
        lhs = compose(fold_b, in_comb(scheme), scheme.apply(fix))
        rhs = compose(alg, functorial_action(scheme, fold_b, fix, B), scheme.apply(fix))
        if not eq_mu(lhs, rhs, BETA_ETA, gamma).equal:
            bad.append(name)
    return CriterionResult(
        8,
        "weak initiality by beta alone",
        not bad,
        "; ".join(bad) if bad else "fold a . in = a . F[fold a] for 3 schemes",
    )


def criterion_9_church() -> CriterionResult:
    bad = []
    a0, f0 = tm.Var("a0"), tm.Var("f0")
    gamma = ctx(("a0", A), ("f0", mt.Arrow(A, A)))
    ph = phi(a0, f0, A)
    if not eq_mu(g_o(ph, A), a0, LAMBDA_MU_2P, gamma).equal:
        bad.append("(phi)_o != a")
    if not eq_mu(g_s(ph, A), f0, LAMBDA_MU_2P, gamma).equal:
        bad.append("(phi)_s != f")
    ex = exotic_numeral()
    for n in range(4):
        if eq_mu(ex, church(n), LAMBDA_MU_2P).equal:
            bad.append(f"exotic Equal to numeral {n}")
    if not eq_mu(ex, exotic_numeral_unfolded(), LAMBDA_MU_2P).equal:
        bad.append("exotic != its unfolded display")
    if not eq_mu(tm.App(church_succ(), church_zero()), church(1), BETA_ETA).equal:
        bad.append("S O != 1")
    return CriterionResult(
        9,
        "Church numerals and the exotic inhabitant",
        not bad,
        "; ".join(bad) if bad else "phi components, exotic distinctness + unfolding",
    )


def criterion_10_l_monad() -> CriterionResult:
    bad = []
    for sigma, tag in [(A, "a"), (mt.Arrow(A, B), "a->b")]:
        lt1 = l_type(sigma)
        lt2, lt3 = l_type(lt1), l_type(l_type(lt1))
        eta_s, mu_s, alpha_s = l_eta(sigma), l_mu(sigma), l_alpha(sigma)
        idl = identity(lt1)
        checks = [
            ("mu . L eta = id", compose(mu_s, l_map(eta_s, sigma, lt1), lt1), idl),
            ("mu . eta_L = id", compose(mu_s, l_eta(lt1), lt1), idl),
            (
                "mu . L mu = mu . mu_L",
                compose(mu_s, l_map(mu_s, lt2, lt1), lt3),
                compose(mu_s, l_mu(lt1), lt3),
            ),
            ("alpha . eta = id", compose(alpha_s, eta_s, sigma), identity(sigma)),
            (
                "alpha . L alpha = alpha . mu",
                compose(alpha_s, l_map(alpha_s, lt1, sigma), lt2),
                compose(alpha_s, mu_s, lt2),
            ),
        ]
        for name, lhs, rhs in checks:
            if not eq_mu(lhs, rhs, LAMBDA_MU_2P).equal:
                bad.append(f"{name} at {tag}")
    return CriterionResult(
        10,
        "monad and algebra laws for L",
        not bad,
        "; ".join(bad) if bad else "5 laws at 2 instance types",
    )


def _inst_n(dom, cod, nvar="N"):
    """lam x:dom -> cod. x nvar, the instantiation at a term."""
    return tm.lam("x", mt.Arrow(dom, cod), tm.App(tm.Var("x"), tm.Var(nvar)))


def _inst_t(scheme, at):
    """lam x:scheme. x [at], the instantiation at a type."""
    return tm.lam("x", scheme, tm.TyApp(tm.Var("x"), at))


def _certified_family():
    fa = mt.forall("X", mt.Arrow(mt.TVar("X"), C))
    gamma = ctx(("N", A), ("N2", B))
    family = [
        ("identity", identity(A), A, A),
        ("abort", abort(A), mt.BOT, A),
        ("inst-term", _inst_n(A, B), mt.Arrow(A, B), B),
        ("inst-type", _inst_t(fa, A), fa, mt.Arrow(A, C)),
    ]
    return gamma, family


def _composite_pairs():
    """All 16 ordered pairs of the four certified families, at
    instantiations making them composable."""
    fa_c = mt.forall("X", mt.Arrow(mt.TVar("X"), C))
    fa_bot = mt.forall("X", mt.TVar("X"))
    gamma = ctx(("N", A), ("N2", B))
    arr = mt.Arrow(A, B)
    fa_ab = mt.forall("X", arr)
    fa_fa = mt.forall("X", mt.forall("Y", C))
    pairs = [
        ("id;id", identity(A), A, A, identity(A), A),
        ("id;abort", identity(mt.BOT), mt.BOT, mt.BOT, abort(A), A),
        ("id;inst-term", identity(arr), arr, arr, _inst_n(A, B), B),
        ("id;inst-type", identity(fa_c), fa_c, fa_c, _inst_t(fa_c, A), mt.Arrow(A, C)),
        ("abort;id", abort(A), mt.BOT, A, identity(A), A),
        ("abort;abort", abort(mt.BOT), mt.BOT, mt.BOT, abort(A), A),
        ("abort;inst-term", abort(arr), mt.BOT, arr, _inst_n(A, B), B),
        ("abort;inst-type", abort(fa_c), mt.BOT, fa_c, _inst_t(fa_c, A), mt.Arrow(A, C)),
        ("inst-term;id", _inst_n(A, B), arr, B, identity(B), B),
        ("inst-term;abort", _inst_n(A, mt.BOT), mt.Arrow(A, mt.BOT), mt.BOT, abort(C), C),
        (
            "inst-term;inst-term",
            _inst_n(A, mt.Arrow(B, C)),
            mt.Arrow(A, mt.Arrow(B, C)),
            mt.Arrow(B, C),
            _inst_n(B, C, "N2"),
            C,
        ),
        (
            "inst-term;inst-type",
            _inst_n(A, fa_c),
            mt.Arrow(A, fa_c),
            fa_c,
            _inst_t(fa_c, A),
            mt.Arrow(A, C),
        ),
        ("inst-type;id", _inst_t(fa_c, A), fa_c, mt.Arrow(A, C), identity(mt.Arrow(A, C)), mt.Arrow(A, C)),
        ("inst-type;abort", _inst_t(fa_bot, A), fa_bot, A, tm.lam("x", A, tm.Var("x")), A),
        (
            "inst-type;inst-term",
            _inst_t(fa_ab, C),
            fa_ab,
            arr,
            _inst_n(A, B),
            B,
        ),
        (
            "inst-type;inst-type",
            _inst_t(fa_fa, A),
            fa_fa,
            mt.forall("Y", C),
            _inst_t(mt.forall("Y", C), B),
            C,
        ),
    ]
    return gamma, pairs


def criterion_11_focality() -> CriterionResult:
    bad = []
    gamma, family = _certified_family()
    certs = []
    for name, f, s1, s2 in family:
        cert = check_focal(f, s1, s2, gamma)
        if isinstance(cert, NoCertificate):
            bad.append(f"{name}: {cert.reason}")
        else:
            certs.append((name, cert))
    gamma2, pairs = _composite_pairs()
    for name, f, s1, smid, g, s3 in pairs:
        comp = compose(g, f, s1)
        cert = check_focal(comp, s1, s3, gamma2)
        if isinstance(cert, NoCertificate):
            bad.append(f"composite {name}: {cert.reason}")
        else:
            certs.append((name, cert))
    for name, cert in certs:
        if not check_discardable(
            cert.subject, cert.source, cert.target, LAMBDA_MU_2P, gamma2
        ).equal:
            bad.append(f"{name}: certified but not discardable")
        if not check_repeatable(
            cert.subject, cert.source, cert.target, None, LAMBDA_MU_2P, gamma2
        ).equal:
            bad.append(f"{name}: certified but not repeatable")
    tau = mt.Arrow(mt.Arrow(A, B), A)
    p = check_focal(peirce(A, B), tau, A)
    if not isinstance(p, NoCertificate):
        bad.append("Peirce unexpectedly certified")
    return CriterionResult(
        11,
        "focality certificates and the repeatable/discardable cross-check",
        not bad,
        "; ".join(bad[:6]) if bad else f"{len(certs)} certificates; Peirce refused",
    )


GOLDEN_THEOREMS = (
    ("ft-falsity.txt", mt.BOT),
    ("ft-top.txt", mt.forall("X", mt.Arrow(mt.TVar("X"), mt.TVar("X")))),
    ("ft-nat.txt", None),  # church_type() is fresh-named; built lazily
    (
        "ft-lmono.txt",
        mt.forall(
            "X",
            mt.Arrow(
                mt.Arrow(mt.Arrow(mt.BOT, mt.BOT), mt.TVar("X")), mt.TVar("X")
            ),
        ),
    ),
)


def golden_theorem_types():
    from .combinators import church_type

    out = []
    for fname, ty in GOLDEN_THEOREMS:
        out.append((fname, church_type() if ty is None else ty))
    return out


def criterion_12_free_theorems(golden: Path | str | None = None) -> CriterionResult:
    bad = []
    gdir = Path(golden) if golden else golden_dir()
    for fname, ty in golden_theorem_types():
        text = print_formula(free_theorem(ty)) + "\n"
        path = gdir / fname
        if not path.exists():
            bad.append(f"missing golden {fname}")
            continue
        want = path.read_text(encoding="utf-8")
        if text != want:
            bad.append(f"{fname} differs")
    cert = check_focal(abort(A), mt.BOT, A)
    if isinstance(cert, NoCertificate):
        bad.append("abort certificate missing")
    else:
        eqs = instantiate_graph(free_theorem(mt.BOT), cert)
        good = False
        for eq in eqs:
            if eq.conditional:
                continue
            v = eq_mu(eq.left, eq.right, LAMBDA_MU_2P, eq.gamma)
            lhs_shape = (
                isinstance(eq.left, tm.App)
                and isinstance(eq.right, tm.TyApp)
                and eq.right.ty == A
            )
            if v.equal and lhs_shape:
                good = True
        if not good:
            bad.append("graph instantiation at abort did not discharge")
    x = tm.Var("x")
    if not eq_mu(tm.TyApp(x, mt.BOT), x, LAMBDA_MU_2P, ctx(("x", mt.BOT))).equal:
        bad.append("x [bot] = x not confirmed")
    return CriterionResult(
        12,
        "free-theorem goldens and the falsity discharge",
        not bad,
        "; ".join(bad) if bad else "4 goldens byte-identical; abort instance discharged",
    )


def criterion_13_disclosure() -> CriterionResult:
    required = {
        "final-coalgebra": "4.1(2)",
        "coalgebra-iso": "4.1(3)",
        "falsity-initial": "6.2",
        "initial-algebra": "6.3",
        "in-sharp-iso": "6.3",
        "l-iso-double-negation": "7.2",
    }
    obligations = {ob.key: ob for ob in open_obligations(run_oracle=False)}
    bad = []
    for key, ref in required.items():
        ob = obligations.get(key)
        if ob is None:
            bad.append(f"missing obligation {key}")
        elif ob.ref != ref:
            bad.append(f"{key} tagged {ob.ref}, expected {ref}")
        elif ob.status != "open":
            bad.append(f"{key} not open: {ob.status}")
    return CriterionResult(
        13,
        "parametricity-only facts stay open obligations",
        not bad,
        "; ".join(bad) if bad else f"{len(required)} tagged obligations, all open",
    )


def run_acceptance(
    seed: int = 20240, generated: int = 1000, golden: Path | None = None
) -> list[CriterionResult]:
    """The 13 criteria; `generated` sizes criterion 1 and, at a fifth of
    it, each of criterion 4's substitution lemmas."""
    return [
        criterion_1_type_soundness(seed, generated),
        criterion_2_equational_soundness(),
        criterion_3_fullness(),
        criterion_4_subst_lemmas(per_lemma=max(1, generated // 5)),
        criterion_5_named_term_equations(),
        criterion_6_dne(),
        criterion_7_focal_decomposition(),
        criterion_8_weak_initiality(),
        criterion_9_church(),
        criterion_10_l_monad(),
        criterion_11_focality(),
        criterion_12_free_theorems(golden),
        criterion_13_disclosure(),
    ]
