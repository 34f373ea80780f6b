"""The lambda-mu-2 equality oracle and axiom-schema suites.

Equality of source terms is decided exclusively through the CPS image:
translate both sides and compare canonical forms in the target theory.
Theory BetaEta uses the plain target; LambdaMu2P adds the terminality
of exists X. X (parametric mode).  Equal is sound for the respective
theory; Distinct is advisory.
"""

from __future__ import annotations

import random

from . import mu_types as mt
from . import mu_terms as tm
from .canonical import EqVerdict, eq_target
from .cps import cps_context, cps_term_typed
from .mu_typing import Context, TypeMismatch, ctx, typecheck_mu
from .printer import print_mu_type as show
from .record import record
from .target_typing import PARAMETRIC, PLAIN

BETA_ETA = "BetaEta"
LAMBDA_MU_2P = "LambdaMu2P"

_MODE = {BETA_ETA: PLAIN, LAMBDA_MU_2P: PARAMETRIC}


def eq_mu(
    left: tm.MuTerm,
    right: tm.MuTerm,
    theory: str = LAMBDA_MU_2P,
    gamma: Context = (),
    delta: Context = (),
) -> EqVerdict:
    """Decide a lambda-mu equation by canonicalising both CPS images."""
    mode = _MODE[theory]
    lt, lty = cps_term_typed(gamma, delta, left)
    rt, rty = cps_term_typed(gamma, delta, right)
    if lty != rty:
        raise TypeMismatch(f"equation across types {show(lty)} vs {show(rty)}")
    return eq_target(lt, rt, mode, cps_context(gamma, delta))


# ---------------------------------------------------------------------------
# Axiom schemas instantiated with fresh constants (free variables and
# names over fresh atomic types).


@record
class SchemaInstance:
    name: str
    gamma: Context
    delta: Context
    left: tm.MuTerm
    right: tm.MuTerm


def _a(n: str) -> mt.MuType:
    return mt.TVar(n)


def core_axiom_instances() -> list[SchemaInstance]:
    """The eight beta/eta/mu axiom schemas at fresh-constant instances."""
    a, b, c = _a("a"), _a("b"), _a("c")
    out = []
    # (lam x:a. f x) n  =  f n
    g = ctx(("f", mt.Arrow(a, b)), ("n", a))
    out.append(
        SchemaInstance(
            "beta-arrow",
            g,
            ctx(),
            tm.App(tm.lam("x", a, tm.App(tm.Var("f"), tm.Var("x"))), tm.Var("n")),
            tm.App(tm.Var("f"), tm.Var("n")),
        )
    )
    # lam x:a. g x  =  g
    out.append(
        SchemaInstance(
            "eta-arrow",
            ctx(("g", mt.Arrow(a, b))),
            ctx(),
            tm.lam("x", a, tm.App(tm.Var("g"), tm.Var("x"))),
            tm.Var("g"),
        )
    )
    # (/\X. w [X]) [a]  =  w [a]
    w_ty = mt.forall("X", mt.Arrow(mt.TVar("X"), c))
    out.append(
        SchemaInstance(
            "beta-forall",
            ctx(("w", w_ty)),
            ctx(),
            tm.TyApp(tm.tylam("X", tm.TyApp(tm.Var("w"), mt.TVar("X"))), a),
            tm.TyApp(tm.Var("w"), a),
        )
    )
    # /\X. u [X]  =  u
    u_ty = mt.forall("X", mt.Arrow(b, mt.TVar("X")))
    out.append(
        SchemaInstance(
            "eta-forall",
            ctx(("u", u_ty)),
            ctx(),
            tm.tylam("X", tm.TyApp(tm.Var("u"), mt.TVar("X"))),
            tm.Var("u"),
        )
    )
    # mu a':a. [b'] (mu g:b. [d] L)  =  mu a':a. [d] L    (g unused in [d] L)
    d = ctx(("b'", b), ("d", c))
    out.append(
        SchemaInstance(
            "mu-rename",
            ctx(("L", c)),
            d,
            tm.mu("a'", a, "b'", tm.mu("g", b, "d", tm.Var("L"))),
            tm.mu("a'", a, "d", tm.Var("L")),
        )
    )
    # ... and the renaming case where the inner naming is the inner binder
    out.append(
        SchemaInstance(
            "mu-rename-capture",
            ctx(("L", b)),
            ctx(("b'", b)),
            tm.mu("a'", a, "b'", tm.mu("g", b, "g", tm.Var("L"))),
            tm.mu("a'", a, "b'", tm.Var("L")),
        )
    )
    # mu a':a. [a'] m  =  m     (a' not free in m)
    out.append(
        SchemaInstance(
            "mu-eta",
            ctx(("m", a)),
            ctx(),
            tm.mu("a'", a, "a'", tm.Var("m")),
            tm.Var("m"),
        )
    )
    # (mu a':a->b. [a'] L) n  =  mu b':b. [b'] (L n)
    out.append(
        SchemaInstance(
            "mu-app",
            ctx(("L", mt.Arrow(a, b)), ("n", a)),
            ctx(),
            tm.App(tm.mu("a'", mt.Arrow(a, b), "a'", tm.Var("L")), tm.Var("n")),
            tm.mu("b'", b, "b'", tm.App(tm.Var("L"), tm.Var("n"))),
        )
    )
    # nested mixed-substitution instance of the same schema
    inner = tm.mu("g", c, "a'", tm.Var("y"))
    lhs = tm.App(
        tm.mu("a'", mt.Arrow(a, b), "a'", tm.App(tm.Var("f2"), inner)), tm.Var("n")
    )
    inner_r = tm.mu("g", c, "b'", tm.App(tm.Var("y"), tm.Var("n")))
    rhs = tm.mu(
        "b'", b, "b'", tm.App(tm.App(tm.Var("f2"), inner_r), tm.Var("n"))
    )
    out.append(
        SchemaInstance(
            "mu-app-nested",
            ctx(("f2", mt.Arrow(c, mt.Arrow(a, b))), ("y", mt.Arrow(a, b)), ("n", a)),
            ctx(),
            lhs,
            rhs,
        )
    )
    # (mu a':forall X. c. [a'] L) [b]  =  mu b':c. [b'] (L [b])
    fa = mt.forall("X", mt.Arrow(mt.TVar("X"), c))
    out.append(
        SchemaInstance(
            "mu-tyapp",
            ctx(("L", fa)),
            ctx(),
            tm.TyApp(tm.mu("a'", fa, "a'", tm.Var("L")), b),
            tm.mu("b'", mt.Arrow(b, c), "b'", tm.TyApp(tm.Var("L"), b)),
        )
    )
    return out


def additional_axiom_instances() -> dict[str, list[SchemaInstance]]:
    """The three extra axioms in their three equivalent presentations.

    Presentations: "discard" (the instantiation maps are discardable),
    "falsity" (equations on terms of the falsity type), and "structural"
    (the bold-mu structural equations).  All hold in LambdaMu2P and all
    fail under plain BetaEta.
    """
    from .combinators import abort

    a, b, c = _a("a"), _a("b"), _a("c")
    bot = mt.BOT
    arr = mt.Arrow(a, b)
    out: dict[str, list[SchemaInstance]] = {"discard": [], "falsity": [], "structural": []}

    def discardable(name, f, dom, cod, extra_gamma=(), extra_delta=()):
        g = ctx(*extra_gamma, ("z0", bot))
        lhs = tm.App(f, tm.App(abort(dom), tm.Var("z0")))
        rhs = tm.App(abort(cod), tm.Var("z0"))
        out["discard"].append(SchemaInstance(name, g, ctx(*extra_delta), lhs, rhs))

    # 1. lam x:a->b. x n   discardable
    discardable(
        "discard-app",
        tm.lam("x", arr, tm.App(tm.Var("x"), tm.Var("n"))),
        arr,
        b,
        extra_gamma=(("n", a),),
    )
    # 2. lam x:forall X. c. x [a]   discardable
    fa = mt.forall("X", mt.Arrow(mt.TVar("X"), c))
    discardable(
        "discard-tyapp",
        tm.lam("x", fa, tm.TyApp(tm.Var("x"), a)),
        fa,
        mt.Arrow(a, c),
    )
    # 3. lam x:a. [d] x   discardable (d : a)
    discardable(
        "discard-name",
        tm.lam("x", a, tm.named("d", tm.Var("x"))),
        a,
        bot,
        extra_delta=(("d", a),),
    )

    g = ctx(("m0", bot), ("n", a))
    # 1. m (a->b) n = m b
    out["falsity"].append(
        SchemaInstance(
            "falsity-app",
            g,
            ctx(),
            tm.App(tm.TyApp(tm.Var("m0"), arr), tm.Var("n")),
            tm.TyApp(tm.Var("m0"), b),
        )
    )
    # 2. m (forall X. c) [a]  =  m (c[a/X])
    fb = mt.forall("X", mt.Arrow(mt.TVar("X"), mt.TVar("X")))
    out["falsity"].append(
        SchemaInstance(
            "falsity-tyapp",
            g,
            ctx(),
            tm.TyApp(tm.TyApp(tm.Var("m0"), fb), a),
            tm.TyApp(tm.Var("m0"), mt.Arrow(a, a)),
        )
    )
    # 3. [d] (m a) = m   for d : a, d not free in m
    out["falsity"].append(
        SchemaInstance(
            "falsity-name",
            g,
            ctx(("d", a)),
            tm.named("d", tm.TyApp(tm.Var("m0"), a)),
            tm.Var("m0"),
        )
    )

    # Structural equations on bold-mu abstractions.  The abstracted name
    # must occur under an argument position (here via p : bot -> bot), or
    # the instance degenerates to a plain beta-eta-mu consequence.
    bb = mt.Arrow(bot, bot)

    def used(name_, inner):
        return tm.App(tm.Var("p"), tm.named(name_, inner))

    lhs = tm.App(tm.bold_mu("a'", arr, used("a'", tm.Var("h"))), tm.Var("n"))
    rhs = tm.bold_mu("b'", b, used("b'", tm.App(tm.Var("h"), tm.Var("n"))))
    out["structural"].append(
        SchemaInstance(
            "structural-app", ctx(("p", bb), ("h", arr), ("n", a)), ctx(), lhs, rhs
        )
    )
    fa2 = mt.forall("X", mt.Arrow(b, mt.TVar("X")))
    lhs = tm.TyApp(tm.bold_mu("a'", fa2, used("a'", tm.Var("w"))), a)
    rhs = tm.bold_mu("b'", mt.Arrow(b, a), used("b'", tm.TyApp(tm.Var("w"), a)))
    out["structural"].append(
        SchemaInstance(
            "structural-tyapp", ctx(("p", bb), ("w", fa2)), ctx(), lhs, rhs
        )
    )
    lhs = tm.named("d2", tm.bold_mu("a'", a, used("a'", tm.Var("q"))))
    rhs = used("d2", tm.Var("q"))
    out["structural"].append(
        SchemaInstance(
            "structural-rename", ctx(("p", bb), ("q", a)), ctx(("d2", a)), lhs, rhs
        )
    )
    return out


def check_schema(inst: SchemaInstance, theory: str) -> EqVerdict:
    return eq_mu(inst.left, inst.right, theory, inst.gamma, inst.delta)


@record
class AdditionalAxiomReport:
    presentation: str
    instance: str
    parametric_equal: bool
    plain_equal: bool


def check_additional_axioms() -> list[AdditionalAxiomReport]:
    """All three presentations hold in LambdaMu2P and fail under BetaEta.

    Since every presentation's instances are Equal in the same theory,
    the presentations are pairwise inter-derivable at these instances.
    """
    reports = []
    for presentation, instances in additional_axiom_instances().items():
        for inst in instances:
            p = check_schema(inst, LAMBDA_MU_2P)
            q = check_schema(inst, BETA_ETA)
            reports.append(
                AdditionalAxiomReport(presentation, inst.name, p.equal, q.equal)
            )
    return reports


# ---------------------------------------------------------------------------
# Seeded generation of well-typed terms


class GaveUp(Exception):
    pass


_ATOM_POOL = tuple(mt.TVar(n) for n in ("a", "b", "c"))


def gen_typed_term(
    seed: int,
    budget: int,
    gamma: Context = (),
    delta: Context = (),
    goal: mt.MuType | None = None,
) -> tm.MuTerm:
    """Deterministic well-typed term generation; raises GaveUp on failure.

    A goal with no inhabitant within the budget is decided at once by
    `_inhabited`.  A goal that has one is searched for by 64 seeded
    restarts of `_gen`, which can still miss it and give up.
    """
    rng = random.Random(seed)
    if goal is None:
        goal = gen_type(rng, 2)
    if not _inhabited(budget, [ty for _, ty in gamma], [ty for _, ty in delta], goal):
        raise GaveUp(f"no inhabitant of {goal} within budget {budget}")
    # The pre-filter draws nothing from rng, so a goal that passes it runs
    # the same restarts as before and yields the same term.  The restarts
    # stay because dropping or reordering them would change the term some
    # seeds yield, and with it the corpus the acceptance gate tests.
    for _ in range(64):
        term = _gen(rng, budget, gamma, delta, goal, 0)
        if term is not None:
            return term
    raise GaveUp(f"64 restarts found no inhabitant of {goal} within budget {budget}")


def _inhabited(budget, gamma_types, delta_types, goal) -> bool:
    """Whether any run of `_gen` could build a term of `goal`.

    The check over-approximates `_gen`: it tries every candidate rather
    than four after the shuffle, every mu target in delta rather than a
    random one, and every app domain in `_ATOM_POOL`; it ignores the depth
    cap; and it keeps each budget threshold (var at any budget, lam,
    tylam, mu, app-var and tyapp-var at 2 or more, app at 3 or more with
    half the budget on both sides).  Whether a candidate exists depends on
    the types in gamma and delta only, never on names or multiplicity, so
    both are sets of types here.  A tylam body is opened with the name
    `#X<budget>`, which no user name (the lexer rejects `#`) and no
    `tm.fresh` atom can take, and which is distinct along every path
    because budgets strictly fall; renaming a type variable injectively
    changes no type comparison `_gen` makes.

    Soundness: if this returns False, no choice of candidates, mu targets
    or app domains builds a term, so every restart of `_gen` returns None
    and `gen_typed_term` would raise GaveUp anyway.  Termination: every
    recursive call strictly lowers the budget (budget - 1, or budget // 2
    at budget >= 3).  The memo lives for this call only.
    """
    memo: dict = {}

    def inh(budget, gam, dlt, goal) -> bool:
        key = (budget, gam, dlt, goal)
        if key not in memo:
            memo[key] = step(budget, gam, dlt, goal)
        return memo[key]

    def step(budget, gam, dlt, goal) -> bool:
        if goal in gam:
            return True  # var
        if budget < 2:
            return False
        for ty in gam:
            if isinstance(ty, mt.Forall) and any(
                mt.inst_tvar(ty.body, a) == goal for a in _ATOM_POOL
            ):
                return True  # tyapp-var
            if isinstance(ty, mt.Arrow) and ty.cod == goal and inh(budget - 1, gam, dlt, ty.dom):
                return True  # app-var
        if isinstance(goal, mt.Arrow) and inh(budget - 1, gam | {goal.dom}, dlt, goal.cod):
            return True  # lam
        if isinstance(goal, mt.Forall):
            opened = mt.open_tvar(goal.body, f"#X{budget}")
            if inh(budget - 1, gam, dlt, opened):
                return True  # tylam
        dlt2 = dlt | {goal}
        if any(inh(budget - 1, gam, dlt2, tgt) for tgt in dlt2):
            return True  # mu
        return budget >= 3 and any(
            inh(budget // 2, gam, dlt, mt.Arrow(a, goal)) and inh(budget // 2, gam, dlt, a)
            for a in _ATOM_POOL
        )

    return inh(budget, frozenset(gamma_types), frozenset(delta_types), goal)


def gen_type(rng: random.Random, depth: int) -> mt.MuType:
    if depth <= 0 or rng.random() < 0.4:
        return rng.choice(_ATOM_POOL)
    if rng.random() < 0.7:
        return mt.Arrow(gen_type(rng, depth - 1), gen_type(rng, depth - 1))
    x = f"X{rng.randrange(3)}"
    body = gen_type(rng, depth - 1)
    if rng.random() < 0.5:
        body = mt.Arrow(mt.TVar(x), body)
    return mt.forall(x, body)


def _gen(rng, budget, gamma, delta, goal, depth) -> tm.MuTerm | None:
    if depth > 24:
        return None
    candidates = []
    for v, ty in gamma:
        if ty == goal:
            candidates.append(("var", v))
    if budget >= 2:
        if isinstance(goal, mt.Arrow):
            candidates.append(("lam", None))
            candidates.append(("lam", None))
        if isinstance(goal, mt.Forall):
            candidates.append(("tylam", None))
            candidates.append(("tylam", None))
        candidates.append(("mu", None))
        for v, ty in gamma:
            if isinstance(ty, mt.Arrow) and ty.cod == goal:
                candidates.append(("app-var", (v, ty)))
            if isinstance(ty, mt.Forall):
                for inst_ty in _ATOM_POOL:
                    if mt.inst_tvar(ty.body, inst_ty) == goal:
                        candidates.append(("tyapp-var", (v, ty, inst_ty)))
    if budget >= 3:
        candidates.append(("app", None))
    if not candidates:
        return None
    rng.shuffle(candidates)
    for kind, payload in candidates[:4]:
        term = _gen_one(rng, kind, payload, budget, gamma, delta, goal, depth)
        if term is not None:
            return term
    return None


def _gen_one(rng, kind, payload, budget, gamma, delta, goal, depth):
    if kind == "var":
        return tm.Var(payload)
    if kind == "lam":
        x = tm.fresh("x")
        body = _gen(rng, budget - 1, gamma + ((x, goal.dom),), delta, goal.cod, depth + 1)
        return None if body is None else tm.lam(x, goal.dom, body)
    if kind == "tylam":
        xv = tm.fresh("X")
        opened = mt.open_tvar(goal.body, xv)
        body = _gen(rng, budget - 1, gamma, delta, opened, depth + 1)
        return None if body is None else tm.tylam(xv, body)
    if kind == "mu":
        a = tm.fresh("a")
        delta2 = ((a, goal),) + delta
        tgt, tgt_ty = rng.choice(delta2)
        body = _gen(rng, budget - 1, gamma, delta2, tgt_ty, depth + 1)
        return None if body is None else tm.mu(a, goal, tgt, body)
    if kind == "app-var":
        v, ty = payload
        arg = _gen(rng, budget - 1, gamma, delta, ty.dom, depth + 1)
        return None if arg is None else tm.App(tm.Var(v), arg)
    if kind == "tyapp-var":
        v, ty, inst_ty = payload
        return tm.TyApp(tm.Var(v), inst_ty)
    if kind == "app":
        dom = rng.choice(_ATOM_POOL)
        fn = _gen(rng, budget // 2, gamma, delta, mt.Arrow(dom, goal), depth + 1)
        if fn is None:
            return None
        arg = _gen(rng, budget // 2, gamma, delta, dom, depth + 1)
        return None if arg is None else tm.App(fn, arg)
    raise ValueError(kind)


def gen_judgement(seed: int, budget: int = 6):
    """A random closed-context judgement: (gamma, delta, term, type)."""
    rng = random.Random(seed)
    gamma = ctx(
        ("v1", gen_type(rng, 2)),
        ("v2", gen_type(rng, 2)),
    )
    delta = ctx(("k1", gen_type(rng, 2)),)
    goal = gen_type(rng, 2)
    term = gen_typed_term(rng.randrange(1 << 30), budget, gamma, delta, goal)
    ty = typecheck_mu(gamma, delta, term)
    return gamma, delta, term, ty
