"""Relational machinery: admissible relations (target), focal relations
(source), parametricity statements, graph instantiation, and the ledger
of parametricity-only proof obligations.

Formulas are first-class data with a stable pretty-printer.  Emitting a
statement is always possible; discharging one happens only when the
equality oracle suffices, and everything else stays an open obligation.
"""

from __future__ import annotations

from functools import partial

from . import mu_terms as tm
from . import mu_types as mt
from . import target_terms as tg
from . import target_types as tt
from .mu_typing import Context
from .record import field, record
from .syntax import TVAR, VAR


class UnboundRelVar(Exception):
    pass


class OpenType(Exception):
    pass


class NotFocal(Exception):
    pass


# ---------------------------------------------------------------------------
# Relations.  A relation knows its two endpoint types (source-world
# MuTypes or target-world TargetTypes, depending on the construction).


class Relation:
    __slots__ = ()


@record
class RelVar(Relation):
    name: str
    left: object = None
    right: object = None


@record
class IdentityRef(Relation):
    type: object


@record
class GraphRef(Relation):
    """Graph of a map; in the source world only focal maps are allowed."""

    map: object  # MuTerm (source) or TargetTerm (target)
    focality_required: bool
    source: object = None
    target: object = None
    label: str = "f"


@record
class NegRel(Relation):
    body: Relation
    dom_left: tt.TargetType | None = None
    dom_right: tt.TargetType | None = None


@record
class ConjRel(Relation):
    left: Relation
    right: Relation
    types_left: tuple[tt.TargetType, tt.TargetType] | None = None
    types_right: tuple[tt.TargetType, tt.TargetType] | None = None


@record
class ExistsRel(Relation):
    var: str
    body: Relation


@record
class ArrowRel(Relation):
    """Logical relation at an arrow type; endpoints annotate the domains."""

    dom: Relation
    cod: Relation
    dom_left: mt.MuType
    dom_right: mt.MuType


@record
class AllRel(Relation):
    """Focal-relation clause at a forall type."""

    tyvar_left: str
    tyvar_right: str
    relvar: str
    body: Relation


# ---------------------------------------------------------------------------
# Formulas


class RelFormula:
    __slots__ = ()


@record
class RelAtom(RelFormula):
    rel: Relation
    left: object
    right: object


@record
class Implies(RelFormula):
    premise: RelFormula
    conclusion: RelFormula


@record
class And(RelFormula):
    left: RelFormula
    right: RelFormula


@record
class ForallTerm(RelFormula):
    var: str
    type: mt.MuType
    body: RelFormula


@record
class ForallType(RelFormula):
    var: str
    body: RelFormula


@record
class ForallRel(RelFormula):
    var: str
    kind: str  # "admissible" | "focal"
    left: str
    right: str
    body: RelFormula


ADMISSIBLE = "admissible"
FOCAL = "focal"


# ---------------------------------------------------------------------------
# The target construction (admissible relations)


def target_relation(
    ty: tt.TargetType,
    env: dict[str, Relation],
    left_inst: dict[str, tt.TargetType] | None = None,
    right_inst: dict[str, tt.TargetType] | None = None,
) -> Relation:
    """The five admissible-relation clauses over the target types."""
    left_inst = left_inst or {}
    right_inst = right_inst or {}
    subst_all = partial(tt.SYNTAX.subst, TVAR)

    match ty:
        case tt.TgVarT(n):
            try:
                return env[n]
            except KeyError:
                raise UnboundRelVar(n) from None
        case tt.RType():
            return IdentityRef(tt.R)
        case tt.Neg(body):
            return NegRel(
                target_relation(body, env, left_inst, right_inst),
                subst_all(body, left_inst),
                subst_all(body, right_inst),
            )
        case tt.Conj(left, right):
            return ConjRel(
                target_relation(left, env, left_inst, right_inst),
                target_relation(right, env, left_inst, right_inst),
                (subst_all(left, left_inst), subst_all(right, left_inst)),
                (subst_all(left, right_inst), subst_all(right, right_inst)),
            )
        case tt.Exists(hint, body):
            x = tm.fresh(tm.base_name(hint) or "X")
            xl, xr = x, tm.fresh((tm.base_name(hint) or "X") + "'")
            inner = target_relation(
                tt.open_tvar(body, x),
                {**env, x: RelVar(x, tt.TgVarT(xl), tt.TgVarT(xr))},
                {**left_inst, x: tt.TgVarT(xl)},
                {**right_inst, x: tt.TgVarT(xr)},
            )
            return ExistsRel(x, inner)
    raise TypeError(ty)


def unfold_target(rel: Relation, left, right) -> RelFormula:
    """Unfold a target-world admissible relation into a formula.

    The negation clause becomes the logical implication ending in an
    answer-type equation; the conjunction clause quantifies over pair
    decompositions; existentials stay atomic (they assert a witness and
    an admissible relation, which the formula language keeps abstract).
    """
    match rel:
        case NegRel(body, dom_l, dom_r) if dom_l is not None:
            x, y = tm.fresh("x"), tm.fresh("y")
            prem = unfold_target(body, tg.TgVar(x), tg.TgVar(y))
            concl = RelAtom(
                IdentityRef(tt.R), tg.TgApp(left, tg.TgVar(x)), tg.TgApp(right, tg.TgVar(y))
            )
            return ForallTerm(x, dom_l, ForallTerm(y, dom_r, Implies(prem, concl)))
        case ConjRel(lrel, rrel, tys_l, tys_r) if tys_l is not None:
            x, x2, y, y2 = (tm.fresh(n) for n in ("x", "x'", "y", "y'"))
            pair_l = tg.Pair(tg.TgVar(x), tg.TgVar(x2))
            pair_r = tg.Pair(tg.TgVar(y), tg.TgVar(y2))
            decomposed = And(
                unfold_target(lrel, tg.TgVar(x), tg.TgVar(y)),
                unfold_target(rrel, tg.TgVar(x2), tg.TgVar(y2)),
            )
            eq_l = RelAtom(IdentityRef(tt.Conj(*tys_l)), left, pair_l)
            eq_r = RelAtom(IdentityRef(tt.Conj(*tys_r)), right, pair_r)
            body = Implies(eq_l, Implies(eq_r, decomposed))
            out: RelFormula = body
            for v, vt in ((y2, tys_r[1]), (y, tys_r[0]), (x2, tys_l[1]), (x, tys_l[0])):
                out = ForallTerm(v, vt, out)
            return out
        case _:
            return RelAtom(rel, left, right)


# ---------------------------------------------------------------------------
# The source construction (focal relations)


def mu_relation(
    sigma: mt.MuType,
    env: dict[str, Relation],
    left_inst: dict[str, mt.MuType] | None = None,
    right_inst: dict[str, mt.MuType] | None = None,
) -> Relation:
    """The three focal-relation clauses over the source types."""
    left_inst = left_inst or {}
    right_inst = right_inst or {}
    subst_all = partial(mt.SYNTAX.subst, TVAR)

    match sigma:
        case mt.TVar(n):
            try:
                return env[n]
            except KeyError:
                raise UnboundRelVar(n) from None
        case mt.Arrow(dom, cod):
            return ArrowRel(
                mu_relation(dom, env, left_inst, right_inst),
                mu_relation(cod, env, left_inst, right_inst),
                subst_all(dom, left_inst),
                subst_all(dom, right_inst),
            )
        case mt.Forall(hint, body):
            base = tm.base_name(hint) or "X"
            x = tm.fresh(base)
            xl, xr = x, tm.fresh(base + "'")
            r = tm.fresh("r")
            opened = mt.open_tvar(body, x)
            inner = mu_relation(
                opened,
                {**env, x: RelVar(r, mt.TVar(xl), mt.TVar(xr))},
                {**left_inst, x: mt.TVar(xl)},
                {**right_inst, x: mt.TVar(xr)},
            )
            return AllRel(xl, xr, r, inner)
    raise TypeError(sigma)


def unfold(rel: Relation, left: tm.MuTerm, right: tm.MuTerm) -> RelFormula:
    """Unfold a source-world structural relation into a formula."""
    match rel:
        case ArrowRel(dom, cod, dom_l, dom_r):
            x, y = tm.fresh("x"), tm.fresh("y")
            prem = unfold(dom, tm.Var(x), tm.Var(y))
            concl = unfold(cod, tm.App(left, tm.Var(x)), tm.App(right, tm.Var(y)))
            return ForallTerm(x, dom_l, ForallTerm(y, dom_r, Implies(prem, concl)))
        case AllRel(xl, xr, r, body):
            inner = unfold(
                body, tm.TyApp(left, mt.TVar(xl)), tm.TyApp(right, mt.TVar(xr))
            )
            return ForallType(xl, ForallType(xr, ForallRel(r, FOCAL, xl, xr, inner)))
        case _:
            return RelAtom(rel, left, right)


def free_theorem(sigma: mt.MuType) -> RelFormula:
    """The focal parametricity statement for a closed type:
    every M : sigma is related to itself."""
    if mt.ftv(sigma):
        from .printer import print_mu_type

        raise OpenType(f"free theorems are stated for closed types, not {print_mu_type(sigma)}")
    m = tm.fresh("m")
    rel = mu_relation(sigma, {})
    return ForallTerm(m, sigma, unfold(rel, tm.Var(m), tm.Var(m)))


# ---------------------------------------------------------------------------
# Graph instantiation


@record
class DischargeEquation:
    """A mu-calculus equation ready for the oracle, with its binders."""

    gamma: Context
    left: tm.MuTerm
    right: tm.MuTerm
    conditional: bool = False


def instantiate_graph(formula: RelFormula, cert) -> list[DischargeEquation]:
    """Instantiate the head relation quantifier with a certified focal map.

    The two type quantifiers (when present) take the certificate's source
    and target type; relation atoms over the graph become equations
    u <f> v  ~>  f u = v.  Unconditional equations are dischargeable by
    eq_mu; equations under premises are reported conditional and stay
    open.
    """
    from .focality import FocalityCertificate

    if not isinstance(cert, FocalityCertificate):
        raise NotFocal("graph instantiation requires a focality certificate")
    binders: list[tuple[str, mt.MuType]] = []
    node = formula
    tysub: dict[str, mt.MuType] = {}

    def sub(x):
        if isinstance(x, (tm.MuTerm, mt.MuType)):
            return tm.SYNTAX.subst(TVAR, x, tysub)
        return x

    while True:
        if isinstance(node, ForallTerm):
            binders.append((node.var, sub(node.type)))
            node = node.body
            continue
        if isinstance(node, ForallType):
            if isinstance(node.body, ForallType) and isinstance(
                node.body.body, ForallRel
            ):
                tysub[node.var] = cert.source
                tysub[node.body.var] = cert.target
                node = node.body.body
                continue
            raise NotFocal("expected paired type quantifiers before the relation")
        break
    if not isinstance(node, ForallRel):
        raise NotFocal("formula has no relation quantifier at its head")
    graph = GraphRef(cert.subject, True, cert.source, cert.target)
    body = _map_formula(node.body, {}, sub, {node.var: graph})
    out: list[DischargeEquation] = []
    _collect_equations(body, tuple(binders), False, out)
    return out


def _map_formula(f: RelFormula, names: dict[str, str], sub, rels: dict[str, Relation]) -> RelFormula:
    """Rebuild f in one pass: every binder and relation atom renamed by
    names, every type and term through sub(), and each relation variable
    that rels names by its relation.  NegRel and ConjRel keep their
    endpoint types, which no printer or export reads."""

    def atom(a: str) -> str:
        return names.get(a, a)

    def rel(r: Relation) -> Relation:
        match r:
            case RelVar(n, left, right):
                return rels[n] if n in rels else RelVar(atom(n), sub(left), sub(right))
            case IdentityRef(ty):
                return IdentityRef(sub(ty))
            case GraphRef(map=m, focality_required=req, source=src, target=tgt, label=lab):
                return GraphRef(sub(m), req, src, tgt, lab)
            case NegRel(body, dl, dr):
                return NegRel(rel(body), dl, dr)
            case ConjRel(left, right, tl, tr):
                return ConjRel(rel(left), rel(right), tl, tr)
            case ExistsRel(x, body):
                return ExistsRel(atom(x), rel(body))
            case ArrowRel(dom, cod, dl, dr):
                return ArrowRel(rel(dom), rel(cod), sub(dl), sub(dr))
            case AllRel(xl, xr, rv, body):
                return AllRel(atom(xl), atom(xr), atom(rv), rel(body))
        raise TypeError(r)

    def go(f: RelFormula) -> RelFormula:
        match f:
            case ForallTerm(v, ty, body):
                return ForallTerm(atom(v), sub(ty), go(body))
            case ForallType(v, body):
                return ForallType(atom(v), go(body))
            case ForallRel(v, kind, left, right, body):
                return ForallRel(atom(v), kind, atom(left), atom(right), go(body))
            case Implies(p, c):
                return Implies(go(p), go(c))
            case And(left, right):
                return And(go(left), go(right))
            case RelAtom(r, left, right):
                return RelAtom(rel(r), sub(left), sub(right))
        raise TypeError(f)

    return go(f)


def _collect_equations(formula, binders, conditional, out) -> None:
    match formula:
        case RelAtom(GraphRef(map=f), left, right):
            out.append(
                DischargeEquation(binders, tm.App(f, left), right, conditional)
            )
        case RelAtom(IdentityRef(_), left, right):
            out.append(DischargeEquation(binders, left, right, conditional))
        case RelAtom(_, _, _):
            pass
        case Implies(_, concl):
            _collect_equations(concl, binders, True, out)
        case And(left, right):
            _collect_equations(left, binders, conditional, out)
            _collect_equations(right, binders, conditional, out)
        case ForallTerm(v, ty, body):
            _collect_equations(body, binders + ((v, ty),), conditional, out)
        case ForallType(_, body) | ForallRel(_, _, _, _, body):
            _collect_equations(body, binders, conditional, out)


# ---------------------------------------------------------------------------
# Pretty-printing (deterministic; golden-file stable).  Quantified atoms
# are renamed to hint-derived display names before printing, so output
# does not depend on the internal fresh-atom counter.


def print_formula(formula: RelFormula) -> str:
    return _pf(rename_for_display(formula), {})


def rename_for_display(formula: RelFormula) -> RelFormula:
    order: list[str] = []
    free: set[str] = set()

    def walk(f):
        match f:
            case ForallTerm(v, ty, body):
                order.append(v)
                free.update(mt.ftv(ty) if isinstance(ty, mt.MuType) else tt.ftv(ty))
                walk(body)
            case ForallType(v, body):
                order.append(v)
                walk(body)
            case ForallRel(v, _, _, _, body):
                order.append(v)
                walk(body)
            case Implies(p, c):
                walk(p)
                walk(c)
            case And(left, right):
                walk(left)
                walk(right)
            case RelAtom(_, left, right):
                for t in (left, right):
                    if isinstance(t, tm.MuTerm):
                        free.update(tm.fv(t))
                        free.update(tm.ftv_term(t))
                    elif isinstance(t, tg.TargetTerm):
                        free.update(tg.free_vars(t))
                        free.update(tg.free_tvars(t))

    walk(formula)
    free -= set(order)
    used = {tm.base_name(a) for a in free} | free
    names: dict[str, str] = {}
    for atom in order:
        base = tm.base_name(atom)
        name = base
        i = 1
        while name in used:
            name = f"{base}{i}"
            i += 1
        names[atom] = name
        used.add(name)
    mu_reps = ({a: tm.Var(n) for a, n in names.items()}, {a: mt.TVar(n) for a, n in names.items()})
    tg_reps = ({a: tg.TgVar(n) for a, n in names.items()}, {a: tt.TgVarT(n) for a, n in names.items()})

    def rename(x):
        if isinstance(x, (tm.MuTerm, mt.MuType)):
            syntax, (vars_, tvars) = tm.SYNTAX, mu_reps
        elif isinstance(x, (tg.TargetTerm, tt.TargetType)):
            syntax, (vars_, tvars) = tg.SYNTAX, tg_reps
        else:
            return x
        return syntax.subst(TVAR, syntax.subst(VAR, x, vars_), tvars)

    return _map_formula(formula, names, rename, {})


def _pf(f: RelFormula, names: dict[str, str]) -> str:
    from .printer import print_mu_term, print_mu_type, print_target_term, print_target_type

    def pty(ty) -> str:
        if isinstance(ty, tt.TargetType):
            return print_target_type(ty, prec=2)
        return print_mu_type(ty, prec=2)

    def ptm(t) -> str:
        if isinstance(t, tg.TargetTerm):
            return print_target_term(t)
        if isinstance(t, tm.MuTerm):
            return print_mu_term(t)
        return str(t)

    match f:
        case ForallTerm(v, ty, body):
            return f"∀{v} : {pty(ty)}. {_pf(body, names)}"
        case ForallType(v, body):
            return f"∀{v}. {_pf(body, names)}"
        case ForallRel(v, kind, left, right, body):
            return f"∀{v} : {left} ↔ {right} ({kind}). {_pf(body, names)}"
        case Implies(p, c):
            return f"({_pf(p, names)}) ⇒ ({_pf(c, names)})"
        case And(left, right):
            return f"({_pf(left, names)}) ∧ ({_pf(right, names)})"
        case RelAtom(rel, left, right):
            return f"{_pr(rel, names)}({ptm(left)}, {ptm(right)})"
    raise TypeError(f)


def _pr(rel: Relation, names: dict[str, str]) -> str:
    from .printer import print_mu_term, print_mu_type, print_target_type

    match rel:
        case RelVar(n, _, _):
            return tm.base_name(n)
        case IdentityRef(ty):
            if isinstance(ty, mt.MuType):
                return f"id[{print_mu_type(ty)}]"
            if isinstance(ty, tt.TargetType):
                return f"id[{print_target_type(ty)}]"
            return "id"
        case GraphRef(map=f, label=label):
            if isinstance(f, tm.MuTerm):
                return f"⟨{print_mu_term(f)}⟩"
            if isinstance(f, tg.TargetTerm):
                from .printer import print_target_term as _ptt_term

                return f"⟨{_ptt_term(f)}⟩"
            return f"⟨{label}⟩"
        case NegRel(body, _, _):
            return f"¬{_pr(body, names)}"
        case ConjRel(left, right, _, _):
            return f"({_pr(left, names)} ∧ {_pr(right, names)})"
        case ExistsRel(x, body):
            return f"(∃{tm.base_name(x)}. {_pr(body, names)})"
        case ArrowRel(dom, cod, _, _):
            return f"({_pr(dom, names)} → {_pr(cod, names)})"
        case AllRel(xl, xr, r, body):
            return f"(∀{xl} {xr} {names.get(r, r)}. {_pr(body, names)})"
    raise TypeError(rel)


# ---------------------------------------------------------------------------
# Structured export


def formula_to_sexpr(f: RelFormula) -> str:
    from .printer import _atom, sexpr_mu_term, sexpr_mu_type

    match f:
        case ForallTerm(v, ty, body):
            return f"(forall-term {_atom(v)} {sexpr_mu_type(ty)} {formula_to_sexpr(body)})"
        case ForallType(v, body):
            return f"(forall-type {_atom(v)} {formula_to_sexpr(body)})"
        case ForallRel(v, kind, left, right, body):
            return (
                f"(forall-rel {_atom(v)} {_atom(kind)} {_atom(left)} {_atom(right)} "
                f"{formula_to_sexpr(body)})"
            )
        case Implies(p, c):
            return f"(implies {formula_to_sexpr(p)} {formula_to_sexpr(c)})"
        case And(left, right):
            return f"(and {formula_to_sexpr(left)} {formula_to_sexpr(right)})"
        case RelAtom(rel, left, right):
            lt = sexpr_mu_term(left) if isinstance(left, tm.MuTerm) else _atom(str(left))
            rt = sexpr_mu_term(right) if isinstance(right, tm.MuTerm) else _atom(str(right))
            return f"(atom {_rel_sexpr(rel)} {lt} {rt})"
    raise TypeError(f)


def _rel_sexpr(rel: Relation) -> str:
    from .printer import _atom, sexpr_mu_term

    match rel:
        case RelVar(n, _, _):
            return f"(rel-var {_atom(n)})"
        case IdentityRef(_):
            return "(identity)"
        case GraphRef(map=f, focality_required=req):
            if isinstance(f, tm.MuTerm):
                return f"(graph {sexpr_mu_term(f)} {_atom('focal' if req else 'plain')})"
            return f"(graph {_atom(str(f))} {_atom('focal' if req else 'plain')})"
        case NegRel(body):
            return f"(neg-rel {_rel_sexpr(body)})"
        case ConjRel(left, right):
            return f"(conj-rel {_rel_sexpr(left)} {_rel_sexpr(right)})"
        case ExistsRel(x, body):
            return f"(exists-rel {_atom(x)} {_rel_sexpr(body)})"
        case ArrowRel(dom, cod, _, _):
            return f"(arrow-rel {_rel_sexpr(dom)} {_rel_sexpr(cod)})"
        case AllRel(xl, xr, r, body):
            return f"(all-rel {_atom(xl)} {_atom(xr)} {_atom(r)} {_rel_sexpr(body)})"
    raise TypeError(rel)


# ---------------------------------------------------------------------------
# Open obligations: parametricity-only facts are emitted, tagged, and
# never decided by the oracle.  Instance confirmations are recorded
# separately and do not close the headline claim.


@record
class Obligation:
    key: str
    ref: str
    statement: str
    status: str = "open"
    notes: tuple[str, ...] = field(default=())


def open_obligations(run_oracle: bool = False) -> list[Obligation]:
    """The catalog of statements beyond the oracle, with section tags.

    With run_oracle=True, instance equations the oracle can check are
    attempted and their verdicts recorded as notes; headline claims stay
    open either way.
    """
    from .printer import print_mu_type

    a = mt.TVar("a")
    obligations = [
        Obligation(
            "terminal-top",
            "4.1(1)",
            "exists X. X is terminal: every inhabitant equals Star "
            "(adopted as the parametric-mode rewrite, not an oracle fact)",
            status="adopted-as-rewrite",
        ),
        Obligation(
            "final-coalgebra",
            "4.1(2)",
            "exists X. not (t /\\ X) /\\ X is a final coalgebra nu X. not t "
            "(X negative in t)",
        ),
        Obligation(
            "coalgebra-iso",
            "4.1(3)",
            "exists X. not (t /\\ X) /\\ X ~ not t when X is not free in t",
        ),
        Obligation(
            "falsity-initial",
            "6.2",
            "abort is the unique focal map out of the falsity type "
            "(falsity is initial in the focus)",
        ),
        Obligation(
            "initial-algebra",
            "6.3",
            "in-sharp is an initial algebra of the double-negated scheme in "
            "the focus; fold a-flat is the unique focal mediating map",
        ),
        Obligation(
            "in-sharp-iso",
            "6.3",
            "in-sharp is an isomorphism with inverse fold (not not F[in]); "
            "for a constant scheme, lam n. n [bot] inverts in-sharp",
        ),
        Obligation(
            "numeral-induction",
            "6.4",
            "the Church-numeral type is a focally initial algebra of the "
            "classical numeral scheme; phi_{g_o, g_s} = g for focal g",
        ),
        Obligation(
            "l-iso-double-negation",
            "7.2",
            "L ~ not not via lam x. x [bot]; alpha factors through C; "
            "linear maps coincide with focal maps",
        ),
    ]
    if not run_oracle:
        return obligations

    from .canonical import EqVerdict
    from .combinators import (
        TypeScheme,
        abort,
        compose,
        dne,
        in_sharp,
        l_alpha,
        l_type,
        identity,
        mu_fix_type,
    )
    from .mu_typing import ctx
    from .theory import LAMBDA_MU_2P, eq_mu

    def verdict(v: EqVerdict) -> str:
        return "Equal" if v.equal else "Distinct"

    out = []
    for ob in obligations:
        notes = list(ob.notes)
        if ob.key == "falsity-initial":
            x = tm.Var("x")
            v1 = eq_mu(
                tm.App(abort(a), tm.TyApp(x, mt.BOT)),
                tm.TyApp(x, a),
                LAMBDA_MU_2P,
                ctx(("x", mt.BOT)),
            )
            v2 = eq_mu(tm.TyApp(x, mt.BOT), x, LAMBDA_MU_2P, ctx(("x", mt.BOT)))
            notes.append(f"instance abort (x [bot]) = x [a]: {verdict(v1)}")
            notes.append(f"instance x [bot] = x: {verdict(v2)}")
        if ob.key == "in-sharp-iso":
            scheme = TypeScheme("X", a)
            fix = mu_fix_type(scheme)
            nna = mt.neg(mt.neg(a))
            n = tm.fresh("n")
            iota = tm.lam(n, fix, tm.TyApp(tm.Var(n), mt.BOT))
            ins = in_sharp(scheme)
            v1 = eq_mu(compose(iota, ins, nna), identity(nna), LAMBDA_MU_2P)
            v2 = eq_mu(compose(ins, iota, fix), identity(fix), LAMBDA_MU_2P)
            notes.append(
                f"constant-scheme composite (n [bot]) . in-sharp = id: {verdict(v1)}"
            )
            notes.append(
                f"constant-scheme composite in-sharp . (n [bot]) = id: {verdict(v2)}"
            )
        if ob.key == "l-iso-double-negation":
            x = tm.fresh("x")
            iota = tm.lam(x, l_type(a), tm.TyApp(tm.Var(x), mt.BOT))
            tri = eq_mu(
                compose(dne(a), iota, l_type(a)), l_alpha(a), LAMBDA_MU_2P
            )
            notes.append(f"triangle C . (x [bot]) = alpha: {verdict(tri)}")
        out.append(Obligation(ob.key, ob.ref, ob.statement, ob.status, tuple(notes)))
    return out
