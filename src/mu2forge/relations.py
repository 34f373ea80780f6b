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
from .record import field, fields, record
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

# The role of each field of a formula or relation record: an atom that the
# record binds (BIND) or that refers to such a binder (REF), a type or term
# (SYNTAX), a nested formula or relation (NODE), or a value kept as it is
# (KEEP).  Renaming maps every BIND and REF atom and every type and term;
# the export writes these fields but not the endpoint annotations, which
# are a type or term (NOTE_SYNTAX) or kept (NOTE).
BIND, REF, SYNTAX, NODE, KEEP, NOTE_SYNTAX, NOTE = range(7)

#: Per formula and relation record: its export tag and its fields' roles.
FORMAT = {
    ForallTerm: ("forall-term", (BIND, SYNTAX, NODE)),
    ForallType: ("forall-type", (BIND, NODE)),
    ForallRel: ("forall-rel", (BIND, KEEP, REF, REF, NODE)),
    Implies: ("implies", (NODE, NODE)),
    And: ("and", (NODE, NODE)),
    RelAtom: ("atom", (NODE, SYNTAX, SYNTAX)),
    RelVar: ("rel-var", (REF, NOTE_SYNTAX, NOTE_SYNTAX)),
    IdentityRef: ("identity", (NOTE_SYNTAX,)),
    GraphRef: ("graph", (SYNTAX, KEEP, NOTE, NOTE, NOTE)),
    NegRel: ("neg-rel", (NODE, NOTE, NOTE)),
    ConjRel: ("conj-rel", (NODE, NODE, NOTE, NOTE)),
    ExistsRel: ("exists-rel", (BIND, NODE)),
    ArrowRel: ("arrow-rel", (NODE, NODE, NOTE_SYNTAX, NOTE_SYNTAX)),
    AllRel: ("all-rel", (BIND, BIND, BIND, NODE)),
}


def _fields(r) -> list[tuple[int, object]]:
    """(role, value) per field of a formula or relation record."""
    return [(role, getattr(r, f.name)) for role, f in zip(FORMAT[r.__class__][1], fields(r.__class__))]


def _syntax(x):
    """The binder syntax of x's calculus, or None when x is no type or term."""
    if isinstance(x, (tm.MuTerm, mt.MuType)):
        return tm.SYNTAX
    return tg.SYNTAX if isinstance(x, (tg.TargetTerm, tt.TargetType)) else None


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
    """Rebuild f in one pass: every BIND and REF atom renamed by names,
    every type and term through sub(), and each relation variable that
    rels names by its relation.  Kept fields stay as they are."""
    if f.__class__ is RelVar and f.name in rels:
        return rels[f.name]
    return f.__class__(*(
        names.get(v, v) if role in (BIND, REF)
        else sub(v) if role in (SYNTAX, NOTE_SYNTAX)
        else _map_formula(v, names, sub, rels) if role == NODE
        else v
        for role, v in _fields(f)
    ))


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
    return _pf(rename_for_display(formula))


def rename_for_display(formula: RelFormula) -> RelFormula:
    from .printer import Names

    order: list[str] = []
    free: set[str] = set()

    def walk(f):  # the quantified atoms, in order, and the free ones
        for role, v in _fields(f):
            if role == BIND:
                order.append(v)
            elif role == SYNTAX and (syntax := _syntax(v)) is not None:
                free.update(syntax.free(VAR, v), syntax.free(TVAR, v))
            elif role == NODE and isinstance(v, RelFormula):
                walk(v)

    walk(formula)
    free -= set(order)
    display = Names({tm.base_name(a) for a in free} | free)
    names = {atom: display.bind(atom, "") for atom in order}
    mu_reps = ({a: tm.Var(n) for a, n in names.items()}, {a: mt.TVar(n) for a, n in names.items()})
    tg_reps = ({a: tg.TgVar(n) for a, n in names.items()}, {a: tt.TgVarT(n) for a, n in names.items()})

    def rename(x):
        syntax = _syntax(x)
        if syntax is None:
            return x
        vars_, tvars = mu_reps if syntax is tm.SYNTAX else tg_reps
        return syntax.subst(TVAR, syntax.subst(VAR, x, vars_), tvars)

    return _map_formula(formula, names, rename, {})


def _pf(f: RelFormula) -> str:
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
            return f"∀{v} : {pty(ty)}. {_pf(body)}"
        case ForallType(v, body):
            return f"∀{v}. {_pf(body)}"
        case ForallRel(v, kind, left, right, body):
            return f"∀{v} : {left} ↔ {right} ({kind}). {_pf(body)}"
        case Implies(p, c):
            return f"({_pf(p)}) ⇒ ({_pf(c)})"
        case And(left, right):
            return f"({_pf(left)}) ∧ ({_pf(right)})"
        case RelAtom(rel, left, right):
            return f"{_pr(rel)}({ptm(left)}, {ptm(right)})"
    raise TypeError(f)


def _pr(rel: Relation) -> str:
    from .printer import print_mu_term, print_mu_type, print_target_term, print_target_type

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
                return f"⟨{print_target_term(f)}⟩"
            return f"⟨{label}⟩"
        case NegRel(body, _, _):
            return f"¬{_pr(body)}"
        case ConjRel(left, right, _, _):
            return f"({_pr(left)} ∧ {_pr(right)})"
        case ExistsRel(x, body):
            return f"(∃{tm.base_name(x)}. {_pr(body)})"
        case ArrowRel(dom, cod, _, _):
            return f"({_pr(dom)} → {_pr(cod)})"
        case AllRel(xl, xr, r, body):
            return f"(∀{xl} {xr} {r}. {_pr(body)})"
    raise TypeError(rel)


# ---------------------------------------------------------------------------
# Structured export: ``(tag field ...)`` per record, from FORMAT; a type or
# term through the interchange writer, a flag as "focal" or "plain".


def formula_to_sexpr(f: RelFormula) -> str:
    from .printer import _atom, sexpr

    out = [FORMAT[f.__class__][0]]
    for role, v in _fields(f):
        if role == NODE:
            out.append(formula_to_sexpr(v))
        elif role == SYNTAX:
            out.append(sexpr(v))
        elif role in (BIND, REF, KEEP):
            out.append(_atom(("focal" if v else "plain") if isinstance(v, bool) else v))
    return f"({' '.join(out)})"


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
