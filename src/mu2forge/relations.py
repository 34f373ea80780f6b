"""Relational machinery: admissible relations (target), focal relations
(source), parametricity statements, graph instantiation, and the ledger
of parametricity-only proof obligations.

Formulas are first-class data with a stable pretty-printer.  Emitting a
statement is always possible; discharging one happens only when the
equality oracle suffices, and everything else stays an open obligation.
"""

from __future__ import annotations

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
# Relations: what an atom of a formula relates two terms by.


class Relation:
    __slots__ = ()


@record
class RelVar(Relation):
    """A relation variable; left and right are the types it relates, when known."""

    name: str
    left: object = None
    right: object = None


@record
class IdentityRef(Relation):
    type: object


@record
class GraphRef(Relation):
    """Graph of a focal map."""

    map: object  # MuTerm (source) or TargetTerm (target)


@record
class NegRel(Relation):
    body: Relation


@record
class ConjRel(Relation):
    left: Relation
    right: Relation


@record
class ExistsRel(Relation):
    var: str
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
    kind: str  # "focal"
    left: str
    right: str
    body: RelFormula


FOCAL = "focal"

# The role of each field of a formula or relation record: an atom that a
# formula binds (BIND), that a relation term binds (LOCAL) or that refers
# to such a binder (REF), a type or term (SYNTAX), a nested formula or
# relation (NODE), or a value kept as it is (KEEP).  Renaming maps every
# BIND, LOCAL and REF atom and every type and term; the export writes these
# fields but not the types a relation is annotated with (NOTE_SYNTAX).
BIND, LOCAL, REF, SYNTAX, NODE, KEEP, NOTE_SYNTAX = range(7)

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
    GraphRef: ("graph", (SYNTAX,)),
    NegRel: ("neg-rel", (NODE,)),
    ConjRel: ("conj-rel", (NODE, NODE)),
    ExistsRel: ("exists-rel", (LOCAL, NODE)),
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
# The logical relations.  One walk over the types of either calculus: the
# focal relation of the source (variable, arrow, forall) and the admissible
# relation of the target (variable, R, negation, conjunction, exists),
# each type unfolding straight into the formula that relates two terms.


def relate(ty, env: dict[str, Relation], left, right) -> RelFormula:
    """The formula saying that left and right are related at ty.

    env maps each free type variable of ty to its relation.  A negation
    relates functions that send related arguments to equal answers, a
    conjunction quantifies over pair decompositions, and a forall over
    the two instances and a focal relation between them.  Existentials
    stay atomic: they assert a witness and an admissible relation, which
    the formula language keeps abstract.
    """
    match ty:
        case mt.TVar() | tt.TgVarT() | tt.RType() | tt.Exists():
            return RelAtom(target_relation(ty, env), left, right)
        case mt.Arrow(dom, cod):
            return _function(dom, cod, env, left, right, tm.Var, tm.App)
        case tt.Neg(dom):  # ¬τ is τ → R
            return _function(dom, tt.R, env, left, right, tg.TgVar, tg.TgApp)
        case tt.Conj(first, second):
            x, x2, y, y2 = (tm.fresh(n) for n in ("x", "x'", "y", "y'"))
            ty_l, ty_r = _ends(ty, env)
            eq_l = RelAtom(IdentityRef(ty_l), left, tg.Pair(tg.TgVar(x), tg.TgVar(x2)))
            eq_r = RelAtom(IdentityRef(ty_r), right, tg.Pair(tg.TgVar(y), tg.TgVar(y2)))
            both = And(relate(first, env, tg.TgVar(x), tg.TgVar(y)),
                       relate(second, env, tg.TgVar(x2), tg.TgVar(y2)))
            out: RelFormula = Implies(eq_l, Implies(eq_r, both))
            for v, vt in ((y2, ty_r.right), (y, ty_r.left), (x2, ty_l.right), (x, ty_l.left)):
                out = ForallTerm(v, vt, out)
            return out
        case mt.Forall(hint, body):
            base = tm.base_name(hint) or "X"
            xl, xr, r = tm.fresh(base), tm.fresh(base + "'"), tm.fresh("r")
            inner = relate(mt.open_tvar(body, xl), {**env, xl: RelVar(r, mt.TVar(xl), mt.TVar(xr))},
                           tm.TyApp(left, mt.TVar(xl)), tm.TyApp(right, mt.TVar(xr)))
            return ForallType(xl, ForallType(xr, ForallRel(r, FOCAL, xl, xr, inner)))
    raise TypeError(ty)


def _function(dom, cod, env, left, right, var, app) -> RelFormula:
    """Related functions send related arguments to related results."""
    x, y = tm.fresh("x"), tm.fresh("y")
    dom_l, dom_r = _ends(dom, env)
    prem = relate(dom, env, var(x), var(y))
    concl = relate(cod, env, app(left, var(x)), app(right, var(y)))
    return ForallTerm(x, dom_l, ForallTerm(y, dom_r, Implies(prem, concl)))


def _ends(ty, env: dict[str, Relation]) -> tuple[object, object]:
    """ty's two endpoint types: each variable that env relates by a
    relation variable with known types replaced by its left, resp. right,
    type."""
    rels = [(n, r) for n, r in env.items() if r.__class__ is RelVar and r.left is not None]
    return tuple(_syntax(ty).subst(TVAR, ty, {n: getattr(r, end) for n, r in rels})
                 for end in ("left", "right"))


def target_relation(ty, env: dict[str, Relation]) -> Relation:
    """The relation at a type as a relation term: what an atom of a formula
    prints at a variable of either calculus, at R, and at an ∃, whose
    admissible relation the formula language keeps abstract."""
    match ty:
        case mt.TVar(n) | tt.TgVarT(n):
            if n not in env:
                raise UnboundRelVar(n)
            return env[n]
        case tt.RType():
            return IdentityRef(tt.R)
        case tt.Neg(body):
            return NegRel(target_relation(body, env))
        case tt.Conj(left, right):
            return ConjRel(target_relation(left, env), target_relation(right, env))
        case tt.Exists(hint, body):
            x = tm.fresh(tm.base_name(hint) or "X")
            return ExistsRel(x, target_relation(tt.open_tvar(body, x), {**env, x: RelVar(x)}))
    raise TypeError(ty)


def free_theorem(sigma: mt.MuType) -> RelFormula:
    """The focal parametricity statement for a closed type:
    every M : sigma is related to itself."""
    if mt.ftv(sigma):
        from .printer import print_mu_type

        raise OpenType(f"free theorems are stated for closed types, not {print_mu_type(sigma)}")
    m = tm.fresh("m")
    return ForallTerm(m, sigma, relate(sigma, {}, tm.Var(m), tm.Var(m)))


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
    tysub: dict[str, mt.MuType] = {}

    def sub(x):
        return tm.SYNTAX.subst(TVAR, x, tysub) if isinstance(x, (tm.MuTerm, mt.MuType)) else x

    node = formula
    while node.__class__ is not ForallRel:
        match node:
            case ForallTerm(v, ty, body):
                binders.append((v, sub(ty)))
                node = body
            case ForallType(xl, ForallType(xr, ForallRel() as node)):
                tysub[xl], tysub[xr] = cert.source, cert.target
            case ForallType():
                raise NotFocal("expected paired type quantifiers before the relation")
            case _:
                raise NotFocal("formula has no relation quantifier at its head")
    graph = GraphRef(cert.subject)
    body = _map_formula(node.body, {}, sub, {node.var: graph})
    out: list[DischargeEquation] = []
    _collect_equations(body, tuple(binders), False, out)
    return out


def _map_formula(f: RelFormula, names: dict[str, str], sub, rels: dict[str, Relation]) -> RelFormula:
    """Rebuild f in one pass: every BIND, LOCAL and REF atom renamed by names,
    every type and term through sub(), and each relation variable that
    rels names by its relation.  Kept fields stay as they are."""
    if f.__class__ is RelVar and f.name in rels:
        return rels[f.name]
    return f.__class__(*(
        names.get(v, v) if role in (BIND, LOCAL, REF)
        else sub(v) if role in (SYNTAX, NOTE_SYNTAX)
        else _map_formula(v, names, sub, rels) if role == NODE
        else v
        for role, v in _fields(f)
    ))


def _collect_equations(formula, binders, conditional, out) -> None:
    match formula:
        case RelAtom(GraphRef(map=f), left, right):
            out.append(DischargeEquation(binders, tm.App(f, left), right, conditional))
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
    """formula with every quantified atom under its display name.

    A formula binder (BIND) takes a name that no other binder and no free
    atom shows.  A relation term's binder (LOCAL) shows its hint unless a
    relation variable free under it shows that name, so an ∃ of an atom
    prints as its hint, as the type printer would show it."""
    from .printer import Names

    order: list[str] = []
    free: set[str] = set()

    def walk(f):  # the formula binders, in order, and the free atoms
        for role, v in _fields(f):
            if role == BIND:
                order.append(v)
            elif role == SYNTAX and (syntax := _syntax(v)) is not None:
                free.update(syntax.free(VAR, v), syntax.free(TVAR, v))
            elif role == NODE:
                walk(v)

    walk(formula)
    free -= set(order)
    display = Names({tm.base_name(a) for a in free} | free)
    names = {atom: display.bind(atom, "") for atom in order}

    def name_locals(f):  # outer binders first: their names are shown under them
        for role, v in _fields(f):
            if role == LOCAL:
                shown = {tm.base_name(names.get(a, a)) for a in _refs(f)}
                names[v] = Names(shown).pick(v, "")[1]
            elif role == NODE:
                name_locals(v)

    name_locals(formula)
    mu_reps = ({a: tm.Var(n) for a, n in names.items()}, {a: mt.TVar(n) for a, n in names.items()})
    tg_reps = ({a: tg.TgVar(n) for a, n in names.items()}, {a: tt.TgVarT(n) for a, n in names.items()})

    def rename(x):
        syntax = _syntax(x)
        if syntax is None:
            return x
        vars_, tvars = mu_reps if syntax is tm.SYNTAX else tg_reps
        return syntax.subst(TVAR, syntax.subst(VAR, x, vars_), tvars)

    return _map_formula(formula, names, rename, {})


def _refs(f) -> set[str]:
    """The REF atoms free in a formula or relation record."""
    out: set[str] = set()
    bound: set[str] = set()
    for role, v in _fields(f):
        if role == REF:
            out.add(v)
        elif role == NODE:
            out |= _refs(v)
        elif role in (BIND, LOCAL):
            bound.add(v)
    return out - bound


def _show(x, prec: int = 0) -> str:
    """A type or term of either calculus as its printer shows it."""
    from .printer import print_mu_term, print_mu_type, print_target_term, print_target_type

    if isinstance(x, mt.MuType):
        return print_mu_type(x, prec=prec)
    if isinstance(x, tt.TargetType):
        return print_target_type(x, prec=prec)
    if isinstance(x, tm.MuTerm):
        return print_mu_term(x)
    if isinstance(x, tg.TargetTerm):
        return print_target_term(x)
    return str(x)


def _pf(f: RelFormula) -> str:
    match f:
        case ForallTerm(v, ty, body):
            return f"∀{v} : {_show(ty, 2)}. {_pf(body)}"
        case ForallType(v, body):
            return f"∀{v}. {_pf(body)}"
        case ForallRel(v, kind, left, right, body):
            return f"∀{v} : {left} ↔ {right} ({kind}). {_pf(body)}"
        case Implies(p, c):
            return f"({_pf(p)}) ⇒ ({_pf(c)})"
        case And(left, right):
            return f"({_pf(left)}) ∧ ({_pf(right)})"
        case RelAtom(rel, left, right):
            return f"{_pr(rel)}({_show(left)}, {_show(right)})"
    raise TypeError(f)


def _pr(rel: Relation) -> str:
    match rel:
        case RelVar(n, _, _):
            return tm.base_name(n)
        case IdentityRef(ty):
            return f"id[{_show(ty)}]"
        case GraphRef(map=f):
            return f"⟨{_show(f)}⟩"
        case NegRel(body):
            return f"¬{_pr(body)}"
        case ConjRel(left, right):
            return f"({_pr(left)} ∧ {_pr(right)})"
        case ExistsRel(x, body):
            return f"(∃{tm.base_name(x)}. {_pr(body)})"
    raise TypeError(rel)


# ---------------------------------------------------------------------------
# Structured export: ``(tag field ...)`` per record, from FORMAT; a type or
# term through the interchange writer.


def formula_to_sexpr(f: RelFormula) -> str:
    from .printer import _atom, sexpr

    out = [FORMAT[f.__class__][0]]
    for role, v in _fields(f):
        if role == NODE:
            out.append(formula_to_sexpr(v))
        elif role == SYNTAX:
            out.append(sexpr(v))
        elif role in (BIND, LOCAL, REF, KEEP):
            out.append(_atom(v))
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
