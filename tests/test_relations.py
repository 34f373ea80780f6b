import pytest

from mu2forge import mu_terms as tm
from mu2forge import mu_types as mt
from mu2forge import target_terms as tg
from mu2forge import target_types as tt
from mu2forge.combinators import abort, identity
from mu2forge.focality import check_focal
from mu2forge.relations import (
    ConjRel,
    ExistsRel,
    ForallRel,
    ForallTerm,
    ForallType,
    IdentityRef,
    Implies,
    NegRel,
    NotFocal,
    OpenType,
    RelAtom,
    RelVar,
    UnboundRelVar,
    formula_to_sexpr,
    free_theorem,
    instantiate_graph,
    open_obligations,
    print_formula,
    relate,
    rename_for_display,
    target_relation,
)
from mu2forge.theory import LAMBDA_MU_2P, eq_mu

A, B = mt.TVar("a"), mt.TVar("b")


def test_target_relation_clauses():
    env = {"X": RelVar("r")}
    assert target_relation(tt.TgVarT("X"), env) == RelVar("r")
    assert target_relation(tt.R, env) == IdentityRef(tt.R)
    assert target_relation(tt.Neg(tt.TgVarT("X")), env) == NegRel(RelVar("r"))
    got = target_relation(tt.Conj(tt.R, tt.TgVarT("X")), env)
    assert got == ConjRel(IdentityRef(tt.R), RelVar("r"))
    got = target_relation(tt.TOP, {})
    assert isinstance(got, ExistsRel) and got.body == RelVar(got.var)
    with pytest.raises(UnboundRelVar):
        target_relation(tt.TgVarT("missing"), {})


def test_relate_target_atoms():
    f, g = tg.TgVar("f"), tg.TgVar("g")
    env = {"X": RelVar("r")}
    assert relate(tt.TgVarT("X"), env, f, g) == RelAtom(RelVar("r"), f, g)
    assert relate(tt.R, env, f, g) == RelAtom(IdentityRef(tt.R), f, g)
    got = relate(tt.TOP, {}, f, g)
    assert isinstance(got.rel, ExistsRel) and (got.left, got.right) == (f, g)
    with pytest.raises(UnboundRelVar):
        relate(tt.TgVarT("missing"), {}, f, g)


def test_target_relation_unfolds_negation_clause():
    r = RelVar("r", tt.TgVarT("t1"), tt.TgVarT("t2"))
    formula = relate(tt.Neg(tt.TgVarT("X")), {"X": r}, tg.TgVar("f"), tg.TgVar("g"))
    assert print_formula(formula) == "∀x : t1. ∀y : t2. (r(x, y)) ⇒ (id[R](f x, g y))"


def test_target_formula_exports():
    from mu2forge.printer import parse_sexpr

    formula = relate(tt.Neg(tt.TgVarT("X")), {"X": RelVar("r")}, tg.TgVar("f"), tg.TgVar("g"))
    assert print_formula(formula) == "∀x : X. ∀y : X. (r(x, y)) ⇒ (id[R](f x, g y))"
    text = formula_to_sexpr(rename_for_display(formula))
    assert parse_sexpr(text)[0] == ("sym", "forall-term")
    assert '(app (var "f") (var "x"))' in text and '(var "g")' in text


def test_target_relation_unfolds_conjunction_clause():
    r = RelVar("r", tt.TgVarT("t1"), tt.TgVarT("t2"))
    formula = relate(tt.Conj(tt.R, tt.TgVarT("X")), {"X": r}, tg.TgVar("u"), tg.TgVar("v"))
    text = print_formula(formula)
    assert "id[R ∧ t1](u, ⟨x, x'⟩)" in text
    assert "id[R ∧ t2](v, ⟨y, y'⟩)" in text
    assert "(id[R](x, y)) ∧ (r(x', y'))" in text


def test_relate_source_clauses():
    f, g = tm.Var("f"), tm.Var("g")
    env = {"X": RelVar("r", A, B)}
    assert relate(mt.TVar("X"), env, f, g) == RelAtom(RelVar("r", A, B), f, g)
    got = relate(mt.Arrow(mt.TVar("X"), mt.TVar("X")), env, f, g)
    assert got.type == A and got.body.type == B  # the domain at the two endpoints
    got = relate(mt.forall("Y", mt.TVar("Y")), {}, f, g)
    assert isinstance(got, ForallType) and isinstance(got.body.body, ForallRel)
    rel = got.body.body
    assert (rel.left, rel.right) == (got.var, got.body.var)
    assert rel.body == RelAtom(
        RelVar(rel.var, mt.TVar(rel.left), mt.TVar(rel.right)),
        tm.TyApp(f, mt.TVar(rel.left)),
        tm.TyApp(g, mt.TVar(rel.right)),
    )
    with pytest.raises(UnboundRelVar):
        relate(mt.TVar("missing"), {}, f, g)


def test_unfold_arrow_shape():
    formula = relate(mt.Arrow(mt.TVar("X"), mt.TVar("X")), {"X": RelVar("r", A, A)}, tm.Var("f"), tm.Var("g"))
    assert isinstance(formula, ForallTerm)
    assert isinstance(formula.body, ForallTerm)
    assert isinstance(formula.body.body, Implies)
    x, y = formula.var, formula.body.var
    assert formula.body.body == Implies(
        RelAtom(RelVar("r", A, A), tm.Var(x), tm.Var(y)),
        RelAtom(RelVar("r", A, A), tm.App(tm.Var("f"), tm.Var(x)), tm.App(tm.Var("g"), tm.Var(y))),
    )


def test_free_theorem_requires_closed_type():
    with pytest.raises(OpenType):
        free_theorem(mt.TVar("X"))


def test_free_theorem_falsity_text():
    text = print_formula(free_theorem(mt.BOT))
    assert text == "∀m : ⊥. ∀X. ∀X'. ∀r : X ↔ X' (focal). r(m [X], m [X'])"


def test_print_formula_deterministic():
    ty = mt.forall("X", mt.Arrow(mt.Arrow(A, mt.TVar("X")), mt.TVar("X")))
    with pytest.raises(OpenType):
        free_theorem(ty)  # contains the free variable a
    closed = mt.forall("X", mt.Arrow(mt.Arrow(mt.BOT, mt.TVar("X")), mt.TVar("X")))
    assert print_formula(free_theorem(closed)) == print_formula(free_theorem(closed))


def test_instantiate_graph_at_abort():
    cert = check_focal(abort(A), mt.BOT, A)
    eqs = instantiate_graph(free_theorem(mt.BOT), cert)
    assert len(eqs) == 1
    eq = eqs[0]
    assert not eq.conditional
    assert len(eq.gamma) == 1
    assert eq_mu(eq.left, eq.right, LAMBDA_MU_2P, eq.gamma).equal


def test_instantiate_graph_at_identity():
    cert = check_focal(identity(mt.BOT), mt.BOT, mt.BOT)
    eqs = instantiate_graph(free_theorem(mt.BOT), cert)
    assert len(eqs) == 1
    assert eq_mu(eqs[0].left, eqs[0].right, LAMBDA_MU_2P, eqs[0].gamma).equal


def test_instantiate_graph_requires_certificate():
    with pytest.raises(NotFocal):
        instantiate_graph(free_theorem(mt.BOT), None)


def test_conditional_equations_marked():
    closed = mt.forall("X", mt.Arrow(mt.Arrow(mt.BOT, mt.TVar("X")), mt.TVar("X")))
    cert = check_focal(abort(A), mt.BOT, A)
    eqs = instantiate_graph(free_theorem(closed), cert)
    assert eqs, "expected at least one collected equation"
    assert all(e.conditional for e in eqs)


def test_formula_sexpr_export():
    text = formula_to_sexpr(rename_for_display(free_theorem(mt.BOT)))
    assert text.startswith("(forall-term")
    assert "(forall-rel" in text and '"focal"' in text


def test_display_renaming_keeps_binders_apart():
    # y%1 is shown as y, so the bound y must move to y1 without y%1 following it.
    f = ForallTerm("y%1", A, ForallTerm("y", A, RelAtom(IdentityRef(A), tm.Var("y%1"), tm.Var("y"))))
    assert print_formula(rename_for_display(f)) == "∀y : a. ∀y1 : a. id[a](y, y1)"


def test_obligations_catalog():
    obs = {ob.key: ob for ob in open_obligations()}
    for key in (
        "final-coalgebra",
        "coalgebra-iso",
        "falsity-initial",
        "initial-algebra",
        "in-sharp-iso",
        "l-iso-double-negation",
    ):
        assert obs[key].status == "open"
        assert obs[key].ref
    assert obs["terminal-top"].status == "adopted-as-rewrite"


def test_obligation_oracle_notes():
    obs = {ob.key: ob for ob in open_obligations(run_oracle=True)}
    falsity = obs["falsity-initial"]
    assert any("Equal" in note for note in falsity.notes)
    assert falsity.status == "open"  # instances never close the claim
    iso = obs["in-sharp-iso"]
    assert any("Distinct" in note for note in iso.notes)


def test_target_formula_export_ignores_the_atom_counter():
    # Display names reach into relation terms: an ∃ atom's binder is
    # exported under its hint, as the text shows it, not as a fresh atom.
    from mu2forge.cps import cps_type
    from mu2forge.surface import parse_mu_type

    f, g = tg.TgVar("f"), tg.TgVar("g")
    sources = ["forall X. X", "forall a. (forall X. X) -> a", "forall X. (forall X. X -> X) -> X -> X"]
    types = [cps_type(parse_mu_type(s)) for s in sources]

    def exports():
        return [formula_to_sexpr(rename_for_display(relate(tt.Neg(ty), {}, f, g))) for ty in types]

    first = exports()
    for _ in range(1000):
        tm.fresh("X")
    assert exports() == first
    assert not any("%" in text for text in first)
    assert '(exists-rel "X" (rel-var "X"))' in first[0]


def test_relation_binders_shadow_only_unseen_names():
    f, g = tg.TgVar("f"), tg.TgVar("g")
    siblings = tt.Conj(tt.Neg(tt.TOP), tt.TOP)
    text = print_formula(relate(tt.Exists("X", siblings), {}, f, g))
    assert text == "(∃X. (¬(∃X. X) ∧ (∃X. X)))(f, g)"
    # an inner X that the body refers past must not show the outer one's name
    nested = tt.Exists("X", tt.Exists("X", tt.Conj(tt.TgBoundT(1), tt.TgBoundT(0))))
    assert print_formula(relate(nested, {}, f, g)) == "(∃X. (∃X1. (X ∧ X1)))(f, g)"
