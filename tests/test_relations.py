import pytest

from mu2forge import mu_terms as tm
from mu2forge import mu_types as mt
from mu2forge import target_types as tt
from mu2forge.combinators import abort, identity
from mu2forge.focality import check_focal
from mu2forge.relations import (
    AllRel,
    ArrowRel,
    ConjRel,
    ExistsRel,
    ForallTerm,
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
    mu_relation,
    open_obligations,
    print_formula,
    rename_for_display,
    target_relation,
    unfold,
)
from mu2forge.theory import LAMBDA_MU_2P, eq_mu

A, B = mt.TVar("a"), mt.TVar("b")


def test_target_relation_clauses():
    env = {"X": RelVar("r")}
    assert target_relation(tt.TgVarT("X"), env) == RelVar("r")
    assert target_relation(tt.R, env) == IdentityRef(tt.R)
    got = target_relation(tt.Neg(tt.TgVarT("X")), env)
    assert isinstance(got, NegRel) and got.body == RelVar("r")
    got = target_relation(tt.Conj(tt.R, tt.TgVarT("X")), env)
    assert isinstance(got, ConjRel)
    assert got.left == IdentityRef(tt.R) and got.right == RelVar("r")
    got = target_relation(tt.TOP, {})
    assert isinstance(got, ExistsRel)
    with pytest.raises(UnboundRelVar):
        target_relation(tt.TgVarT("missing"), {})


def test_target_relation_unfolds_negation_clause():
    from mu2forge import target_terms as tg
    from mu2forge.relations import unfold_target

    r = RelVar("r", tt.TgVarT("t1"), tt.TgVarT("t2"))
    rel = target_relation(
        tt.Neg(tt.TgVarT("X")), {"X": r}, {"X": tt.TgVarT("t1")}, {"X": tt.TgVarT("t2")}
    )
    text = print_formula(unfold_target(rel, tg.TgVar("f"), tg.TgVar("g")))
    assert text == "∀x : t1. ∀y : t2. (r(x, y)) ⇒ (id[R](f x, g y))"


def test_target_formula_exports():
    from mu2forge import target_terms as tg
    from mu2forge.printer import parse_sexpr
    from mu2forge.relations import unfold_target

    rel = target_relation(tt.Neg(tt.TgVarT("X")), {"X": RelVar("r")})
    formula = unfold_target(rel, tg.TgVar("f"), tg.TgVar("g"))
    text = formula_to_sexpr(rename_for_display(formula))
    assert parse_sexpr(text)[0] == ("sym", "forall-term")
    assert '(app (var "f") (var "x"))' in text and '(var "g")' in text


def test_target_relation_unfolds_conjunction_clause():
    from mu2forge import target_terms as tg
    from mu2forge.relations import unfold_target

    r = RelVar("r", tt.TgVarT("t1"), tt.TgVarT("t2"))
    rel = target_relation(
        tt.Conj(tt.R, tt.TgVarT("X")),
        {"X": r},
        {"X": tt.TgVarT("t1")},
        {"X": tt.TgVarT("t2")},
    )
    formula = unfold_target(rel, tg.TgVar("u"), tg.TgVar("v"))
    text = print_formula(formula)
    assert "id[R ∧ t1](u, ⟨x, x'⟩)" in text
    assert "(id[R](x, y)) ∧ (r(x', y'))" in text


def test_mu_relation_clauses():
    env = {"X": RelVar("r", A, B)}
    assert mu_relation(mt.TVar("X"), env) == RelVar("r", A, B)
    got = mu_relation(mt.Arrow(mt.TVar("X"), mt.TVar("X")), env, {"X": A}, {"X": B})
    assert isinstance(got, ArrowRel)
    assert got.dom_left == A and got.dom_right == B
    got = mu_relation(mt.forall("Y", mt.TVar("Y")), {})
    assert isinstance(got, AllRel)
    with pytest.raises(UnboundRelVar):
        mu_relation(mt.TVar("missing"), {})


def test_unfold_arrow_shape():
    rel = mu_relation(mt.Arrow(mt.TVar("X"), mt.TVar("X")), {"X": RelVar("r", A, A)}, {"X": A}, {"X": A})
    formula = unfold(rel, tm.Var("f"), tm.Var("g"))
    assert isinstance(formula, ForallTerm)
    assert isinstance(formula.body, ForallTerm)
    assert isinstance(formula.body.body, Implies)


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
