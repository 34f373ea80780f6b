import json

import pytest

from mu2forge.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_typecheck(capsys):
    code, out, _ = run(capsys, "typecheck", r"\x:s. x")
    assert code == 0 and out.strip() == "s → s"


def test_typecheck_target(capsys):
    code, out, _ = run(
        capsys, "typecheck", "--target", "--ctx", "y:not s", r"\x:s. y x"
    )
    assert code == 0 and out.strip() == "¬s"


def test_input_error_exit_2(capsys):
    code, _, err = run(capsys, "typecheck", r"\x:s.")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "typecheck", "ghost")
    assert code == 2


@pytest.mark.parametrize("target", [[], ["--target"]], ids=["source", "target"])
def test_binding_without_a_type_exit_2(capsys, target):
    # Both calculi read --ctx the same way; only the type parser differs.
    code, out, err = run(capsys, "typecheck", *target, "--ctx", "x", "x")
    assert (code, out, err) == (2, "", "error: binding 'x' is not of the form name:type\n")


def test_eq_catalog_example(capsys):
    code, out, _ = run(
        capsys,
        "eq",
        "--theory",
        "p",
        "--ctx",
        "M:s",
        r"C[s] (\k:not s. k M)",
        "M",
    )
    assert code == 0 and out.splitlines()[0] == "Equal"


def test_eq_distinct_exit_1(capsys):
    code, out, _ = run(
        capsys, "eq", "--theory", "beta-eta", "--ctx", "x:s, y:s", "x", "y"
    )
    assert code == 1 and out.splitlines()[0] == "Distinct"


def test_eq_trace(capsys):
    code, _, err = run(
        capsys, "eq", "--trace", "--ctx", "M:s",
        r"(\x:s. x) M", "M",
    )
    assert code == 0
    assert any(line.startswith(("L ", "R ")) for line in err.splitlines())


def test_uncps_then_cps_byte_identical(capsys):
    # normalize a source image, invert it, translate again: same canonical text
    code, canonical, _ = run(capsys, "normalize", "--ctx", "x:s -> s", "x")
    assert code == 0
    code, inverted, _ = run(capsys, "uncps", "--ctx", "x:s -> s", canonical.strip())
    assert code == 0
    code, again, _ = run(capsys, "normalize", "--ctx", "x:s -> s", inverted.strip())
    assert code == 0
    assert canonical == again


def test_eq_target_world(capsys):
    code, out, _ = run(
        capsys,
        "eq",
        "--target",
        "--theory",
        "beta-eta",
        "--ctx",
        "M:not s /\\ t, g:not (not s /\\ t)",
        "let <x, y> = M in g <x, y>",
        "g M",
    )
    assert code == 0 and out.splitlines()[0] == "Equal"


def test_normalize_target_with_trace(capsys):
    code, out, err = run(
        capsys,
        "normalize",
        "--target",
        "--ctx",
        "k:not s /\\ s",
        "--trace",
        "let <x, y> = k in x y",
    )
    assert code == 0
    assert "continuation" in err or "answer" in err


def test_uncps_continuation_prints_context(capsys):
    code, out, err = run(capsys, "uncps", "--names", "k:s", "k")
    assert code == 0
    assert "HOLE" in out
    assert "context with hole" in err
    code, out, err = run(capsys, "uncps", "--ast", "--names", "k:s", "k")
    assert (code, out) == (0, '(mu "_" (forall "X" (tvar "X")) "k" (var "HOLE"))\n')
    assert "context with hole" in err


@pytest.mark.parametrize("argv", [["--ctx", "x:s -> s", r"\k:not s /\ s. let <y, j> = k in x <y, j>"],
                                  ["--names", "k:s", "k"]], ids=["program", "continuation"])
def test_uncps_walks_the_grammar_once(capsys, monkeypatch, argv):
    """One uncps call normalizes once and walks the canonical grammar
    once, with the inverting builder."""
    from mu2forge import canonical, inverse, rewrite

    calls = []

    def counted(real):
        def wrapper(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return wrapper

    walk, normalize = counted(canonical._walk), counted(rewrite.normalize)
    for module in (canonical, inverse):
        monkeypatch.setattr(module, "_walk", walk)
    for module in (rewrite, canonical, inverse):
        monkeypatch.setattr(module, "normalize", normalize, raising=False)
    code, out, _ = run(capsys, "uncps", *argv)
    assert code == 0 and out
    assert sorted(calls) == ["_walk", "normalize"]


def test_focal_check_certificate(capsys):
    code, out, _ = run(
        capsys, "focal-check", "--source", "bot", "--to", "s", "A[s]"
    )
    assert code == 0
    data = json.loads(out)
    assert data["source"] == "⊥"
    assert "transformer" in data


def test_focal_check_refusal_exit_1(capsys):
    code, out, _ = run(
        capsys,
        "focal-check",
        "--source",
        "(s -> t) -> s",
        "--to",
        "s",
        "P[s][t]",
    )
    assert code == 1
    data = json.loads(out)
    assert data["certificate"] is None


def test_free_theorem_golden_text(capsys):
    code, out, _ = run(capsys, "free-theorem", "forall X. X")
    assert code == 0
    from pathlib import Path

    golden = Path(__file__).parent / "golden" / "ft-falsity.txt"
    assert out == golden.read_text(encoding="utf-8")


def test_catalog_lists_entries(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "exotic-numeral" in out
    assert "open obligations" in out


def test_suite_smoke_deterministic(capsys):
    code1, out1, _ = run(capsys, "suite", "--generated", "5", "--seed", "7")
    code2, out2, _ = run(capsys, "suite", "--generated", "5", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.count("PASS") == 13


def test_golden_dir_env_override(capsys, tmp_path, monkeypatch):
    from mu2forge.suite_runner import criterion_12_free_theorems

    monkeypatch.setenv("MU2FORGE_GOLDEN", str(tmp_path))
    result = criterion_12_free_theorems()
    assert not result.passed  # empty directory: goldens missing
    monkeypatch.delenv("MU2FORGE_GOLDEN")


def run_cold(*argv):
    """Run the CLI in a fresh interpreter at the default recursion limit,
    writing no bytecode into the checkout (-B)."""
    import subprocess
    import sys
    from pathlib import Path

    import mu2forge

    src = str(Path(mu2forge.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "mu2forge.cli", *argv],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src, "PYTHONIOENCODING": "utf-8"},
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_deeply_nested_parentheses_parse():
    # The parser climbs precedence over an explicit stack, so nesting far
    # past the recursion limit parses.
    code, out, err = run_cold("typecheck", "--ctx", "x:s", "(" * 3000 + "x" + ")" * 3000)
    assert (code, out, err) == (0, "s\n", "")


def printed_church(n):
    from mu2forge.combinators import church
    from mu2forge.printer import print_mu_term

    return print_mu_term(church(n))


def test_deep_numeral_normalize_exit_2():
    # Classifying a normal form still takes Python frames per level, so
    # normalizing Church 400 overflows there; the kernel must say so as
    # an input error, never as exit 1 (Distinct) or a traceback.
    code, out, err = run_cold("normalize", printed_church(400))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_deep_target_input_typechecks():
    # Target input is typed, and its packs resolved, in one pass on an
    # explicit stack: the CPS image of Church 1000 and a let chain 3000
    # deep in body position both typecheck at the default recursion limit.
    from mu2forge.combinators import church
    from mu2forge.cps import cps_term_typed
    from mu2forge.printer import print_target_term

    image, _ = cps_term_typed((), (), church(1000))
    code, out, err = run_cold("typecheck", "--target", print_target_term(image))
    assert (code, out, err) == (0, "¬(∃X. ¬X ∧ ¬(¬X ∧ X) ∧ X)\n", "")
    lets = "".join(f"let <a{k}, b{k}> = <a{k + 1}, b{k + 1}> in " for k in range(2998, -1, -1))
    chain = f"let <a2999, b2999> = p in {lets}f <s | a0>"
    code, out, err = run_cold("typecheck", "--target", "--ctx", r"p:s /\ s, f:not exists X. X", chain)
    assert (code, out, err) == (0, "R\n", "")


def test_deep_numeral_400_equation_decided():
    # Every pass on the eq path runs on an explicit stack: Church 400,
    # which overflowed the CPS translation before, is decided.
    numeral = printed_church(400)
    code, out, err = run_cold("eq", numeral, numeral)
    assert code == 0, err
    assert out.splitlines()[0] == "Equal"


def test_deep_numeral_equation_decided():
    numeral = printed_church(200)
    code, out, err = run_cold("eq", numeral, numeral)
    assert code == 0, err
    assert out.splitlines()[0] == "Equal"


@pytest.mark.parametrize("ty", ["X", "forall X. Y"])
def test_free_theorem_open_type_exit_2(ty):
    code, out, err = run_cold("free-theorem", ty)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_free_theorem_ast_uses_display_names(capsys):
    expected = (
        '(forall-term "m" (forall "X" (tvar "X")) (forall-type "X" (forall-type "X\'" '
        '(forall-rel "r" "focal" "X" "X\'" (atom (rel-var "r") (tyapp (var "m") (tvar "X")) '
        '(tyapp (var "m") (tvar "X\'")))))))\n'
    )
    code, out, _ = run_cold("free-theorem", "--ast", "forall X. X")
    assert (code, out) == (0, expected)
    # In process, after other work has drawn fresh atoms, the export is the same.
    run(capsys, "catalog")
    code, out, _ = run(capsys, "free-theorem", "--ast", "forall X. X")
    assert (code, out) == (0, expected)


def test_catalog_names_resolve_unless_bound(capsys):
    code, out, _ = run(capsys, "typecheck", "S (S O)")
    assert (code, out) == (0, "∀X. X → (X → X) → X\n")
    code, out, _ = run(capsys, "typecheck", "--ctx", "S:s -> s, x:s", "S x")
    assert (code, out) == (0, "s\n")
    code, out, _ = run(capsys, "typecheck", "--names", "O:s", r"\x:s. [O] x")
    assert (code, out) == (0, "¬s\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["normalize", "--target", "--ctx", "M:not s, g:not not s", r"(\x:not s. g x) M"],
         "error: no canonical form: answer head at type ¬¬s"),
        (["normalize", "--target", "--ctx", "M:not s", r"\g:not not s. g M"],
         "error: no canonical form at ¬¬¬s, not a translated type"),
        (["uncps", "--ctx", "M:s", r"\g:not not s. g M"],
         "error: no canonical form at ¬¬¬s, not a translated type"),
    ],
    ids=["normalize-answer-head", "normalize-type", "uncps-type"],
)
def test_no_canonical_form_exit_2(argv, message):
    # Exit 1 means Distinct or NoCertificate; a term outside the canonical
    # grammar is an input error.
    code, out, err = run_cold(*argv)
    assert (code, out) == (2, "")
    assert err.splitlines() == [message]
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["uncps", "--ctx", "x:s", r"\k:not s. x"], "abstraction body has type ¬s, not R"),
        (["typecheck", "--ctx", "f:s -> s", "f f"], "argument type s → s does not match domain s"),
        (["cps", "--ctx", "f:s -> s", "f f"], "argument type s → s does not match domain s"),
        (["cps", "--ctx", "x:s", "y"], "unbound variable y"),
        (["cps", "--ctx", "x:s", "[b] x"], "unbound name b"),
        (["cps", "--ctx", "x:s", "x x"], "application of a non-arrow type s"),
        (["cps", "--ctx", "x:s", "x [t]"], "type application of a non-forall type s"),
        (["cps", "--ctx", "x:s", "--names", "b:t", "[b] x"], "named term has type s but name b expects t"),
        (["typecheck", "--ctx", "x:s", "mu a:t. [a] x"], "named term has type s but name a expects t"),
        (["eq", "--ctx", "x:s, y:t", "x", "y"], "equation across types s vs t"),
        (["focal-check", "--source", "s", "--to", "t", r"\x:s. x"], "subject has type s → s, expected s → t"),
    ],
    ids=["target_typing", "mu_typing", "cps", "cps-unbound-variable", "cps-unbound-name", "cps-non-arrow",
         "cps-non-forall", "cps-named-term", "mu-bound-name", "theory", "focality"],
)
def test_type_errors_print_surface_syntax(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["typecheck", "cps"])
@pytest.mark.parametrize(
    "term, message",
    [
        (r"/\X. \x:X. x x", "application of a non-arrow type X"),
        (r"/\X. \f:X -> X. \y:forall Y. Y. f y", "argument type ⊥ does not match domain X"),
        (r"/\X. \x:X. x [X]", "type application of a non-forall type X"),
        (r"/\X. /\Y. \y:Y. mu a:X. [a] y", "named term has type Y but name a expects X"),
    ],
    ids=["non-arrow", "argument", "non-forall", "named-term"],
)
def test_type_atom_messages_do_not_depend_on_fresh_counter(capsys, monkeypatch, command, term, message):
    # A type under a type abstraction is shown with its binder's name,
    # not the walk's fresh atom, so the bytes do not depend on how many
    # atoms the process drew before.
    import itertools

    from mu2forge import mu_terms as tm

    seen = []
    for start in (1, 10**6):
        monkeypatch.setattr(tm, "_fresh_counter", itertools.count(start))
        seen.append(run(capsys, command, term))
    assert seen == [(2, "", f"error: {message}\n")] * 2


@pytest.mark.parametrize("command", ["typecheck", "normalize"])
@pytest.mark.parametrize(
    "ctx, term, message",
    [
        ("v:exists X. X", "let <X, x> = v in x", "type variable X escapes through the let-pack result X"),
        ("v:exists X. X", "let <Y, x> = v in let <Z, y> = v in <x, y>",
         "type variable Z escapes through the let-pack result Y ∧ Z"),
        ("v:exists X. X, f:not s", "let <X, x> = v in f x", "argument type X does not match expected s"),
        ("v:exists X. not X", "let <X, x> = v in let <y, z> = x in y", "let-pair scrutinee has type ¬X"),
    ],
    ids=["escape", "escape-nested", "argument", "scrutinee"],
)
def test_target_type_atom_messages_do_not_depend_on_fresh_counter(capsys, monkeypatch, command, ctx,
                                                                    term, message):
    # As above for target input: a let-pack's type atom is shown by its
    # binder's name.
    import itertools

    from mu2forge import mu_terms as tm

    seen = []
    for start in (1, 10**6):
        monkeypatch.setattr(tm, "_fresh_counter", itertools.count(start))
        seen.append(run(capsys, command, "--target", "--ctx", ctx, term))
    assert seen == [(2, "", f"error: {message}\n")] * 2


LET_PAIR, LET_PACK = "let <x, y> = k in x y", "let <X, y> = k in y"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["typecheck", "--target", "--ctx", "k:b", LET_PAIR], "let-pair scrutinee has type b"),
        (["typecheck", "--target", "--ctx", "k:b", LET_PACK], "let-pack scrutinee has type b"),
        (["typecheck", "--target", "--ctx", r"k:b /\ b", LET_PACK], "let-pack scrutinee has type b ∧ b"),
        (["normalize", "--target", "--ctx", "k:b", LET_PAIR], "let-pair scrutinee has type b"),
        (["normalize", "--target", "--ctx", "k:b", LET_PACK], "let-pack scrutinee has type b"),
        (["eq", "--target", "--ctx", "k:b", LET_PAIR, LET_PAIR], "let-pair scrutinee has type b"),
        (["uncps", "--names", "k:b", LET_PAIR], "let-pair scrutinee has type b"),
        (["uncps", "--names", "k:b", LET_PACK], "let-pack scrutinee has type b"),
    ],
    ids=["typecheck-pair", "typecheck-pack", "typecheck-pack-conj", "normalize-pair",
         "normalize-pack", "eq-pair", "uncps-pair", "uncps-pack"],
)
def test_ill_typed_let_scrutinee_exit_2(capsys, argv, message):
    # A let's scrutinee is typed before its body, on every command that
    # reads target input; a scrutinee of the wrong shape is a typing
    # error, not a failure in a later pass.
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["typecheck", "--ctx", "x:s, x:t", "x"],
        ["cps", "--ctx", "x:s, x:t", "x"],
        ["eq", "--ctx", "x:s, x:t", "x", "x"],
        ["normalize", "--ctx", "x:s, x:t", "x"],
    ],
    ids=["typecheck", "cps", "eq", "normalize"],
)
def test_ill_formed_context_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: duplicate variable 'x'\n")
    code, out, err = run(capsys, argv[0], "--ctx", "x:s", "--names", "x:s", *argv[3:])
    assert (code, out, err) == (2, "", "error: variable and name zones share an identifier\n")


@pytest.mark.parametrize(
    "argv",
    [["normalize", "S (S O)"], ["eq", "S (S O)", "S (S O)"], ["eq", "--theory", "p", "S O", "S (S O)"]],
    ids=["normalize", "eq", "eq-p"],
)
def test_step_budget_exits_2(capsys, monkeypatch, argv):
    # Running out of rewrite steps is a resource limit, not a Distinct verdict.
    from mu2forge import rewrite

    monkeypatch.setattr(rewrite, "MAX_STEPS", 3)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: rewrite did not terminate within the step budget\n")


def test_other_rewrite_errors_stay_uncaught(capsys, monkeypatch):
    from mu2forge import rewrite

    def fault(*args):
        raise rewrite.RewriteError("kernel fault")

    monkeypatch.setattr(rewrite, "_run", fault)
    with pytest.raises(rewrite.RewriteError, match="kernel fault"):
        main(["normalize", "S O"])


@pytest.mark.parametrize("mode", ["plain", "parametric"])
def test_normalize_program_at_falsity(capsys, mode):
    # x : ¬(∃X.X) is already long: in parametric mode its η-expansion
    # would turn k into ⋆ and star-eta would contract it back, forever.
    code, out, err = run(capsys, "normalize", "--mode", mode, "--ctx", "m:bot -> b, x:bot", "m x")
    assert (code, out, err) == (0, "λk:b. m ⟨x, k⟩\n", ". program : ¬b\n")


def test_eq_on_abort_instance_decides(capsys):
    ctx = "m:forall a. bot -> a, x:bot, y:bot"
    code, out, err = run(capsys, "eq", "--theory", "p", "--ctx", ctx, r"(\z:bot. z [a]) (m [bot] x)", "m [a] y")
    assert code == 1 and out.splitlines()[0] == "Distinct"
