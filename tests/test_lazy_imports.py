"""What a fresh interpreter loads: the lazy package namespace and the
modules each CLI subcommand imports."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import mu2forge

SRC = str(Path(mu2forge.__file__).resolve().parents[1])

# Every check runs in a fresh interpreter and first asserts that a bare
# `import mu2forge` loaded no submodule.
PRELUDE = """
import sys
import mu2forge
loaded = [m for m in sys.modules if m.startswith("mu2forge.")]
assert not loaded, loaded
"""


def run_fresh(code: str, *argv: str) -> str:
    # -B: the fresh environment drops PYTHONDONTWRITEBYTECODE, and a child
    # must not leave bytecode in the checkout.
    proc = subprocess.run(
        [sys.executable, "-B", "-c", PRELUDE + textwrap.dedent(code), *argv],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PYTHONIOENCODING": "utf-8"},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_public_names_are_their_home_module_attributes():
    run_fresh(
        """
        import importlib
        for module, names in mu2forge._EXPORTS.items():
            home = importlib.import_module(f"mu2forge.{module}")
            for name in names:
                assert getattr(mu2forge, name) is getattr(home, name), name
                assert vars(mu2forge)[name] is getattr(home, name), name
        assert sorted(mu2forge.__all__) == sorted(n for ns in mu2forge._EXPORTS.values() for n in ns)
        """
    )


def test_dir_lists_every_public_name():
    run_fresh(
        """
        missing = set(mu2forge.__all__) - set(dir(mu2forge))
        assert not missing, missing
        assert "__version__" in dir(mu2forge)
        """
    )


def test_unknown_attribute_raises_attribute_error():
    run_fresh(
        """
        try:
            mu2forge.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("no AttributeError")
        assert not hasattr(mu2forge, "_private_helper")
        """
    )


def test_star_import_binds_every_public_name():
    run_fresh(
        """
        namespace = {}
        exec("from mu2forge import *", namespace)
        missing = set(mu2forge.__all__) - set(namespace)
        assert not missing, missing
        assert namespace["eq_mu"] is sys.modules["mu2forge.theory"].eq_mu
        """
    )


# A cold call runs `python -m mu2forge.cli` through runpy and reports the
# kernel modules it loaded.
COLD_CALL = """
import contextlib, io, json, runpy
sys.argv = ["mu2forge", *sys.argv[1:]]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        runpy.run_module("mu2forge.cli", run_name="__main__")
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("mu2forge."))]))
"""

CORE = {"surface", "printer", "mu_typing", "target_typing", "mu_types", "mu_terms", "target_types",
        "target_terms", "syntax", "record"}


# Exact sets: `typecheck` loads none of cps, canonical, rewrite, theory,
# combinators, inverse, focality, relations or suite_runner, with or
# without --target (which types and resolves packs in target_typing);
# `cps` only cps, whose translation runs mu_typing's walk; `eq` none of
# inverse, focality, relations or suite_runner; `normalize` not inverse,
# which only `uncps` adds; `free-theorem` none of rewrite, canonical or
# focality.
@pytest.mark.parametrize(
    "argv, code, layer",
    [
        (["typecheck", r"\x:s. x"], 0, set()),
        (["typecheck", "--target", "--ctx", "y:not s", r"<s | \x:s. y x>"], 0, set()),
        (["cps", r"\x:s. x"], 0, {"cps"}),
        (["eq", "--ctx", "x:s, y:s", "x", "y"], 1, {"cps", "canonical", "rewrite", "theory"}),
        (["normalize", "--ctx", "x:s", "x"], 0, {"cps", "canonical", "rewrite"}),
        (["uncps", "--ctx", "x:s -> s", "x"], 0, {"cps", "canonical", "rewrite", "inverse"}),
        (["free-theorem", "forall X. X"], 0, {"relations"}),
    ],
    ids=["typecheck", "typecheck-target", "cps", "eq", "normalize", "uncps", "free-theorem"],
)
def test_cold_call_loads_only_its_layer(argv, code, layer):
    got, loaded = json.loads(run_fresh(COLD_CALL, *argv).splitlines()[-1])
    assert got == code
    assert set(loaded) == CORE | layer


# The kernel's records are built without `dataclasses`, whose import also
# loads `inspect`.
@pytest.mark.parametrize(
    "argv",
    [["typecheck", r"\x:s. x"], ["eq", "--ctx", "x:s, y:s", "x", "y"], ["free-theorem", "forall X. X"]],
    ids=["typecheck", "eq", "free-theorem"],
)
def test_cold_call_loads_neither_dataclasses_nor_inspect(argv):
    run_fresh(COLD_CALL + 'assert not {"dataclasses", "inspect"} & set(sys.modules)', *argv)
