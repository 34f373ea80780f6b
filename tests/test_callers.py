"""Every module-level definition of the kernel has a caller outside the tests.

An `ast` scan of `src/mu2forge` lists each module-level `def` and
`class` and each name a module-level assignment binds.  A definition
counts as called only through a reference that resolves to it:

* a load of its name in its home module, outside its own statement;
* `from .home import name` in the kernel, or `from mu2forge.home import
  name` in `perfbench/*.py`;
* `alias.name`, where an import in the same file binds `alias` to the
  home module;
* in `perfbench/*.py`, a string constant equal to the name, so the
  benchmark tracer's `LAYERS` table, which names the functions it wraps
  as strings, counts.

So `__all__`, a same-named definition in another module and an
attribute of an object that is not a module (`verdict.equal`,
`SYNTAX.equal`) never count.  `__init__.py` is no caller: its export
table only names what other modules define.  A reference from inside a
definition that has no caller is no caller either, so a helper that
only a test-only definition uses is test-only too.

A definition that only the tests reach is surface the program does not
need.  It fails here until it is deleted or listed in `TEST_ONLY` with
the reason it stays.  The table must hold exactly the uncalled names,
so an entry whose definition gains a caller or goes away fails too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mu2forge"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def defined(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a def's or class's
    name, or the plain names an assignment binds, dunders such as
    `__all__` aside (the import system reads them)."""
    if isinstance(node, DEFS):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
    names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def module_aliases(tree: ast.AST, kernel: bool) -> dict[str, str]:
    """Each name an import anywhere in tree binds to a kernel module:
    `from . import m as alias` in the kernel, `from mu2forge import m`
    or `import mu2forge.m as alias` in the benchmark."""
    out = {}
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and (n.level, n.module) == ((1, None) if kernel else (0, "mu2forge")):
            out.update({a.asname or a.name: a.name for a in n.names})
        elif isinstance(n, ast.Import) and not kernel:
            out.update({a.asname: a.name.split(".", 1)[1] for a in n.names
                        if a.asname and a.name.startswith("mu2forge.")})
    return out


def references(tree: ast.AST, home: str | None, aliases: dict[str, str]) -> set[tuple[str | None, str]]:
    """The (module, name) pairs the nodes under tree refer to, in a file
    of the kernel module home or (home None) of the benchmark whose
    imports bind aliases.  A name load resolves to home, a benchmark
    string constant to (None, name)."""
    kernel, out = home is not None, set()
    package = "mu2forge."
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and kernel:
            out.add((home, n.id))
        elif isinstance(n, ast.ImportFrom):
            if kernel and n.level == 1 and n.module:
                out.update((n.module, a.name) for a in n.names)
            elif not kernel and n.level == 0 and (n.module or "").startswith(package):
                out.update((n.module[len(package):], a.name) for a in n.names)
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in aliases:
            out.add((aliases[n.value.id], n.attr))
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and not kernel:
            out.add((None, n.value))
    return out


def uncalled_in(kernel: dict[str, str], bench: list[str]) -> set[str]:
    """`module.name` for each module-level definition of the kernel
    modules (module name -> source) that no reference from the kernel
    or the benchmark sources resolves to, references from inside an
    uncalled definition aside."""
    trees = {mod: ast.parse(src) for mod, src in kernel.items()}
    defs = {(mod, name) for mod, tree in trees.items() for node in tree.body for name in defined(node)}
    live: set[tuple[str, str]] = set()  # referred to from the benchmark or a statement defining nothing
    per_definition = []  # (names a statement defines, what it refers to)
    for src in bench:
        tree = ast.parse(src)
        refs = references(tree, None, module_aliases(tree, False))
        live |= {(mod, name) for mod, name in refs if mod is not None}
        live |= {d for d in defs if (None, d[1]) in refs}
    for mod, tree in trees.items():
        aliases = module_aliases(tree, True)
        for node in tree.body:
            names = {(mod, name) for name in defined(node)}
            refs = references(node, mod, aliases) - names
            if names:
                per_definition.append((names, refs))
            else:
                live |= refs
    uncalled: set[tuple[str, str]] = set()
    while True:
        called = live.union(*(refs for names, refs in per_definition if not names <= uncalled))
        found = defs - called
        if found == uncalled:
            return {f"{mod}.{name}" for mod, name in uncalled}
        uncalled = found


def uncalled() -> set[str]:
    """The uncalled definitions of the kernel, against the benchmark."""
    kernel = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    return uncalled_in(kernel, [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))])


NATURALITY = (
    "the paper's naturality squares for a focal map: an exported API that the focality work on"
    " ROADMAP item 17 builds on"
)
READER = "the documented s-expression interchange reader; the writer's round-trip tests compare against it"

#: Each definition that only the tests call, with the reason it stays.  A
#: definition only a listed one calls carries its caller's reason.
TEST_ONLY = {
    "focality.check_naturality_square": NATURALITY,
    "focality.check_fold_square": "called by check_naturality_square, " + NATURALITY,
    **{
        f"printer.{name}": READER
        for name in (
            "parse_sexpr", "mu_type_from_sexpr", "mu_term_from_sexpr",
            "target_type_from_sexpr", "target_term_from_sexpr",
        )
    },
    **{
        f"printer.{name}": "a part of " + READER
        for name in ("_read", "_sym", "_calculus", "_MU", "_TARGET", "_TOKEN", "SexprError")
    },
    "rewrite.replay":
        "re-runs the engine's own rules over a trace; ROADMAP item 1's independent checker"
        " replaces and deletes it",
    "target_terms.equal":
        "the stack-safe `==` of closed terms: the reference the tests check the program's"
        " nameful_equal against",
    "target_terms.replace_at":
        "the path rebuild the tests' from-root reference search is built on, which the"
        " resumed search is checked against",
    "target_terms.subterm_at": "the path lookup the tests read replace_at's and the binder passes' results with",
}


def test_every_definition_has_a_caller_outside_the_tests():
    found = uncalled()
    assert sorted(found - TEST_ONLY.keys()) == [], "called only by tests, with no reason listed"
    assert sorted(TEST_ONLY.keys() - found) == [], "listed, but called by the program or gone"
    assert all(TEST_ONLY.values())


def test_each_resolved_reference_counts():
    kernel = {
        "a": "def f(): pass\ndef g(): pass\ndef h(): pass\ndef k(): pass\ndef main(): return f()\n",
        "b": "from .a import g\nfrom . import a as m\nm.h()\n",
    }
    bench = ["from mu2forge.a import main\nLAYERS = [('a', 'k')]\n"]
    assert uncalled_in(kernel, bench) == set()


def test_an_all_string_is_no_caller():
    assert uncalled_in({"a": "__all__ = ['f']\ndef f(): pass\n"}, []) == {"a.f"}


def test_a_same_named_definition_elsewhere_is_no_caller():
    kernel = {"a": "def f(): pass\n", "b": "f = 1\nprint(f)\n"}
    assert uncalled_in(kernel, []) == {"a.f"}


def test_an_attribute_of_an_object_is_no_caller():
    kernel = {"a": "def equal(): pass\n", "b": "from . import a\nprint(a.SYNTAX.equal, object().equal)\n"}
    assert uncalled_in(kernel, []) == {"a.equal"}


def test_a_mention_inside_an_uncalled_definition_is_no_caller():
    kernel = {"a": "def f(): pass\ndef g(): return f()\ndef h(): return g()\n"}
    assert uncalled_in(kernel, []) == {"a.f", "a.g", "a.h"}
