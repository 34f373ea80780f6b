"""Every module-level definition of the kernel has a caller outside the tests.

An `ast` scan of `src/mu2forge` lists each module-level `def` and
`class` and each name a module-level assignment binds.  A definition
counts as called when its name appears somewhere else: in
`src/mu2forge`, outside its own statement and outside
`__init__.py`, or anywhere in `perfbench/*.py`.  A name, an attribute,
an imported name or a string constant equal to the name all count, so
the benchmark tracer's `LAYERS` table, which names the functions it
wraps as strings, counts.  The scan is by name only: a name that also
spells some attribute elsewhere counts as called.

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


def mentions(tree: ast.AST) -> set[str]:
    """The names, attributes, imported names and string constants under tree."""
    out, todo = set(), [tree]
    while todo:
        n = todo.pop()
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
            out.add(n.asname or n.name)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
        todo.extend(ast.iter_child_nodes(n))
    return out


def uncalled() -> set[str]:
    """`module.name` for each module-level definition of the kernel whose
    name appears nowhere else in the kernel or the benchmark."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    bench = set().union(*(mentions(ast.parse(p.read_text())) for p in sorted((ROOT / "perfbench").glob("*.py"))))
    per_statement = {mod: [mentions(node) for node in tree.body] for mod, tree in trees.items()}
    whole = {mod: set().union(*names) for mod, names in per_statement.items()}
    out = set()
    for mod, tree in trees.items():
        others = bench.union(*(names for m, names in whole.items() if m != mod))
        statements = per_statement[mod]
        for i, node in enumerate(tree.body):
            if names := defined(node):
                called = others.union(*statements[:i], *statements[i + 1:])
                out.update(f"{mod}.{name}" for name in names if name not in called)
    return out


#: Each definition that only the tests call, with the reason it stays.
TEST_ONLY = {
    "focality.check_naturality_square":
        "the paper's naturality squares for a focal map: an exported API that the focality"
        " work on ROADMAP item 17 builds on",
    **{
        f"printer.{name}":
            "the documented s-expression interchange reader; the writer's round-trip tests"
            " compare against it"
        for name in (
            "parse_sexpr", "mu_type_from_sexpr", "mu_term_from_sexpr",
            "target_type_from_sexpr", "target_term_from_sexpr",
        )
    },
    "rewrite.replay":
        "re-runs the engine's own rules over a trace; ROADMAP item 1's independent checker"
        " replaces and deletes it",
}


def test_every_definition_has_a_caller_outside_the_tests():
    found = uncalled()
    assert sorted(found - TEST_ONLY.keys()) == [], "called only by tests, with no reason listed"
    assert sorted(TEST_ONLY.keys() - found) == [], "listed, but called by the program or gone"
    assert all(TEST_ONLY.values())
