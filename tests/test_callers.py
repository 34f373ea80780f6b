"""Every module-level definition of the kernel has a caller outside the tests.

An `ast` scan of `src/mu2forge` lists each module-level `def` and
`class`.  A definition counts as called when its name appears somewhere
else: in `src/mu2forge`, outside its own body and outside
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


def mentions(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """The names, attributes, imported names and string constants under
    tree, not looking inside skip."""
    out, todo = set(), [tree]
    while todo:
        n = todo.pop()
        if n is skip:
            continue
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
    whole = {mod: mentions(tree) for mod, tree in trees.items()}
    out = set()
    for mod, tree in trees.items():
        others = bench.union(*(names for m, names in whole.items() if m != mod))
        for node in tree.body:
            if isinstance(node, DEFS) and node.name not in others | mentions(tree, skip=node):
                out.add(f"{mod}.{node.name}")
    return out


#: Each definition that only the tests call, with the reason it stays.
TEST_ONLY = {
    "focality.check_naturality_square":
        "the paper's naturality squares for a focal map: an exported API that the focality"
        " work on ROADMAP item 17 builds on",
    "printer.parse_sexpr":
        "the documented s-expression interchange reader; the writer's round-trip tests"
        " compare against it",
    "rewrite.replay":
        "re-runs the engine's own rules over a trace; ROADMAP item 1's independent checker"
        " replaces and deletes it",
}


def test_every_definition_has_a_caller_outside_the_tests():
    found = uncalled()
    assert sorted(found - TEST_ONLY.keys()) == [], "called only by tests, with no reason listed"
    assert sorted(TEST_ONLY.keys() - found) == [], "listed, but called by the program or gone"
    assert all(TEST_ONLY.values())
