"""Every recursive function of the kernel, pinned with a reason.

An `ast` scan of `src/mu2forge` finds each function that calls itself
and each group of functions that call one another in a cycle.  A call
is resolved by name: to a function defined in an enclosing function or
at module level, to a function imported from a sibling module, to
`m.f` where m names a sibling module, and to `self.f` or `cls.f`
within a class.  A call through a table or a variable (a rule, a
`rewrite._ENV_STEPS` entry) is not followed, so a cycle that closes
only through one is missed.  A recursive function costs one Python
frame per level of its input, so a deep enough input raises
RecursionError.  Each entry below says what bounds that depth.  A new
recursive function, say a term walk, fails here until it is listed
with its reason or rewritten on an explicit stack.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mu2forge"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def own_nodes(node):
    """The nodes of node's own scope: every node below it, stopping at
    (but yielding) each nested function or class."""
    todo = list(ast.iter_child_nodes(node))
    while todo:
        n = todo.pop()
        yield n
        if not isinstance(n, (*DEFS, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(n))


def call_graph() -> dict[str, set[str]]:
    """Qualified function name -> the functions its calls resolve to."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    tops = {mod: {n.name: f"{mod}.{n.name}" for n in own_nodes(tree) if isinstance(n, DEFS)}
            for mod, tree in trees.items()}
    edges: dict[str, set[str]] = {}
    for mod, tree in trees.items():
        imported, modules = {}, {}
        for n in own_nodes(tree):
            if isinstance(n, ast.ImportFrom) and n.level == 1:
                for a in n.names:
                    if n.module is None:
                        modules[a.asname or a.name] = a.name
                    elif a.name in tops.get(n.module, {}):
                        imported[a.asname or a.name] = tops[n.module][a.name]

        def resolve(func, scopes, methods):
            if isinstance(func, ast.Name):
                for scope in reversed(scopes):
                    if func.id in scope:
                        return scope[func.id]
                return imported.get(func.id)
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                base = func.value.id
                if base in ("self", "cls"):
                    return methods.get(func.attr)
                if base in modules:
                    return tops.get(modules[base], {}).get(func.attr)
            return None

        def enter(node, qual, scopes, methods):
            for n in own_nodes(node):
                if isinstance(n, ast.ClassDef):
                    inner = {m.name: f"{qual}{n.name}.{m.name}" for m in own_nodes(n) if isinstance(m, DEFS)}
                    enter(n, f"{qual}{n.name}.", scopes, inner)
                elif isinstance(n, DEFS):
                    name = f"{qual}{n.name}"
                    inner = scopes + [{m.name: f"{name}.{m.name}" for m in own_nodes(n) if isinstance(m, DEFS)}]
                    calls = (resolve(c.func, inner, methods) for c in own_nodes(n) if isinstance(c, ast.Call))
                    edges[name] = {c for c in calls if c is not None}
                    enter(n, f"{name}.", inner, methods)

        enter(tree, f"{mod}.", [tops[mod]], {})
    return edges


def recursion_inventory() -> set[str]:
    """One entry per cycle of the call graph: a function that recurses
    alone by its name, a group of mutually recursive functions by its
    members joined with " <-> "."""
    edges = call_graph()
    reach = {}
    for f in edges:
        seen, todo = set(), list(edges[f])
        while todo:
            g = todo.pop()
            if g not in seen:
                seen.add(g)
                todo.extend(edges.get(g, ()))
        reach[f] = seen
    return {" <-> ".join(sorted(g for g in reach[f] if f in reach[g])) for f in edges if f in reach[f]}


TYPE = "over a type, one frame per constructor: the parser bounds a type's depth"
FORMULA = "over a relation formula, whose depth follows its type's: one clause per type constructor"
PARSER = "the recursive-descent type parser, one frame per arrow or conjunction: a deeper type exits 2"
GENERATOR = "the generator, bounded by its budget"
TERM = "over a term, one frame per level; unbounded"

#: Each recursive function or group, with what bounds its depth.
INVENTORY = {
    "canonical._answer <-> canonical._continuation <-> canonical._lets <-> canonical._program":
        TERM + ": the canonical-grammar walk, and `normalize` of Church 400 exits 2",
    "combinators.TypeScheme.polarities.go": TYPE,
    "combinators._act": TYPE,
    "cps._Image.type": TYPE,
    "cps.cps_type": TYPE,
    "focality._linear_spine": TERM + " along a certificate's continuation spine",
    "inverse._Inverse.let": TERM + ", once per context nested in a let body as the context is filled",
    "printer._read.go": TERM + ": the s-expression reader",
    "printer.print_mu_type": TYPE,
    "printer.print_target_type": TYPE,
    "relations._collect_equations": FORMULA,
    "relations._function <-> relations.relate": TYPE,
    "relations._map_formula": FORMULA,
    "relations._pf": FORMULA,
    "relations._pr": FORMULA,
    "relations._refs": FORMULA,
    "relations.formula_to_sexpr": FORMULA,
    "relations.rename_for_display.name_locals": FORMULA,
    "relations.rename_for_display.walk": FORMULA,
    "relations.target_relation": TYPE,
    "rewrite.nameful_synth": TERM + " of pairs and of lets along a body chain; the let step goes"
        " through `_env_through`'s table, which this scan does not follow",
    "surface._mu_type <-> surface._mu_type_atom": PARSER,
    "surface._tg_type <-> surface._tg_type_atom": PARSER,
    "target_types.is_image": TYPE,
    "target_types.uncps_type": TYPE,
    "target_typing._generalise": TYPE,
    "theory._gen <-> theory._gen_one": GENERATOR + " and a depth cut at 24",
    "theory._inhabited.inh <-> theory._inhabited.mu <-> theory._inhabited.step": GENERATOR,
    "theory.gen_type": GENERATOR + ": its depth argument",
}


def test_recursion_inventory():
    found = recursion_inventory()
    assert sorted(found - INVENTORY.keys()) == [], "recursive, with no reason listed"
    assert sorted(INVENTORY.keys() - found) == [], "listed, but no longer recursive"
    assert all(INVENTORY.values())
