"""Spans around the kernel's layer boundaries, recorded from outside.

`Tracer.install` wraps each public function listed in LAYERS wherever a
module holds a reference to it: the defining module and every module
that imported it by name, the benchmark's own workloads included.  A
function that calls itself by name keeps its defining module's
reference, so its recursion is neither wrapped nor made deeper.

A span records name, start, end, parent and item id.  Spans stay in
memory; `write` saves them when the run ends.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# layer -> (module, function) pairs wrapped for it
LAYERS = {
    "theory.gen": [("theory", "gen_judgement"), ("theory", "gen_typed_term")],
    "theory.eq": [("theory", "eq_mu")],
    "mu_typing": [("mu_typing", "typecheck_mu")],
    "cps": [("cps", "cps_term_typed"), ("cps", "cps_term"), ("cps", "check_subst_type_in_type"),
            ("cps", "check_subst_term_in_term"), ("cps", "check_subst_type_in_term")],
    "target_typing": [("target_typing", "typecheck_target")],
    "rewrite": [("rewrite", "normalize")],
    "canonical": [("canonical", "canonicalize"), ("canonical", "eq_target")],
    "canonical.classify": [("canonical", "classify")],
    "inverse": [("inverse", "invert"), ("inverse", "roundtrip")],
    "focality": [("focality", "check_focal"), ("focality", "check_discardable"),
                 ("focality", "check_repeatable")],
    "relations": [("relations", "free_theorem"), ("relations", "print_formula"),
                  ("relations", "instantiate_graph")],
    "surface": [("surface", "parse_mu_term"), ("surface", "parse_mu_type"),
                ("surface", "parse_target_term"), ("surface", "parse_target_type"),
                ("surface", "tokenize")],
    "printer": [("printer", "print_mu_term"), ("printer", "print_mu_type"),
                ("printer", "print_target_term"), ("printer", "print_target_type"),
                ("printer", "sexpr_mu_term"), ("printer", "sexpr_target_term")],
    "cli": [("cli", "main")],
}

# benchmark modules that import kernel functions by name
CONSUMERS = ("workloads",)

# rewrite rule name -> step class, from the engine's own rule groups
STEP_CLASSES = (("beta", "BETA_RULES"), ("eta", "ETA_RULES"), ("hoist", "HOIST_RULES"),
                ("star", "STAR_RULES"), ("expand", "EXPAND_RULES"), ("share", "SHARE_RULES"))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent, item, error]
        self.results: list[tuple[int, tuple, object]] = []  # span index, args, result
        self.item = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        homes = {m: importlib.import_module(f"mu2forge.{m}") for funcs in LAYERS.values() for m, _ in funcs}
        namespaces = [m for name, m in sys.modules.items()
                      if name.startswith("mu2forge") or name in CONSUMERS]
        for layer, funcs in LAYERS.items():
            for modname, fname in funcs:
                home = homes[modname]
                orig = getattr(home, fname)
                wrapper = self._wrap(orig, layer, f"{modname}.{fname}")
                recursive = fname in orig.__code__.co_names
                for ns in namespaces:
                    if recursive and ns is home:
                        continue
                    for attr, value in list(vars(ns).items()):
                        if value is orig:
                            setattr(ns, attr, wrapper)
                            self._patched.append((ns, attr, orig))

    def uninstall(self) -> None:
        for ns, attr, orig in reversed(self._patched):
            setattr(ns, attr, orig)
        self._patched.clear()

    def _wrap(self, orig, layer: str, name: str):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else None, self.item, None]
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                span[3] = clock()
                span[6] = type(exc).__name__
                raise
            else:
                span[3] = clock()
                self.results.append((index, args, result))
                return result
            finally:
                stack.pop()

        wrapper.__wrapped__ = orig
        return wrapper

    def reset(self) -> None:
        self.spans.clear()
        self.results.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer over the recorded spans."""
        covered = [0.0] * len(self.spans)
        for name, layer, start, end, parent, item, error in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, layer, start, end, *_), cov in zip(self.spans, covered):
            out[layer] += end - start - cov
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for index, (name, layer, start, end, parent, item, error) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                     "parent": parent, "item": item, "error": error}) + "\n")


def node_count(term) -> int:
    from mu2forge.target_terms import children

    count, todo = 0, [term]
    while todo:
        count += 1
        todo.extend(children(todo.pop()))
    return count


def layer_counts(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts from the spans and their results, which repeat
    exactly for the same inputs, plus the time spent in give-ups."""
    from mu2forge import rewrite
    from mu2forge.focality import NoCertificate

    spans = tracer.spans
    c: dict[str, float] = defaultdict(float)

    def outermost(i: int, layer: str) -> bool:
        parent = spans[i][4]
        return parent is None or spans[parent][1] != layer

    for i, (name, layer, start, end, parent, item, error) in enumerate(spans):
        top = outermost(i, layer)
        if layer == "theory.gen" and top:
            c["theory.gen.attempts"] += 1
            if error == "GaveUp":
                c["theory.gen.gaveup"] += 1
                c["theory.gen.gaveup_s"] += end - start
        elif layer in ("rewrite", "cps", "target_typing", "mu_typing", "inverse", "focality") and top:
            c[f"{layer}.calls"] += 1
        elif name == "canonical.eq_target":
            c["canonical.eq.calls"] += 1
    rule_class = {}
    for cls, group in STEP_CLASSES:
        for rule, _ in getattr(rewrite, group):
            rule_class[rule] = cls
    for index, args, result in tracer.results:
        name, layer = spans[index][0], spans[index][1]
        top = outermost(index, layer)
        if name == "rewrite.normalize":
            term, steps = result
            c["rewrite.steps"] += len(steps)
            for step in steps:
                c[f"rewrite.steps.{rule_class[step.rule]}"] += 1
            c["rewrite.in_nodes"] += node_count(args[0])
            c["rewrite.out_nodes"] += node_count(term)
        elif name in ("cps.cps_term_typed", "cps.cps_term") and top:
            target = result[0] if isinstance(result, tuple) else result
            c["cps.out_nodes"] += node_count(target)
        elif name == "canonical.eq_target":
            c["canonical.eq.equal"] += bool(result.equal)
        elif name == "focality.check_focal" and top:
            c["focality.refused" if isinstance(result, NoCertificate) else "focality.certified"] += 1
        elif name == "relations.print_formula":
            c["relations.formula_chars"] += len(result)
        elif name == "surface.tokenize":
            c["surface.tokens"] += len(result)
        elif layer == "printer" and top:
            c["printer.chars"] += len(result)
    attempts = c["theory.gen.attempts"]
    c["theory.gen.yield"] = (attempts - c["theory.gen.gaveup"]) / attempts if attempts else 0.0
    return c
