"""Command-line front end.

Subcommands: typecheck, cps, uncps, normalize, eq, focal-check,
free-theorem, catalog, suite.  Exit codes: 0 success, 1 a Distinct or
NoCertificate verdict where success was demanded, 2 input error or
resource limit (nesting depth, rewrite steps).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import mu_terms as tm
from . import mu_types as mt
from .mu_typing import MuTypeError, check_contexts, typecheck_mu
from .printer import (
    print_mu_term,
    print_mu_type,
    print_target_term,
    print_target_type,
    sexpr_mu_term,
    sexpr_target_term,
)
from .surface import (
    MuParseError,
    _Parser,
    parse_mu_term,
    parse_mu_type,
    parse_target_term,
    parse_target_type,
)
from .target_types import NotInImageType
from .target_typing import (
    PARAMETRIC,
    PLAIN,
    TargetTypeError,
    UnboundTargetVariable,
    resolve_nameful,
)

# A cold call imports only the parse/print/typing core above; each cmd_*
# imports the layer it runs.  The printers stay imported here by name:
# perfbench's tracer wraps a self-recursive function only in the modules
# that import it by name.

THEORY_CHOICES = ("beta-eta", "p")
# names a source term may leave free to mean a polymorphic catalog combinator
CATALOG_NAMES = ("C", "P", "A", "O", "S", "exotic")


class CliError(Exception):
    pass


def _parse_bindings(spec: str | None, parse):
    """name:type bindings: each name an identifier, each type read by parse."""
    out = []
    if not spec:
        return tuple(out)
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, ty = chunk.partition(":")
        if not ty:
            raise CliError(f"binding {chunk!r} is not of the form name:type")
        try:
            p = _Parser(name)
            ident = p.ident()
            p.done()
        except MuParseError:
            raise CliError(f"binding {chunk!r}: {name.strip()!r} is not an identifier") from None
        out.append((ident, parse(ty.strip())))
    return tuple(out)


def _polymorphic_catalog(names) -> dict[str, tm.MuTerm]:
    from .combinators import abort, church_succ, church_zero, dne, exotic_numeral, peirce

    a, b = mt.TVar("X"), mt.TVar("Y")
    build = {
        "C": lambda: tm.tylam("X", dne(a)),
        "P": lambda: tm.tylam("X", tm.tylam("Y", peirce(a, b))),
        "A": lambda: tm.tylam("X", abort(a)),
        "O": church_zero,
        "S": church_succ,
        "exotic": exotic_numeral,
    }
    return {name: build[name]() for name in names}


def _resolve_catalog_names(term: tm.MuTerm, bound: set[str]) -> tm.MuTerm:
    # Combinators are closed, so one substitution never frees another name.
    free = tm.fv(term)
    wanted = [name for name in CATALOG_NAMES if name in free and name not in bound]
    if not wanted:
        return term
    for name, combinator in _polymorphic_catalog(wanted).items():
        term = tm.subst_term(term, name, combinator)
    return term


def _load_mu(args, text: str) -> tuple[tm.MuTerm, tuple, tuple]:
    gamma = _parse_bindings(getattr(args, "ctx", None), parse_mu_type)
    delta = _parse_bindings(getattr(args, "names", None), parse_mu_type)
    term = parse_mu_term(text)
    term = _resolve_catalog_names(term, {n for n, _ in gamma} | {n for n, _ in delta})
    return term, gamma, delta


def cmd_typecheck(args) -> int:
    if args.target:
        tctx = _parse_bindings(args.ctx, parse_target_type)
        _, ty = resolve_nameful(parse_target_term(args.expr), tctx, args.mode)
        print(print_target_type(ty))
        return 0
    term, gamma, delta = _load_mu(args, args.expr)
    ty = typecheck_mu(gamma, delta, term)
    print(print_mu_type(ty))
    return 0


def cmd_cps(args) -> int:
    from .cps import cps_term_typed

    term, gamma, delta = _load_mu(args, args.expr)
    target, ty = cps_term_typed(gamma, delta, term)
    if args.ast:
        print(sexpr_target_term(target))
    else:
        print(print_target_term(target))
    print(f". : ¬{print_mu_type(ty, prec=2)}°", file=sys.stderr)
    return 0


def _no_canonical_form(exc: Exception) -> CliError:
    """The input error for a normal form outside the canonical grammar
    (NotCanonical) or at a type that translates no source type."""
    if isinstance(exc, NotInImageType):
        return CliError(f"no canonical form at {print_target_type(exc.args[0])}, not a translated type")
    return CliError(f"no canonical form: {exc}")


def cmd_normalize(args) -> int:
    from .canonical import NotCanonical, canonicalize_nameful
    from .cps import cps_context, translate

    mode = PARAMETRIC if args.mode == "parametric" else PLAIN
    if args.target:
        tctx = _parse_bindings(args.ctx, parse_target_type)
        term, type_ = resolve_nameful(parse_target_term(args.expr), tctx, mode)
    else:
        source, gamma, delta = _load_mu(args, args.expr)
        term, _ = translate(gamma, delta, source)
        tctx, type_ = cps_context(gamma, delta), None
    try:
        form = canonicalize_nameful(term, type_, mode, tctx)
    except (NotCanonical, NotInImageType) as exc:
        raise _no_canonical_form(exc) from exc
    print(print_target_term(form.term))
    print(f". {form.kind} : {print_target_type(form.type)}", file=sys.stderr)
    if args.trace:
        for step in form.trace:
            print(step.render(), file=sys.stderr)
    return 0


def cmd_uncps(args) -> int:
    from .canonical import CONTINUATION, NotCanonical
    from .cps import cps_context
    from .inverse import invert_nameful

    gamma = _parse_bindings(args.ctx, parse_mu_type)
    delta = _parse_bindings(args.names, parse_mu_type)
    check_contexts(gamma, delta)
    tctx = cps_context(gamma, delta)
    term, type_ = resolve_nameful(parse_target_term(args.expr), tctx, PLAIN)
    try:
        kind, result = invert_nameful(term, type_, tctx)
    except (NotCanonical, NotInImageType) as exc:
        raise _no_canonical_form(exc) from exc
    continuation = kind == CONTINUATION
    term = result(tm.Var("HOLE")) if continuation else result
    print(sexpr_mu_term(term) if args.ast else print_mu_term(term))
    if continuation:
        print(f". context with hole HOLE : {print_mu_type(result.hole_type)}", file=sys.stderr)
    return 0


def cmd_eq(args) -> int:
    from .canonical import eq_typed
    from .theory import BETA_ETA, LAMBDA_MU_2P, eq_mu

    theory = BETA_ETA if args.theory == "beta-eta" else LAMBDA_MU_2P
    if args.target:
        tctx = _parse_bindings(args.ctx, parse_target_type)
        mode = PARAMETRIC if theory == LAMBDA_MU_2P else PLAIN
        # Each side is typed once, by the walk that resolves its packs.
        left, lty = resolve_nameful(parse_target_term(args.left), tctx, mode)
        right, rty = resolve_nameful(parse_target_term(args.right), tctx, mode)
        verdict = eq_typed(left, lty, right, rty, mode, tctx)
    else:
        left, gamma, delta = _load_mu(args, args.left)
        right = _load_mu(args, args.right)[0]
        verdict = eq_mu(left, right, theory, gamma, delta)
    if args.trace:
        for step in verdict.left_trace:
            print(f"L {step.render()}", file=sys.stderr)
        for step in verdict.right_trace:
            print(f"R {step.render()}", file=sys.stderr)
    if verdict.equal:
        print("Equal")
        print(print_target_term(verdict.shared))
        return 0
    print("Distinct")
    print(print_target_term(verdict.left))
    print(print_target_term(verdict.right))
    return 1


def cmd_focal_check(args) -> int:
    from .focality import NoCertificate, certificate_to_dict, check_focal

    term, gamma, delta = _load_mu(args, args.expr)
    s1 = parse_mu_type(args.source)
    s2 = parse_mu_type(args.to)
    cert = check_focal(term, s1, s2, gamma, delta)
    if isinstance(cert, NoCertificate):
        print(json.dumps({"certificate": None, "reason": cert.reason}, indent=2))
        return 1
    print(json.dumps(certificate_to_dict(cert), indent=2, ensure_ascii=False))
    return 0


def cmd_free_theorem(args) -> int:
    from .relations import (
        OpenType,
        formula_to_sexpr,
        free_theorem,
        print_formula,
        rename_for_display,
    )

    ty = parse_mu_type(args.type)
    try:
        formula = free_theorem(ty)
    except OpenType as exc:
        raise CliError(exc) from exc
    if args.ast:
        # display names, as in the text: raw atoms would show the fresh-atom counter
        print(formula_to_sexpr(rename_for_display(formula)))
    else:
        print(print_formula(formula))
    return 0


def cmd_catalog(args) -> int:
    from .combinators import catalog
    from .relations import open_obligations

    for entry in catalog():
        print(f"{entry.name:16s} : {print_mu_type(entry.type)}")
        print(f"{'':16s}   [{entry.ref}] {entry.description}")
    print()
    print("open obligations (emitted, never decided):")
    for ob in open_obligations(run_oracle=args.oracle):
        print(f"  {ob.key:24s} [{ob.ref}] {ob.status}")
        if args.oracle:
            for note in ob.notes:
                print(f"    note: {note}")
    return 0


def cmd_suite(args) -> int:
    from .suite_runner import run_acceptance

    results = run_acceptance(seed=args.seed, generated=args.generated, golden=args.golden_dir)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} criterion {r.number}: {r.name} :: {r.detail}")
        failed += not r.passed
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mu2forge",
        description="second-order lambda-mu kernel: typing, CPS, equality, focality, free theorems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--ctx", help="gamma bindings, e.g. 'x:s, f:s -> t'")
        p.add_argument("--names", help="delta bindings (continuation names)")

    p = sub.add_parser("typecheck", help="synthesise the type of a term")
    p.add_argument("expr")
    p.add_argument("--target", action="store_true", help="typecheck a target-calculus term")
    p.add_argument("--mode", choices=["plain", "parametric"], default="plain")
    common(p)
    p.set_defaults(fn=cmd_typecheck)

    p = sub.add_parser("cps", help="translate a source term")
    p.add_argument("expr")
    p.add_argument("--ast", action="store_true", help="print the s-expression AST")
    common(p)
    p.set_defaults(fn=cmd_cps)

    p = sub.add_parser("normalize", help="canonicalize (a translation of) a term")
    p.add_argument("expr")
    p.add_argument("--target", action="store_true")
    p.add_argument("--mode", choices=["plain", "parametric"], default="plain")
    p.add_argument("--trace", action="store_true", help="print the rewrite trace")
    common(p)
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("uncps", help="invert a canonical target program")
    p.add_argument("expr")
    p.add_argument("--ast", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_uncps)

    p = sub.add_parser("eq", help="decide an equation")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--theory", choices=THEORY_CHOICES, default="p")
    p.add_argument("--target", action="store_true", help="compare target-calculus terms")
    p.add_argument("--trace", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_eq)

    p = sub.add_parser("focal-check", help="extract a focality certificate")
    p.add_argument("expr")
    p.add_argument("--source", required=True, help="domain type")
    p.add_argument("--to", required=True, help="codomain type")
    common(p)
    p.set_defaults(fn=cmd_focal_check)

    p = sub.add_parser("free-theorem", help="emit the parametricity statement of a closed type")
    p.add_argument("type")
    p.add_argument("--ast", action="store_true")
    p.set_defaults(fn=cmd_free_theorem)

    p = sub.add_parser("catalog", help="list the combinator corpus and open obligations")
    p.add_argument("--oracle", action="store_true", help="also run instance checks")
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("suite", help="run the acceptance corpus")
    p.add_argument("--seed", type=int, default=20240)
    p.add_argument(
        "--generated",
        type=int,
        default=1000,
        help="criterion 1 judgements; criterion 4 runs a fifth as many per lemma",
    )
    p.add_argument("--golden-dir", default=None)
    p.set_defaults(fn=cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (MuParseError, MuTypeError, TargetTypeError, CliError) as exc:
        # The exception holds the bare name; the source side words it the same way.
        message = f"unbound variable {exc}" if isinstance(exc, UnboundTargetVariable) else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except RecursionError:
        # Exit 1 means Distinct or NoCertificate; too deep an input is an input error.
        print("error: input nested too deeply for the kernel", file=sys.stderr)
        return 2
    except _step_budget_exceeded() as exc:
        # Running out of rewrite steps is a limit, not a verdict; any other
        # RewriteError is a kernel fault and stays a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _step_budget_exceeded():
    """rewrite.StepBudgetExceeded once a command has loaded rewrite, else
    no class: an except clause reads it only when an exception is raised."""
    rewrite = sys.modules.get(f"{__package__}.rewrite")
    return rewrite.StepBudgetExceeded if rewrite is not None else ()


if __name__ == "__main__":
    sys.exit(main())
