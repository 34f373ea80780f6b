"""mu2forge: a verifiable kernel for the second-order lambda-mu calculus
and its call-by-name CPS reading in the {exists, and, not}-fragment.

Library surface: typing and substitution for both calculi, the forward
and inverse translations, a normalization-based equality oracle for the
plain and parametric target theories, focality certificates, and
relational free-theorem emission.

`import mu2forge` loads no submodule.  Each public name is imported
from its home module on first access (PEP 562) and then kept in this
module's globals, so `mu2forge.eq_mu is mu2forge.theory.eq_mu`.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names it contributes
_EXPORTS = {
    "mu_types": ("BOT", "Arrow", "Forall", "MuType", "TVar", "forall", "neg"),
    "mu_terms": (
        "App",
        "AppArg",
        "Lam",
        "Mu",
        "MuTerm",
        "TyApp",
        "TyArg",
        "TyLam",
        "Var",
        "bold_mu",
        "lam",
        "mixed_subst",
        "mu",
        "named",
        "rename_name",
        "subst_term",
        "subst_type",
        "tylam",
    ),
    "mu_typing": ("MuJudgement", "ctx", "typecheck_mu"),
    "target_typing": ("PARAMETRIC", "PLAIN", "typecheck_target"),
    "canonical": ("CanonicalForm", "EqVerdict", "canonicalize", "eq_target"),
    "rewrite": ("normalize", "replay"),
    "cps": (
        "check_subst_term_in_term",
        "check_subst_type_in_term",
        "check_subst_type_in_type",
        "check_type_soundness",
        "cps_term",
        "cps_term_typed",
        "cps_type",
    ),
    "inverse": ("invert", "roundtrip"),
    "theory": ("BETA_ETA", "LAMBDA_MU_2P", "eq_mu", "gen_typed_term"),
    "combinators": ("TypeScheme", "catalog", "church", "functorial_action"),
    "focality": (
        "FocalityCertificate",
        "NoCertificate",
        "check_discardable",
        "check_focal",
        "check_naturality_square",
        "check_repeatable",
    ),
    "relations": (
        "RelFormula",
        "free_theorem",
        "instantiate_graph",
        "open_obligations",
        "print_formula",
        "relate",
        "target_relation",
    ),
    "surface": ("parse_mu_term", "parse_mu_type", "parse_target_term", "parse_target_type"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
