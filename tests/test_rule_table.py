"""The rewrite engine's rule table, pinned.

Every group, in priority order, lists each rule's name and its heads
(the node classes at which the rule can apply) by class name.  Rule
names appear in traces, the order inside a group breaks ties at a node,
and the heads decide which rules the redex search tries there, so a
refactor of the rules must leave all three as they are.
"""

from mu2forge import rewrite

GROUPS = {
    "BETA_RULES": (
        ("beta-fun", {"TgApp"}),
        ("beta-pair", {"LetPair"}),
        ("beta-pack", {"LetPack"}),
    ),
    "ETA_RULES": (
        ("eta-fun", {"TgLam"}),
        ("eta-pair", {"LetPair"}),
        ("eta-pack", {"LetPack"}),
        ("dead-let-pair", {"LetPair"}),
        ("dead-let-pack", {"LetPack"}),
        ("dedup-pair", {"LetPair"}),
        ("dedup-pack", {"LetPack"}),
    ),
    "HOIST_RULES": (
        ("hoist-app-fn", {"TgApp"}),
        ("hoist-app-arg", {"TgApp"}),
        ("hoist-pair-left", {"Pair"}),
        ("hoist-pair-right", {"Pair"}),
        ("hoist-pack", {"Pack"}),
        ("hoist-scrut", {"LetPair", "LetPack"}),
        ("hoist-lam", {"TgLam"}),
        ("let-expand", {"LetPair", "LetPack"}),
        ("let-swap", {"LetPair", "LetPack"}),
    ),
    "STAR_RULES": (
        ("star", {"TgVar", "LetPair", "Pack", "LetPack"}),
        ("star-eta", {"TgLam"}),
    ),
    "EXPAND_RULES": (
        ("expand", {"TgApp", "Pair", "Pack", "LetPair", "LetPack"}),
    ),
    "SHARE_RULES": (
        ("dead-let-pair", {"LetPair"}),
        ("dead-let-pack", {"LetPack"}),
        ("dedup-pair", {"LetPair"}),
        ("dedup-pack", {"LetPack"}),
    ),
}


def test_rule_groups_are_pinned():
    for group, pinned in GROUPS.items():
        rules = tuple((name, {cls.__name__ for cls in rule.heads}) for name, rule in getattr(rewrite, group))
        assert rules == pinned, group


def test_share_rules_are_the_eta_groups_own():
    eta = dict(rewrite.ETA_RULES)
    assert all(rule is eta[name] for name, rule in rewrite.SHARE_RULES)


def test_all_rules_is_every_group_but_share_in_priority_order():
    groups = ("BETA_RULES", "ETA_RULES", "HOIST_RULES", "STAR_RULES", "EXPAND_RULES")
    listed = [pair for group in groups for pair in getattr(rewrite, group)]
    assert list(rewrite.ALL_RULES.items()) == listed
