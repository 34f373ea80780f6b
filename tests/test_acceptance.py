"""The acceptance gate: every criterion runs at its stated scale and
prints one pass/fail line."""

from mu2forge.suite_runner import Check, criteria, decide, run_acceptance


def test_acceptance():
    results = run_acceptance(seed=20240, generated=1000)
    failed = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} criterion {r.number}: {r.name} :: {r.detail}")
        if not r.passed:
            failed.append(r.number)
    assert not failed, f"failing criteria: {failed}"


def test_gate_table():
    """The gate's checks at the default arguments, counted per criterion
    without running them, so a refactor cannot silently drop one; labels
    name a check uniquely within its criterion.  A failing check is
    reported by its label and what it got."""
    labels = {number: [c.label for c in checks] for number, _, checks, _ in criteria()}
    assert {number: len(names) for number, names in labels.items()} == {
        1: 1023, 2: 28, 3: 23, 4: 600, 5: 4, 6: 1, 7: 11, 8: 3, 9: 8, 10: 10, 11: 61, 12: 6, 13: 6,
    }
    assert all(len(set(names)) == len(names) for names in labels.values())

    checks = [Check("holds", lambda: 1, 1), Check("broken", lambda: "Distinct", "Equal")]
    result = decide(99, "synthetic", checks, "all hold")
    assert not result.passed
    assert result.detail == "broken: Distinct"
    assert decide(99, "synthetic", checks[:1], "all hold").detail == "all hold"
    many = [Check(f"c{i}", lambda: 0, 1) for i in range(8)]
    assert decide(99, "synthetic", many, "all hold").detail == "; ".join(f"c{i}: 0" for i in range(6))
