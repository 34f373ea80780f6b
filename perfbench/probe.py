"""Work that must start from a fresh interpreter.

    probe.py setup <workload> <seed>   import the kernel and build the
                                       workload's inputs; print when ready
    probe.py ladder                    climb the max_depth_decided ladder

Both run with the kernel's `src` directory on PYTHONPATH and the default
recursion limit.
"""

from __future__ import annotations

import json
import sys
import time


def setup(workload: str, seed: int) -> None:
    t0 = time.monotonic()
    if workload == "cli":
        import mu2forge.cli  # noqa: F401 - the import a CLI call pays
    else:
        import mu2forge  # noqa: F401
    import_s = time.monotonic() - t0
    import workloads

    workloads.build(workload, seed)
    print(json.dumps({"ready": time.monotonic(), "import_s": import_s}), flush=True)


def ladder() -> None:
    from mu2forge.combinators import church
    from mu2forge.theory import eq_mu

    from workloads import DEPTH_LADDER

    for n in DEPTH_LADDER:
        try:
            outcome = "Equal" if eq_mu(church(n), church(n)).equal else "Distinct"
        except RecursionError:
            outcome = "RecursionError"
        print(n, outcome, flush=True)
        if outcome != "Equal":
            return


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], int(sys.argv[3]))
    else:
        ladder()
