#!/usr/bin/env python3
"""Self-test of the benchmark's own parts: the oracle's closed forms, and
that a seed fixes a workload's inputs.

    python3 bench/selftest.py

Exits 0 when every check holds.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import oracle
from run import WORKDIR, load_sobstab


def _inputs(name: str, seed: int) -> str:
    """Everything a workload's operations receive, with its scratch
    directory's name taken out."""
    from workloads import WORKLOADS

    WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORKDIR) as tmp:
        wl = WORKLOADS[name](seed, Path(tmp))
        shown = [(op.kind, op.info, op.run.__defaults__) for op in wl.ops]
        if name == "cli-session":
            shown.append(wl.configs)
        return repr(shown).replace(tmp, "<workdir>")


def main() -> int:
    load_sobstab()
    problems = oracle._self_test()
    for name in ("sweep-concentric", "report-collinear", "cli-session"):
        if _inputs(name, 7) != _inputs(name, 7):
            problems.append(f"{name}: seed 7 gave two different input sets")
        if _inputs(name, 7) == _inputs(name, 8):
            problems.append(f"{name}: seeds 7 and 8 gave the same inputs")
    try:
        WORKDIR.rmdir()
    except OSError:
        pass
    for p in problems:
        print("FAIL:", p)
    print("benchmark self-test:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
