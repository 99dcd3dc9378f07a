"""The four workloads.  Each module exposes `build(seed, round_index, ctx)`
and `warmup(seed, ctx)`; `build` returns the round's `Op`s (a list, or an
iterator that makes them one at a time), made from the seed and the round
index alone.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

NAMES = ("families", "continuity", "symset", "cli")


@dataclass
class Context:
    """What a workload needs to know about the run it is part of."""

    root: Path
    traced: bool = False


@dataclass
class Op:
    """One public call.  `run(results)` sees earlier results of the round by key;
    `check(result, results)` raises `oracle.CheckFailed` on a wrong result."""

    kind: str
    run: Callable[[dict], Any]
    check: Optional[Callable[[Any, dict], None]] = None
    key: Optional[str] = None
    detail: str = ""


def child_env(root: Path) -> dict:
    """The environment for a child interpreter that imports bicyclic from `root/src`."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_in_process(argv) -> tuple:
    """`bicyclic.cli.main(argv)` in this process: (exit code, stdout, stderr)."""
    import bicyclic.cli  # looked up per call, so a traced run sees its wrapper

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bicyclic.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def rng_for(workload: str, seed: int, round_index) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")
