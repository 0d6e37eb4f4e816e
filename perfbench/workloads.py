"""Workloads: recorded input pools, seeded operation sequences, output checks.

Each workload's inputs live in ``expected/<workload>.json``, written once by
``record.py``.  A pool is split into cells (one per parameter class); every
case carries the digest of the output the library gave when it was recorded.
A run's ``--seed`` picks the sequence: each round visits every cell once, in a
seeded order, and each cell deals its cases in a seeded order, every one of
them before any repeats.  Whole rounds and dealing without replacement keep
the mix of cheap and expensive cases the same from seed to seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected"
TRACED_CLI = HERE / "traced_cli.py"

CLI = "cli_session"
NAMES = ("schubert_deep", "grass_box", CLI)

# The environment of a CLI child: the package is imported from ``src/``.
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}


def digest(value) -> str:
    """SHA-256 of a canonical form: a dict's sorted items, else the value's repr."""
    if isinstance(value, dict):
        value = sorted(value.items())
    return hashlib.sha256(repr(value).encode()).hexdigest()


def load_pool(workload: str) -> dict[str, list[dict]]:
    with open(EXPECTED / f"{workload}.json") as f:
        return json.load(f)["cells"]


def rounds(pool: dict[str, list[dict]], seed: int):
    """Endless rounds of cases: every cell once per round, in seeded order."""
    rng = random.Random(seed)
    names = sorted(pool)
    decks: dict[str, list[dict]] = {name: [] for name in names}
    while True:
        rng.shuffle(names)
        batch = []
        for name in names:
            if not decks[name]:
                decks[name] = rng.sample(pool[name], len(pool[name]))
            batch.append(decks[name].pop())
        yield batch


def cases(workload: str, seed: int, n_rounds: int) -> list[dict]:
    """The first ``n_rounds`` rounds of a workload, flattened."""
    it = rounds(load_pool(workload), seed)
    return [case for _ in range(n_rounds) for case in next(it)]


def library_call(op: str, args: list):
    """Call one public library function through the package namespace."""
    import mnrules

    if op == "mn_schubert":
        w, k, r = args
        return mnrules.mn_schubert(tuple(w), k, r)
    if op == "mn_classical":
        lam, r, k = args
        return mnrules.mn_classical(tuple(lam), r, k)
    lam, r, k, n = args
    return getattr(mnrules, op)(tuple(lam), r, mnrules.GrContext(k, n))


def cli_call(argv: list[str], traced: bool = False) -> subprocess.CompletedProcess:
    """Run one ``mnrules`` command in a fresh interpreter and wait for it.

    There is no per-call timeout: ``subprocess`` waits out a timeout by
    polling with sleeps of up to 50 ms, which would quantise the latency.
    ``run.py`` bounds the whole run with an alarm instead, and
    ``subprocess.run`` kills the child when that alarm interrupts it.
    """
    head = [str(TRACED_CLI)] if traced else ["-m", "mnrules.cli"]
    return subprocess.run(
        [sys.executable, *head, *argv],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        env=CHILD_ENV,
        cwd=ROOT,
    )


def cli_output(proc: subprocess.CompletedProcess) -> tuple[int, bytes]:
    """What a CLI command's digest covers: exit code and stdout bytes."""
    return proc.returncode, proc.stdout


def cli_ok(case: dict, proc: subprocess.CompletedProcess) -> bool:
    if digest(cli_output(proc)) != case["digest"]:
        return False
    return not case.get("verify") or b"verify: MATCH" in proc.stderr


def library_ok(case: dict, result) -> bool:
    return digest(result) == case["digest"]
