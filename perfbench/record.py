"""Generate the workload input pools and record their expected outputs.

    PYTHONPATH=src python3 perfbench/record.py [--workload NAME ...]

Inputs come from a fixed pool seed, so re-running this on the same code
rewrites the same files.  The cost of ``mn_schubert`` on a random w in S_12
spans three orders of magnitude within one (k, r), so ``schubert_deep``
keeps, of SCHUBERT_CANDIDATES random w per (k, r), the CASES_PER_CELL whose
BFS state count is nearest the median: the cell, not the draw, then sets an
operation's cost, and runs with different seeds measure the same mix.

Every output is recorded as a digest of the output the current code gives,
after cross-checking it against an independent route where one is cheap:

- ``mn-schubert --verify`` cases on S_8: ``expand_in_schubert(p_r * S_w)``;
- S_40 cases with r = 1: ``monk`` (p_1 is x_1 + ... + x_k);
- ``grass_box`` quantum cases: ``oracle_quantum_mn`` (extended r through
  its wrap sign);
- ``core`` cases: ``tests/oracles.py::abacus_core``.

Run it only when a workload's definition changes; the pools are the
benchmark's fixed inputs, and the digests are its correctness gate.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys

from workloads import CLI, EXPECTED, NAMES, ROOT, SRC, cli_call, cli_output, digest, library_call

POOL_SEED = 150706569

SCHUBERT_KS = (4, 6, 8)
SCHUBERT_RS = (4, 5, 6, 7, 8)
GRASSMANNIANS = ((4, 8), (6, 12), (8, 16), (12, 24))
GRASS_OPS = ("quantum_mn", "quantum_mn_extended", "mn_classical")
SCHUBERT_CANDIDATES = 24
CASES_PER_CELL = {"schubert_deep": 4, "grass_box": 40, CLI: 12}

README_EXAMPLES = [
    ["mn-schur", "--partition", "3,2,1", "--r", "5", "--k", "4"],
    ["mn-schubert", "--w", "34165278", "--k", "4", "--r", "4"],
    ["mn-quantum", "--partition", "3,2,1", "--r", "5", "--k", "4", "--n", "8"],
    ["core", "--partition", "12,10,7,3", "--n", "8", "--k", "4"],
    ["pieri", "--partition", "1", "--size", "2", "--kind", "h", "--k", "3"],
    ["monk", "--w", "21", "--k", "1"],
    ["schubert-expand", "--poly", "x1^2*x2 + x1*x2", "--json"],
    ["selfcheck"],
]


def random_perm(rng: random.Random, n: int) -> list[int]:
    w = list(range(1, n + 1))
    rng.shuffle(w)
    return w


def box_partition(rng: random.Random, k: int, n: int) -> list[int]:
    return [p for p in sorted((rng.randint(0, n - k) for _ in range(k)), reverse=True) if p]


def bfs_states(w: list[int], k: int, r: int) -> int:
    """How many states mn_schubert's chain BFS expands (k_bruhat_covers calls)."""
    import tracing
    from mnrules import mn_schubert

    tracer = tracing.Tracer()
    tracer.install()
    try:
        mn_schubert(tuple(w), k, r)
    finally:
        tracer.uninstall()
    return tracer.layers()["perm.k_bruhat_covers"]["calls"]


def schubert_deep_cells(rng: random.Random) -> dict[str, list[dict]]:
    cells = {}
    for k in SCHUBERT_KS:
        for r in SCHUBERT_RS:
            scored = []
            for _ in range(SCHUBERT_CANDIDATES):
                w = random_perm(rng, 12)
                scored.append((bfs_states(w, k, r), w))
            median = statistics.median(states for states, _ in scored)
            keep = sorted(scored, key=lambda sw: abs(sw[0] - median))[: CASES_PER_CELL["schubert_deep"]]
            cells[f"k{k}_r{r}"] = [{"op": "mn_schubert", "args": [w, k, r], "states": s} for s, w in keep]
    return cells


def grass_r(rng: random.Random, op: str, n: int) -> int:
    if op != "quantum_mn_extended":
        return rng.randint(1, n - 1)
    r = rng.randint(n + 1, 3 * n - 1)
    return r + 1 if r % n == 0 else r


def grass_box_cells(rng: random.Random) -> dict[str, list[dict]]:
    cells = {}
    for k, n in GRASSMANNIANS:
        for op in GRASS_OPS:
            cases = []
            for _ in range(CASES_PER_CELL["grass_box"]):
                lam, r = box_partition(rng, k, n), grass_r(rng, op, n)
                args = [lam, r, k] if op == "mn_classical" else [lam, r, k, n]
                cases.append({"op": op, "args": args})
            cells[f"{op}_gr{k}_{n}"] = cases
    return cells


def cli_session_cells(rng: random.Random) -> dict[str, list[dict]]:
    verify = [
        ["mn-schubert", "--w", "".join(map(str, random_perm(rng, 8))),
         "--k", str(k), "--r", str(r), "--verify"]
        for k in (3, 4, 5)
        for r in (3, 4, 5, 6)
    ]
    s40 = []
    for _ in range(CASES_PER_CELL[CLI] // 3):
        w = ",".join(map(str, random_perm(rng, 40)))
        s40 += [
            ["mn-schubert", "--w", w, "--k", "20", "--r", "1", "--json"],
            ["mn-schubert", "--w", w, "--k", "20", "--r", "2", "--json"],
            ["monk", "--w", w, "--k", "20"],
        ]
    core = []
    for _ in range(CASES_PER_CELL[CLI]):
        rows = rng.randint(14, 20)
        lam = sorted((rng.randint(1, 120) for _ in range(rows)), reverse=True)
        core.append(["core", "--partition", ",".join(map(str, lam)),
                     "--n", str(rng.choice((6, 7))), "--k", str(rows)])
    quantum = []
    for k, n in ((8, 16), (10, 20), (12, 24), (14, 28)):
        for _ in range(CASES_PER_CELL[CLI] // 4):
            r = rng.choice([r for r in range(1, 2 * n) if r != n])
            quantum.append(["mn-quantum", "--partition", ",".join(map(str, box_partition(rng, k, n))),
                            "--r", str(r), "--k", str(k), "--n", str(n), "--verify"])
    kinds = {"verify": verify, "s40": s40, "core": core, "quantum": quantum, "readme": README_EXAMPLES}
    return {
        kind: [{"argv": argv, "verify": "--verify" in argv} for argv in argvs]
        for kind, argvs in kinds.items()
    }


GENERATORS = {
    "schubert_deep": schubert_deep_cells,
    "grass_box": grass_box_cells,
    CLI: cli_session_cells,
}


def cross_check_library(case: dict, result) -> None:
    from mnrules.quantum import GrContext, oracle_quantum_mn

    op, args = case["op"], case["args"]
    if op not in ("quantum_mn", "quantum_mn_extended"):
        return
    lam, r, k, n = args
    wraps, base = divmod(r, n)
    sign = -1 if (k * wraps) % 2 else 1
    oracle = {(d + wraps, mu): sign * c for (d, mu), c in oracle_quantum_mn(tuple(lam), base, GrContext(k, n)).items()}
    if oracle != result:
        raise SystemExit(f"grass_box: {op}{tuple(args)} disagrees with oracle_quantum_mn")


def cross_check_cli(argv: list[str], stdout: bytes) -> None:
    from mnrules import monk, mn_schubert, n_core, schubert_poly
    from mnrules.schubert import expand_in_schubert
    from mnrules.symfun import power_sum_poly
    from oracles import abacus_core

    opts = dict(zip(argv[1::2], argv[2::2]))
    if argv[0] == "mn-schubert":
        w = tuple(int(x) for x in (opts["--w"].split(",") if "," in opts["--w"] else opts["--w"]))
        k, r = int(opts["--k"]), int(opts["--r"])
        got = mn_schubert(w, k, r)
        if "--verify" in argv and expand_in_schubert(power_sum_poly(r, k) * schubert_poly(w)) != got:
            raise SystemExit(f"cli_session: {argv} disagrees with expand_in_schubert")
        if r == 1 and monk(w, k) != got:
            raise SystemExit(f"cli_session: {argv} disagrees with monk")
    elif argv[0] == "core":
        lam = tuple(int(x) for x in opts["--partition"].split(","))
        core, hooks = abacus_core(lam, int(opts["--n"]))
        res = n_core(lam, int(opts["--n"]))
        shown = f"core [{','.join(map(str, core))}]  hooks_removed={hooks}"
        if (res.core, res.hooks_removed) != (core, hooks) or shown not in stdout.decode():
            raise SystemExit(f"cli_session: {argv} disagrees with abacus_core")


def record(workload: str) -> int:
    rng = random.Random(f"{POOL_SEED}:{workload}")
    cells = GENERATORS[workload](rng)
    for cases in cells.values():
        for case in cases:
            if workload == CLI:
                proc = cli_call(case["argv"])
                if proc.returncode != 0 or (case["verify"] and b"verify: MATCH" not in proc.stderr):
                    raise SystemExit(f"cli_session: {case['argv']} failed: {proc.stderr!r}")
                cross_check_cli(case["argv"], proc.stdout)
                case["digest"] = digest(cli_output(proc))
            else:
                result = library_call(case["op"], case["args"])
                cross_check_library(case, result)
                case["digest"] = digest(result)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    EXPECTED.mkdir(exist_ok=True)
    with open(EXPECTED / f"{workload}.json", "w") as f:
        json.dump({"workload": workload, "pool_seed": POOL_SEED, "recorded_at": commit, "cells": cells}, f, indent=1)
        f.write("\n")
    return sum(len(c) for c in cells.values())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=NAMES)
    args = parser.parse_args()
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]
    for name in args.workload or NAMES:
        print(f"{name}: recorded {record(name)} cases", flush=True)


if __name__ == "__main__":
    main()
