"""Command-line frontend for rim-hook products and Schubert expansions."""

from __future__ import annotations

import argparse
import sys

from . import partitions, perm, poly, quantum, schubert, symfun


def parse_partition_arg(text: str) -> partitions.Partition:
    """Comma-separated parts; the empty string is the empty partition."""
    text = text.strip()
    if not text:
        return ()
    try:
        parts = [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"cannot read partition from {text!r}") from None
    return partitions.validate_partition(parts)


def parse_perm_arg(text: str) -> perm.Permutation:
    """One-line notation, 34165278 or comma-separated; '' is the identity."""
    text = text.strip()
    if not text:
        return ()
    try:
        if "," in text:
            word = [int(x) for x in text.split(",")]
        elif text.isdigit():
            word = [int(ch) for ch in text]
        else:
            raise ValueError
    except ValueError:
        raise ValueError(f"cannot read permutation from {text!r}") from None
    return perm.canonical(word)


def fmt_partition(lam: partitions.Partition) -> str:
    return "[" + ",".join(str(p) for p in lam) + "]"


# Each render_* sorts its kind's terms once and returns the text, or with
# ``as_json`` (--json's value) the JSON payload, in that order.
def render_schur(expansion: symfun.SchurExpansion, as_json: bool = False):
    order = sorted(expansion)
    if as_json:
        return [{"coeff": expansion[lam], "partition": list(lam)} for lam in order]
    return partitions.join_signed([(expansion[lam], f"s{fmt_partition(lam)}") for lam in order])


def render_schubert(expansion: schubert.SchubertExpansion, as_json: bool = False):
    order = [u for _, u in sorted((perm.length(u), u) for u in expansion)]
    if as_json:
        return [{"coeff": expansion[u], "perm": list(u)} for u in order]
    return partitions.join_signed([(expansion[u], f"S{fmt_partition(u)}") for u in order])


def render_quantum(qc: quantum.QuantumClass, as_json: bool = False):
    order = sorted(qc)
    if as_json:
        return [{"coeff": qc[d, lam], "q": d, "partition": list(lam)} for d, lam in order]
    items = []
    for d, lam in order:
        q = "" if d == 0 else ("q " if d == 1 else f"q^{d} ")
        items.append((qc[d, lam], f"{q}σ{fmt_partition(lam)}"))
    return partitions.join_signed(items, mag_sep=" ")


def _emit(args: argparse.Namespace, out) -> None:
    """Print ``out``, a handler's rendered text, or under ``--json`` dump it
    with ``json.dumps`` as the JSON payload the handler built.

    This is the CLI's one JSON writer, and ``json`` is imported only here,
    so a command without ``--json`` never loads it.
    """
    if args.json:
        import json

        out = json.dumps(out)
    print(out)


def _report_verify(ok: bool) -> int:
    """Print the ``--verify`` verdict on stderr; exit code 1 on a mismatch."""
    print(f"verify: {'MATCH' if ok else 'MISMATCH'}", file=sys.stderr)
    return 0 if ok else 1


# Each cmd_* renders its own result before the one _emit call, so a timer
# around the handler covers compute and rendering, and --verify comes last.
def cmd_mn_schur(args: argparse.Namespace) -> int:
    lam = parse_partition_arg(args.partition)
    result = symfun.mn_classical(lam, args.r, args.k)
    _emit(args, render_schur(result, args.json))
    return 0


def cmd_mn_schubert(args: argparse.Namespace) -> int:
    w = parse_perm_arg(args.w)
    result = schubert.mn_schubert(w, args.k, args.r)
    _emit(args, render_schubert(result, args.json))
    if args.verify:
        return _report_verify(schubert.power_sum_times(w, args.k, args.r) == result)
    return 0


def cmd_mn_quantum(args: argparse.Namespace) -> int:
    lam = parse_partition_arg(args.partition)
    ctx = quantum.GrContext(args.k, args.n)
    result = quantum.quantum_mn_extended(lam, args.r, ctx)
    _emit(args, render_quantum(result, args.json))
    if args.verify:
        again = quantum.wrap_power_sum(quantum.oracle_quantum_mn, lam, args.r, ctx)
        return _report_verify(again == result)
    return 0


def cmd_pieri(args: argparse.Namespace) -> int:
    lam = parse_partition_arg(args.partition)
    pieri = symfun.pieri_e if args.kind == "e" else symfun.pieri_h
    result = pieri(lam, args.size, args.k)
    _emit(args, render_schur(result, args.json))
    return 0


def cmd_monk(args: argparse.Namespace) -> int:
    w = parse_perm_arg(args.w)
    result = schubert.monk(w, args.k)
    _emit(args, render_schubert(result, args.json))
    return 0


def cmd_schubert_expand(args: argparse.Namespace) -> int:
    f = poly.SparsePoly.parse(args.poly)
    result = schubert.expand_in_schubert(f)
    _emit(args, render_schubert(result, args.json))
    return 0


def cmd_core(args: argparse.Namespace) -> int:
    lam = parse_partition_arg(args.partition)
    if args.k is not None:
        # the sign is psi's, (-1)**(k*s - total height); psi takes at most k rows
        partitions.require_fits(lam, partitions.require_int(args.k, "k", 1))
    res = partitions.n_core(lam, args.n)
    payload = res._asdict()
    text = f"core {fmt_partition(res.core)}  hooks_removed={res.hooks_removed}"
    text += f"  height_sum={res.height_sum}"
    if args.k is not None:
        payload["sign"] = sign = -1 if (args.k * res.hooks_removed - res.height_sum) % 2 else 1
        text += f"  sign(k={args.k})={sign:+d}"
    _emit(args, payload if args.json else text)
    return 0


def cmd_selfcheck(args: argparse.Namespace) -> int:
    """Known-answer checks of the ``partitions``, ``perm`` and ``schubert``,
    and ``quantum`` layers; ``poly`` and ``symfun`` do not run."""
    got = schubert.mn_schubert((3, 4, 1, 6, 5, 2, 7, 8), 4, 4)
    expected = {
        (3, 5, 6, 7, 1, 2, 4): 1, (3, 6, 4, 7, 1, 2, 5): 1, (4, 5, 3, 6, 2, 1): 1,
        (4, 6, 1, 7, 3, 2, 5): 1, (3, 4, 1, 10, 5, 2, 6, 7, 8, 9): 1,
        (3, 4, 6, 7, 2, 1, 5): -1, (3, 4, 6, 8, 1, 2, 5, 7): -1, (3, 6, 1, 8, 4, 2, 5, 7): -1,
    }
    ctx = quantum.GrContext(4, 8)
    got_q = quantum.quantum_mn((3, 2, 1), 5, ctx)
    expected_q = {(0, (3, 3, 3, 2)): 1, (0, (4, 4, 3)): 1, (1, (3,)): 1, (1, (1, 1, 1)): 1}
    res = partitions.n_core((12, 10, 7, 3), 8)
    got_psi = quantum.psi_reduce((12, 10, 7, 3), ctx)
    res2 = partitions.n_core((9, 8, 5, 2), 8)
    got_psi2 = quantum.psi_reduce((9, 8, 5, 2), ctx)
    vanish = [ok for _, ok in quantum.ideal_vanishing_check(ctx)]
    checks = [  # (name, passed, detail)
        ("p_4(x1..x4) * S[3,4,1,6,5,2,7,8]", got == expected, render_schubert(got)),
        ("p_5 * sigma[3,2,1] in qH*(Gr(4,8))", got_q == expected_q, render_quantum(got_q)),
        (
            "8-core of [12,10,7,3]",
            res.core == (4, 2, 2) and res.hooks_removed == 3 and res.height_sum % 2 == 0,
            f"core {fmt_partition(res.core)} hooks_removed={res.hooks_removed}",
        ),
        ("psi[12,10,7,3] in qH*(Gr(4,8))", got_psi == {(3, (4, 2, 2)): 1}, render_quantum(got_psi)),
        (
            "psi[9,8,5,2] in qH*(Gr(4,8))",
            res2.core == (7, 4, 3, 2) and got_psi2 == {},
            f"core {fmt_partition(res2.core)} image {render_quantum(got_psi2)}",
        ),
        (
            "ideal vanishing in qH*(Gr(4,8))",
            all(vanish),
            f"{sum(vanish)}/{len(vanish)} generators vanish correctly",
        ),
    ]
    all_ok = all(ok for _, ok, _ in checks)
    if args.json:
        out = {"ok": all_ok, "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks]}
    else:
        lines = [f"{'PASS' if ok else 'FAIL'}  {name}: {detail}" for name, ok, detail in checks]
        out = "\n".join([*lines, f"selfcheck: {'ok' if all_ok else 'FAILED'}"])
    _emit(args, out)
    return 0 if all_ok else 1


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command or, when ``command`` names one, of that
    command alone: ``main`` passes argv[0], so a run builds only the
    subparser it uses.  Help, usage and error bytes are the same either way.
    """
    text, number = {"required": True}, {"type": int, "required": True}
    flag = {"action": "store_true"}
    as_json = {**flag, "help": "emit JSON instead of text"}
    # (name, help, handler, {option: add_argument keywords}), built per call so
    # each handler is whatever the module binds to its name at that moment
    commands = [
        ("mn-schur", "p_r times s_lambda in k variables", cmd_mn_schur, {
            "--partition": {**text, "help": "comma-separated parts, '' for empty"},
            "--r": number, "--k": number,
        }),
        ("mn-schubert", "p_r(x1..xk) times a Schubert polynomial", cmd_mn_schubert, {
            "--w": {**text, "help": "one-line permutation, 34165278 or 3,4,1,6,5,2,7,8"},
            "--k": number, "--r": number,
            "--verify": {**flag, "help": "cross-check against polynomial arithmetic"},
        }),
        ("mn-quantum", "p_r times a Schubert cycle in qH*(Gr(k,n))", cmd_mn_quantum, {
            "--partition": text, "--r": number, "--k": number, "--n": number,
            "--verify": {**flag, "help": "cross-check against the reduction map"},
        }),
        ("pieri", "e_a or h_b times s_lambda in k variables", cmd_pieri, {
            "--partition": text, "--size": number, "--kind": {**text, "choices": ("e", "h")},
            "--k": number,
        }),
        ("monk", "(x1+...+xk) times a Schubert polynomial", cmd_monk, {"--w": text, "--k": number}),
        ("schubert-expand", "expand a polynomial in the Schubert basis", cmd_schubert_expand, {
            "--poly": {**text, "help": "e.g. 'x1^2*x2 + 3*x1*x3'"},
        }),
        ("core", "n-core of a partition", cmd_core, {
            "--partition": text, "--n": number,
            "--k": {"type": int, "help": "also report the sign for this k"},
        }),
        ("selfcheck", "run the built-in known-answer checks", cmd_selfcheck, {}),
    ]
    names = [name for name, *_ in commands]
    # given in full, the usage line is the bytes Python 3.11 prints at 80
    # columns, on every release and at any width, and it names every command
    # even when one subparser is built; add_subparsers would derive its prog
    # from this usage, so prog is given too
    indent = "\n" + " " * len("usage: mnrules ")
    parser = argparse.ArgumentParser(
        prog="mnrules",
        usage="mnrules [-h]" + indent + "{" + ",".join(names) + "}" + indent + "...",
        description="Exact power-sum products in the Schur, Schubert, and quantum Schubert bases.",
    )
    if command in names:
        commands = [entry for entry in commands if entry[0] == command]
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    for name, summary, handler, options in commands:
        p = sub.add_parser(name, help=summary)
        for option, keywords in {**options, "--json": as_json}.items():
            p.add_argument(option, **keywords)
        p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except RecursionError:
        # no known input gets here: the deepest recursion is the strip search,
        # one frame per row, and its max_rows is an int <= partitions.ROW_LIMIT
        print("error: recursion too deep for this input", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
