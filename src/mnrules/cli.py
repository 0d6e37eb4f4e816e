"""Command-line frontend for rim-hook products and Schubert expansions."""

from __future__ import annotations

import argparse
import json
import sys

from . import partitions, perm, quantum, schubert, symfun
from .poly import SparsePoly
from .quantum import GrContext


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
    """One-line notation: a digit string like 34165278, or comma-separated."""
    text = text.strip()
    if not text:
        raise ValueError("empty permutation")
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


def _join_signed(items: list[tuple[int, str]], mag_sep: str = "*") -> str:
    """Render signed terms, leading term unsigned when positive."""
    if not items:
        return "0"
    bits = []
    for idx, (coeff, body) in enumerate(items):
        mag = abs(coeff)
        text = body if mag == 1 else f"{mag}{mag_sep}{body}"
        if idx == 0:
            bits.append(text if coeff > 0 else f"-{text}")
        else:
            bits.append(f"+ {text}" if coeff > 0 else f"- {text}")
    return " ".join(bits)


def render_schur(expansion: symfun.SchurExpansion) -> str:
    return _join_signed(
        [(expansion[lam], f"s{fmt_partition(lam)}") for lam in sorted(expansion)]
    )


def render_schubert(expansion: schubert.SchubertExpansion) -> str:
    order = sorted(expansion, key=lambda u: (perm.length(u), u))
    return _join_signed([(expansion[u], f"S{fmt_partition(u)}") for u in order])


def render_quantum(qc: quantum.QuantumClass) -> str:
    items = []
    for d, lam in sorted(qc):
        q = "" if d == 0 else ("q " if d == 1 else f"q^{d} ")
        items.append((qc[(d, lam)], f"{q}σ{fmt_partition(lam)}"))
    return _join_signed(items, mag_sep=" ")


def _emit(args: argparse.Namespace, result, to_json, render) -> None:
    """Print ``result`` as JSON or as text, formatting only the one printed."""
    print(json.dumps(to_json(result)) if args.json else render(result))


def cmd_mn_schur(args: argparse.Namespace) -> int:
    lam = parse_partition_arg(args.partition)
    result = symfun.mn_classical(lam, args.r, args.k)
    _emit(args, result, symfun.schur_expansion_to_json, render_schur)
    return 0


def cmd_mn_schubert(args: argparse.Namespace) -> int:
    w = parse_perm_arg(args.w)
    result = schubert.mn_schubert(w, args.k, args.r)
    _emit(args, result, schubert.schubert_expansion_to_json, render_schubert)
    if args.verify:
        product = symfun.power_sum_poly(args.r, args.k) * schubert.schubert_poly(w)
        if schubert.expand_in_schubert(product) != result:
            print("verify: MISMATCH", file=sys.stderr)
            return 1
        print("verify: MATCH", file=sys.stderr)
    return 0


def cmd_mn_quantum(args: argparse.Namespace) -> int:
    lam = parse_partition_arg(args.partition)
    ctx = GrContext(args.k, args.n)
    result = quantum.quantum_mn_extended(lam, args.r, ctx)
    _emit(args, result, quantum.quantum_class_to_json, render_quantum)
    if args.verify:
        if quantum.wrap_power_sum(quantum.oracle_quantum_mn, lam, args.r, ctx) != result:
            print("verify: MISMATCH", file=sys.stderr)
            return 1
        print("verify: MATCH", file=sys.stderr)
    return 0


def cmd_pieri(args: argparse.Namespace) -> int:
    lam = parse_partition_arg(args.partition)
    if args.kind == "e":
        result = symfun.pieri_e(lam, args.size, args.k)
    else:
        result = symfun.pieri_h(lam, args.size, args.k)
    _emit(args, result, symfun.schur_expansion_to_json, render_schur)
    return 0


def cmd_monk(args: argparse.Namespace) -> int:
    w = parse_perm_arg(args.w)
    result = schubert.monk(w, args.k)
    _emit(args, result, schubert.schubert_expansion_to_json, render_schubert)
    return 0


def cmd_schubert_expand(args: argparse.Namespace) -> int:
    f = SparsePoly.parse(args.poly)
    result = schubert.expand_in_schubert(f)
    _emit(args, result, schubert.schubert_expansion_to_json, render_schubert)
    return 0


def cmd_core(args: argparse.Namespace) -> int:
    lam = parse_partition_arg(args.partition)
    if args.k is not None:
        # the sign is psi's, and psi only takes partitions with at most k rows
        if args.k < 1:
            raise ValueError(f"k must be positive, got {args.k}")
        partitions.require_fits(lam, args.k)
    res = partitions.n_core(lam, args.n)
    sign = None if args.k is None else quantum.psi_sign(res, args.k)
    if args.json:
        payload = {
            "core": list(res.core),
            "hooks_removed": res.hooks_removed,
            "height_sum": res.height_sum,
        }
        if sign is not None:
            payload["sign"] = sign
        print(json.dumps(payload))
    else:
        text = (
            f"core {fmt_partition(res.core)}  hooks_removed={res.hooks_removed}"
            f"  height_sum={res.height_sum}"
        )
        if sign is not None:
            text += f"  sign(k={args.k})={'+1' if sign > 0 else '-1'}"
        print(text)
    return 0


def _selfcheck_results() -> list[tuple[str, bool, str]]:
    """Known-answer checks over every layer of the library."""
    checks: list[tuple[str, bool, str]] = []

    w = perm.canonical((3, 4, 1, 6, 5, 2, 7, 8))
    expected_schubert = {
        perm.canonical((3, 5, 6, 7, 1, 2, 4, 8)): 1,
        perm.canonical((3, 6, 4, 7, 1, 2, 5, 8)): 1,
        perm.canonical((4, 5, 3, 6, 2, 1, 7, 8)): 1,
        perm.canonical((4, 6, 1, 7, 3, 2, 5, 8)): 1,
        perm.canonical((3, 4, 1, 10, 5, 2, 6, 7, 8, 9)): 1,
        perm.canonical((3, 4, 6, 7, 2, 1, 5, 8)): -1,
        perm.canonical((3, 4, 6, 8, 1, 2, 5, 7)): -1,
        perm.canonical((3, 6, 1, 8, 4, 2, 5, 7)): -1,
    }
    got = schubert.mn_schubert(w, 4, 4)
    checks.append(
        (
            "p_4(x1..x4) * S[3,4,1,6,5,2,7,8]",
            got == expected_schubert,
            render_schubert(got),
        )
    )

    ctx = GrContext(4, 8)
    expected_quantum = {
        (0, (3, 3, 3, 2)): 1,
        (0, (4, 4, 3)): 1,
        (1, (3,)): 1,
        (1, (1, 1, 1)): 1,
    }
    got_q = quantum.quantum_mn((3, 2, 1), 5, ctx)
    checks.append(
        ("p_5 * sigma[3,2,1] in qH*(Gr(4,8))", got_q == expected_quantum, render_quantum(got_q))
    )

    res = partitions.n_core((12, 10, 7, 3), 8)
    ok = res.core == (4, 2, 2) and res.hooks_removed == 3 and res.height_sum % 2 == 0
    checks.append(
        (
            "8-core of [12,10,7,3]",
            ok,
            f"core {fmt_partition(res.core)} hooks_removed={res.hooks_removed}",
        )
    )
    got_psi = quantum.psi_reduce((12, 10, 7, 3), ctx)
    checks.append(
        (
            "psi[12,10,7,3] in qH*(Gr(4,8))",
            got_psi == {(3, (4, 2, 2)): 1},
            render_quantum(got_psi),
        )
    )

    res2 = partitions.n_core((9, 8, 5, 2), 8)
    got_psi2 = quantum.psi_reduce((9, 8, 5, 2), ctx)
    checks.append(
        (
            "psi[9,8,5,2] in qH*(Gr(4,8))",
            res2.core == (7, 4, 3, 2) and got_psi2 == {},
            f"core {fmt_partition(res2.core)} image {render_quantum(got_psi2)}",
        )
    )

    generators = quantum.ideal_vanishing_check(ctx)
    checks.append(
        (
            "ideal vanishing in qH*(Gr(4,8))",
            all(c.ok for c in generators),
            f"{sum(c.ok for c in generators)}/{len(generators)} generators vanish correctly",
        )
    )
    return checks


def cmd_selfcheck(args: argparse.Namespace) -> int:
    checks = _selfcheck_results()
    all_ok = all(ok for _, ok, _ in checks)
    if args.json:
        print(
            json.dumps(
                {
                    "ok": all_ok,
                    "checks": [
                        {"name": name, "ok": ok, "detail": detail}
                        for name, ok, detail in checks
                    ],
                }
            )
        )
    else:
        for name, ok, detail in checks:
            print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        print(f"selfcheck: {'ok' if all_ok else 'FAILED'}")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mnrules",
        description="Exact power-sum products in the Schur, Schubert, and quantum Schubert bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p = sub.add_parser("mn-schur", help="p_r times s_lambda in k variables")
    p.add_argument("--partition", required=True, help="comma-separated parts, '' for empty")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    add_json(p)
    p.set_defaults(func=cmd_mn_schur)

    p = sub.add_parser("mn-schubert", help="p_r(x1..xk) times a Schubert polynomial")
    p.add_argument("--w", required=True, help="one-line permutation, 34165278 or 3,4,1,6,5,2,7,8")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--verify", action="store_true", help="cross-check against polynomial arithmetic")
    add_json(p)
    p.set_defaults(func=cmd_mn_schubert)

    p = sub.add_parser("mn-quantum", help="p_r times a Schubert cycle in qH*(Gr(k,n))")
    p.add_argument("--partition", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--verify", action="store_true", help="cross-check against the reduction map")
    add_json(p)
    p.set_defaults(func=cmd_mn_quantum)

    p = sub.add_parser("pieri", help="e_a or h_b times s_lambda in k variables")
    p.add_argument("--partition", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--kind", choices=("e", "h"), required=True)
    p.add_argument("--k", type=int, required=True)
    add_json(p)
    p.set_defaults(func=cmd_pieri)

    p = sub.add_parser("monk", help="(x1+...+xk) times a Schubert polynomial")
    p.add_argument("--w", required=True)
    p.add_argument("--k", type=int, required=True)
    add_json(p)
    p.set_defaults(func=cmd_monk)

    p = sub.add_parser("schubert-expand", help="expand a polynomial in the Schubert basis")
    p.add_argument("--poly", required=True, help="e.g. 'x1^2*x2 + 3*x1*x3'")
    add_json(p)
    p.set_defaults(func=cmd_schubert_expand)

    p = sub.add_parser("core", help="n-core of a partition")
    p.add_argument("--partition", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None, help="also report the sign for this k")
    add_json(p)
    p.set_defaults(func=cmd_core)

    p = sub.add_parser("selfcheck", help="run the built-in known-answer checks")
    add_json(p)
    p.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
