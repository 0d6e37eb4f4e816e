"""Traced runs: wrap the library's public functions and record spans.

Only a traced run imports this module.  ``Tracer.install`` replaces each
target function with a wrapper in every namespace that binds it (for example
both ``perm.k_bruhat_covers`` and ``schubert.k_bruhat_covers``), so calls the
library makes internally are seen too.  Each wrapper appends a span (name,
start, end, parent) to flat in-memory arrays and updates its counters from
the call's arguments and result.  ``Tracer.uninstall`` puts every original
back.  Self time, a span's time minus the time of its child spans, is
computed once at the end.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

# Prefix of the stderr line on which traced_cli.py reports its trace.
TRACE_MARK = "perfbench-trace "


def _covers(c, res, w, k, max_support):
    c["perm.pairs_tested"] += k * max(max_support - k, 0)
    c["perm.covers_found"] += len(res)


def _counter(name, size=len):
    def count(c, res, *args, **kwargs):
        c[name] += size(res)

    return count


def _product(c, res, a, b):
    c["poly.product_terms"] += len(a.terms) * len(getattr(b, "terms", (b,)))


# (owner module, attribute path, span name, counter)
LIBRARY_TARGETS = [
    ("mnrules.perm", "k_bruhat_covers", "perm.k_bruhat_covers", _covers),
    ("mnrules.perm", "chain_endpoints", "perm.chain_endpoints", _counter("perm.endpoints")),
    ("mnrules.schubert", "mn_schubert", "schubert.mn_schubert", _counter("schubert.terms")),
    ("mnrules.schubert", "schubert_poly", "schubert.schubert_poly", None),
    ("mnrules.schubert", "divided_difference", "schubert.divided_difference", None),
    ("mnrules.schubert", "expand_in_schubert", "schubert.expand_in_schubert", None),
    ("mnrules.poly", "SparsePoly.__mul__", "poly.mul", _product),
    ("mnrules.partitions", "add_rim_hooks", "partitions.add_rim_hooks", _counter("partitions.add_rim_hooks.records")),
    ("mnrules.partitions", "remove_rim_hooks", "partitions.remove_rim_hooks", _counter("partitions.remove_rim_hooks.records")),
    ("mnrules.partitions", "is_rim_hook", "partitions.is_rim_hook", None),
    ("mnrules.partitions", "n_core", "partitions.n_core", _counter("partitions.hooks_stripped", lambda res: res.hooks_removed)),
    ("mnrules.symfun", "mn_classical", "symfun.mn_classical", None),
    ("mnrules.quantum", "quantum_mn", "quantum.quantum_mn", None),
    ("mnrules.quantum", "psi_reduce", "quantum.psi_reduce", None),
    ("mnrules.quantum", "oracle_quantum_mn", "quantum.oracle_quantum_mn", None),
]

# The CLI's phases: argument parsing, one cmd_* per command, and rendering.
CLI_TARGETS = [
    ("argparse", "ArgumentParser.parse_args", "cli.parse", None),
    ("mnrules.cli", "build_parser", "cli.parse", None),
    ("mnrules.cli", "render_schur", "cli.render", None),
    ("mnrules.cli", "render_schubert", "cli.render", None),
    ("mnrules.cli", "render_quantum", "cli.render", None),
    ("mnrules.symfun", "schur_expansion_to_json", "cli.render", None),
    ("mnrules.schubert", "schubert_expansion_to_json", "cli.render", None),
    ("mnrules.quantum", "quantum_class_to_json", "cli.render", None),
    ("json", "dumps", "cli.render", None),
]


def _cli_targets() -> list:
    cli = sys.modules["mnrules.cli"]
    cmds = [("mnrules.cli", name, "cli.cmd", None) for name in sorted(vars(cli)) if name.startswith("cmd_")]
    return CLI_TARGETS + cmds


def _resolve(module: str, path: str):
    """(owner, attribute, original) for a dotted path, or None if absent."""
    owner = sys.modules[module]
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


def _bindings(owner, original):
    """Every (namespace, attribute) bound to ``original``: the owner itself
    and every loaded mnrules module."""
    spaces = [owner] + [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "mnrules"]
    seen = set()
    for space in spaces:
        for attr, value in list(vars(space).items()):
            if value is original and (id(space), attr) not in seen:
                seen.add((id(space), attr))
                yield space, attr


def schubert_cache_info() -> tuple[int, int, int]:
    """(hits, misses, size) of the Schubert-polynomial cache, zeros if gone."""
    cached = getattr(sys.modules.get("mnrules.schubert"), "_schubert_cached", None)
    if not hasattr(cached, "cache_info"):
        return 0, 0, 0
    info = cached.cache_info()
    return info.hits, info.misses, info.currsize


class Tracer:
    def __init__(self) -> None:
        self.names: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, counter=None):
        """``fn`` recording one span per call under ``name``."""
        nid = self.names.setdefault(name, len(self.names))
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        targets = LIBRARY_TARGETS + (_cli_targets() if "mnrules.cli" in sys.modules else [])
        for module, path, name, counter in targets:
            found = _resolve(module, path)
            if found is None:
                continue
            owner, _, original = found
            wrapper = self.wrap(original, name, counter)
            for space, attr in list(_bindings(owner, original)):
                self._patches.append((space, attr, original))
                setattr(space, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            space, attr, original = self._patches.pop()
            setattr(space, attr, original)

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms and self ms."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        by_id = {nid: name for name, nid in self.names.items()}
        out: dict[str, dict[str, float]] = {}
        for i, nid in enumerate(self.name_id):
            row = out.setdefault(by_id[nid], {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["ms"] += dur * 1000
            row["self_ms"] += (dur - child[i]) * 1000
        return out


def merge(total: dict, part: dict) -> None:
    """Add one process's layers, counts and cache figures into ``total``."""
    for name, row in part["layers"].items():
        acc = total["layers"].setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for key, value in row.items():
            acc[key] += value
    for name, value in part["counts"].items():
        total["counts"][name] = total["counts"].get(name, 0) + value
    hits, misses, size = part["cache"]
    t_hits, t_misses, t_size = total["cache"]
    total["cache"] = [t_hits + hits, t_misses + misses, max(t_size, size)]


def per_layer(trace: dict) -> dict[str, float]:
    """The per-layer metrics from merged layers, counts and cache figures."""
    layers, counts = trace["layers"], trace["counts"]

    def get(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    hits, misses, size = trace["cache"]
    records = counts.get("partitions.add_rim_hooks.records", 0) + counts.get("partitions.remove_rim_hooks.records", 0)
    out = {
        "perm.k_bruhat_covers.calls": get("perm.k_bruhat_covers", "calls"),
        "perm.k_bruhat_covers.self_ms": get("perm.k_bruhat_covers", "self_ms"),
        "perm.pairs_tested": counts.get("perm.pairs_tested", 0),
        "perm.covers_found": counts.get("perm.covers_found", 0),
        "perm.cover_yield": ratio(counts.get("perm.covers_found", 0), counts.get("perm.pairs_tested", 0)),
        "perm.chain_endpoints.ms": get("perm.chain_endpoints", "ms"),
        "perm.endpoints": counts.get("perm.endpoints", 0),
        "schubert.mn_schubert.self_ms": get("schubert.mn_schubert", "self_ms"),
        "schubert.endpoint_yield": ratio(counts.get("schubert.terms", 0), counts.get("perm.endpoints", 0)),
        "partitions.is_rim_hook.calls": get("partitions.is_rim_hook", "calls"),
        "partitions.hook_yield": ratio(records, get("partitions.is_rim_hook", "calls")),
        "partitions.n_core.calls": get("partitions.n_core", "calls"),
        "partitions.n_core.ms": get("partitions.n_core", "ms"),
        "partitions.hooks_stripped": counts.get("partitions.hooks_stripped", 0),
        "symfun.mn_classical.ms": get("symfun.mn_classical", "ms"),
        "quantum.quantum_mn.ms": get("quantum.quantum_mn", "ms"),
        "quantum.psi_reduce.ms": get("quantum.psi_reduce", "ms"),
        "quantum.oracle_quantum_mn.ms": get("quantum.oracle_quantum_mn", "ms"),
        "schubert.schubert_poly.calls": get("schubert.schubert_poly", "calls"),
        "schubert.cache_hits": hits,
        "schubert.cache_misses": misses,
        "schubert.cache_size": size,
        "schubert.divided_difference.calls": get("schubert.divided_difference", "calls"),
        "schubert.divided_difference.ms": get("schubert.divided_difference", "ms"),
        "schubert.expand_in_schubert.ms": get("schubert.expand_in_schubert", "ms"),
        "poly.mul.calls": get("poly.mul", "calls"),
        "poly.mul.ms": get("poly.mul", "ms"),
        "poly.product_terms": counts.get("poly.product_terms", 0),
        "cli.parse_ms": get("cli.parse", "ms"),
        "cli.compute_ms": get("cli.cmd", "ms") - get("cli.render", "ms"),
        "cli.render_ms": get("cli.render", "ms"),
    }
    for side in ("add", "remove"):
        name = f"partitions.{side}_rim_hooks"
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.ms"] = get(name, "ms")
        out[f"{name}.records"] = counts.get(f"{name}.records", 0)
    return out
