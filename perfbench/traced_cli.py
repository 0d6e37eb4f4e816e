"""Run one ``mnrules`` command with the benchmark's wrappers installed.

    PYTHONPATH=src python3 perfbench/traced_cli.py <mnrules arguments>

Behaves like ``python -m mnrules.cli``: the same stdout, stderr and exit
code.  After the command it writes one more stderr line: ``TRACE_MARK``
followed by the JSON of its layers, counters and Schubert-cache figures.
"""

from __future__ import annotations

import json
import sys

import mnrules.cli
from tracing import TRACE_MARK, Tracer, schubert_cache_info


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    try:
        code = mnrules.cli.main(argv)
    finally:
        tracer.uninstall()
    trace = {"layers": tracer.layers(), "counts": tracer.counts, "cache": schubert_cache_info()}
    sys.stdout.flush()
    print(TRACE_MARK + json.dumps(trace), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
