"""Golden CLI output: the exact stdout bytes of every subcommand, as text and
with ``--json``, and of the parser's help and usage errors.

``GOLDEN`` is where the stdout of a successful command is pinned: each row
checks the exit code, the stdout bytes as text and with ``--json`` (term
order and spacing included), and stderr, which is ``verify: MATCH`` for a
``--verify`` row and empty otherwise.  The tests in ``test_cli.py`` pin what
these rows cannot: the README's examples, refusals and limits, ``--verify``
mismatches, and answers too large to spell out here.

The help and usage cases run ``python -m mnrules.cli`` in a child 80
columns wide and pin stdout, stderr and the exit code; argparse words its
help a little differently from one Python release to the next, and these
bytes are those of Python 3.11.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from mnrules import cli

# (argv, stdout as text, stdout with --json)
GOLDEN = [
    (
        ["mn-schur", "--partition", "3,2,1", "--r", "5", "--k", "4"],
        's[3,3,3,2] + s[4,4,3] - s[6,4,1] + s[8,2,1]\n',
        (
            '[{"coeff": 1, "partition": [3, 3, 3, 2]}, {"coeff": 1, "partition": [4, 4, '
            '3]}, {"coeff": -1, "partition": [6, 4, 1]}, {"coeff": 1, "partition": [8, 2, '
            '1]}]\n'
        ),
    ),
    (
        ["mn-schur", "--partition", "", "--r", "2", "--k", "3"],
        '-s[1,1] + s[2]\n',
        '[{"coeff": -1, "partition": [1, 1]}, {"coeff": 1, "partition": [2]}]\n',
    ),
    (
        ["mn-schur", "--partition", "", "--r", "2", "--k", "2"],
        '-s[1,1] + s[2]\n',
        '[{"coeff": -1, "partition": [1, 1]}, {"coeff": 1, "partition": [2]}]\n',
    ),
    (
        ["mn-schur", "--partition", "1", "--r", "2", "--k", "3"],
        '-s[1,1,1] + s[3]\n',
        '[{"coeff": -1, "partition": [1, 1, 1]}, {"coeff": 1, "partition": [3]}]\n',
    ),
    (
        ["mn-schubert", "--w", "2413", "--k", "2", "--r", "3", "--verify"],
        'S[2,7,1,3,4,5,6] - S[4,5,1,2,3]\n',
        (
            '[{"coeff": 1, "perm": [2, 7, 1, 3, 4, 5, 6]}, {"coeff": -1, "perm": [4, 5, 1, '
            '2, 3]}]\n'
        ),
    ),
    (
        ["mn-schubert", "--w", "34165278", "--k", "4", "--r", "4"],
        (
            'S[3,4,1,10,5,2,6,7,8,9] - S[3,4,6,7,2,1,5] - S[3,4,6,8,1,2,5,7] + '
            'S[3,5,6,7,1,2,4] - S[3,6,1,8,4,2,5,7] + S[3,6,4,7,1,2,5] + S[4,5,3,6,2,1] + '
            'S[4,6,1,7,3,2,5]\n'
        ),
        (
            '[{"coeff": 1, "perm": [3, 4, 1, 10, 5, 2, 6, 7, 8, 9]}, {"coeff": -1, "perm": '
            '[3, 4, 6, 7, 2, 1, 5]}, {"coeff": -1, "perm": [3, 4, 6, 8, 1, 2, 5, 7]}, '
            '{"coeff": 1, "perm": [3, 5, 6, 7, 1, 2, 4]}, {"coeff": -1, "perm": [3, 6, 1, '
            '8, 4, 2, 5, 7]}, {"coeff": 1, "perm": [3, 6, 4, 7, 1, 2, 5]}, {"coeff": 1, '
            '"perm": [4, 5, 3, 6, 2, 1]}, {"coeff": 1, "perm": [4, 6, 1, 7, 3, 2, 5]}]\n'
        ),
    ),
    (
        ["mn-quantum", "--partition", "3,2,1", "--r", "5", "--k", "4", "--n", "8", "--verify"],
        'σ[3,3,3,2] + σ[4,4,3] + q σ[1,1,1] + q σ[3]\n',
        (
            '[{"coeff": 1, "q": 0, "partition": [3, 3, 3, 2]}, {"coeff": 1, "q": 0, '
            '"partition": [4, 4, 3]}, {"coeff": 1, "q": 1, "partition": [1, 1, 1]}, '
            '{"coeff": 1, "q": 1, "partition": [3]}]\n'
        ),
    ),
    (
        ["mn-quantum", "--partition", "3,2,1", "--r", "13", "--k", "4", "--n", "8"],
        'q σ[3,3,3,2] + q σ[4,4,3] + q^2 σ[1,1,1] + q^2 σ[3]\n',
        (
            '[{"coeff": 1, "q": 1, "partition": [3, 3, 3, 2]}, {"coeff": 1, "q": 1, '
            '"partition": [4, 4, 3]}, {"coeff": 1, "q": 2, "partition": [1, 1, 1]}, '
            '{"coeff": 1, "q": 2, "partition": [3]}]\n'
        ),
    ),
    (
        ["mn-quantum", "--partition", "2,1", "--r", "7", "--k", "2", "--n", "5"],
        'q^2 σ[]\n',
        '[{"coeff": 1, "q": 2, "partition": []}]\n',
    ),
    (
        ["mn-quantum", "--partition", "4,4,4,4", "--r", "1", "--k", "4", "--n", "8", "--verify"],
        'q σ[3,3,3]\n',
        '[{"coeff": 1, "q": 1, "partition": [3, 3, 3]}]\n',
    ),
    (
        ["pieri", "--partition", "2,1", "--size", "2", "--kind", "e", "--k", "3"],
        's[2,2,1] + s[3,1,1] + s[3,2]\n',
        (
            '[{"coeff": 1, "partition": [2, 2, 1]}, {"coeff": 1, "partition": [3, 1, 1]}, '
            '{"coeff": 1, "partition": [3, 2]}]\n'
        ),
    ),
    (
        ["pieri", "--partition", "2,1", "--size", "2", "--kind", "h", "--k", "3"],
        's[2,2,1] + s[3,1,1] + s[3,2] + s[4,1]\n',
        (
            '[{"coeff": 1, "partition": [2, 2, 1]}, {"coeff": 1, "partition": [3, 1, 1]}, '
            '{"coeff": 1, "partition": [3, 2]}, {"coeff": 1, "partition": [4, 1]}]\n'
        ),
    ),
    (
        ["pieri", "--partition", "", "--size", "2", "--kind", "e", "--k", "1"],
        '0\n',
        '[]\n',
    ),
    (
        ["pieri", "--partition", "1", "--size", "1", "--kind", "e", "--k", "2"],
        's[1,1] + s[2]\n',
        '[{"coeff": 1, "partition": [1, 1]}, {"coeff": 1, "partition": [2]}]\n',
    ),
    (
        ["monk", "--w", "21", "--k", "1"],
        'S[3,1,2]\n',
        '[{"coeff": 1, "perm": [3, 1, 2]}]\n',
    ),
    (  # '' is the identity, as '' is the empty partition
        ["monk", "--w", "", "--k", "1"],
        'S[2,1]\n',
        '[{"coeff": 1, "perm": [2, 1]}]\n',
    ),
    (
        ["schubert-expand", "--poly", "-2*x1 - x1*x2 + 3*x1^2"],
        '-2*S[2,1] - S[2,3,1] + 3*S[3,1,2]\n',
        (
            '[{"coeff": -2, "perm": [2, 1]}, {"coeff": -1, "perm": [2, 3, 1]}, {"coeff": 3, '
            '"perm": [3, 1, 2]}]\n'
        ),
    ),
    (
        ["schubert-expand", "--poly", "0"],
        '0\n',
        '[]\n',
    ),
    (
        ["schubert-expand", "--poly", "x1 + x2"],
        'S[1,3,2]\n',
        '[{"coeff": 1, "perm": [1, 3, 2]}]\n',
    ),
    (
        ["schubert-expand", "--poly", "x2"],
        'S[1,3,2] - S[2,1]\n',
        '[{"coeff": 1, "perm": [1, 3, 2]}, {"coeff": -1, "perm": [2, 1]}]\n',
    ),
    (
        ["core", "--partition", "12,10,7,3", "--n", "8"],
        'core [4,2,2]  hooks_removed=3  height_sum=10\n',
        '{"core": [4, 2, 2], "hooks_removed": 3, "height_sum": 10}\n',
    ),
    (
        ["core", "--partition", "12,10,7,3", "--n", "8", "--k", "4"],
        'core [4,2,2]  hooks_removed=3  height_sum=10  sign(k=4)=+1\n',
        '{"core": [4, 2, 2], "hooks_removed": 3, "height_sum": 10, "sign": 1}\n',
    ),
    (
        ["core", "--partition", "9,8,5,2", "--n", "8", "--k", "4"],
        'core [7,4,3,2]  hooks_removed=1  height_sum=3  sign(k=4)=-1\n',
        '{"core": [7, 4, 3, 2], "hooks_removed": 1, "height_sum": 3, "sign": -1}\n',
    ),
    (
        ["selfcheck"],
        (
            'PASS  p_4(x1..x4) * S[3,4,1,6,5,2,7,8]: S[3,4,1,10,5,2,6,7,8,9] - '
            'S[3,4,6,7,2,1,5] - S[3,4,6,8,1,2,5,7] + S[3,5,6,7,1,2,4] - S[3,6,1,8,4,2,5,7] '
            '+ S[3,6,4,7,1,2,5] + S[4,5,3,6,2,1] + S[4,6,1,7,3,2,5]\n'
            'PASS  p_5 * sigma[3,2,1] in qH*(Gr(4,8)): σ[3,3,3,2] + σ[4,4,3] + q σ[1,1,1] + '
            'q σ[3]\n'
            'PASS  8-core of [12,10,7,3]: core [4,2,2] hooks_removed=3\n'
            'PASS  psi[12,10,7,3] in qH*(Gr(4,8)): q^3 σ[4,2,2]\n'
            'PASS  psi[9,8,5,2] in qH*(Gr(4,8)): core [7,4,3,2] image 0\n'
            'PASS  ideal vanishing in qH*(Gr(4,8)): 24/24 generators vanish correctly\n'
            'selfcheck: ok\n'
        ),
        (
            '{"ok": true, "checks": [{"name": "p_4(x1..x4) * S[3,4,1,6,5,2,7,8]", "ok": '
            'true, "detail": "S[3,4,1,10,5,2,6,7,8,9] - S[3,4,6,7,2,1,5] - '
            'S[3,4,6,8,1,2,5,7] + S[3,5,6,7,1,2,4] - S[3,6,1,8,4,2,5,7] + S[3,6,4,7,1,2,5] '
            '+ S[4,5,3,6,2,1] + S[4,6,1,7,3,2,5]"}, {"name": "p_5 * sigma[3,2,1] in '
            'qH*(Gr(4,8))", "ok": true, "detail": "\\u03c3[3,3,3,2] + \\u03c3[4,4,3] + q '
            '\\u03c3[1,1,1] + q \\u03c3[3]"}, {"name": "8-core of [12,10,7,3]", "ok": true, '
            '"detail": "core [4,2,2] hooks_removed=3"}, {"name": "psi[12,10,7,3] in '
            'qH*(Gr(4,8))", "ok": true, "detail": "q^3 \\u03c3[4,2,2]"}, {"name": '
            '"psi[9,8,5,2] in qH*(Gr(4,8))", "ok": true, "detail": "core [7,4,3,2] image '
            '0"}, {"name": "ideal vanishing in qH*(Gr(4,8))", "ok": true, "detail": "24/24 '
            'generators vanish correctly"}]}\n'
        ),
    ),
]


@pytest.mark.parametrize(
    "argv, text, as_json", GOLDEN, ids=[" ".join(argv) for argv, _, _ in GOLDEN]
)
def test_stdout_bytes_are_pinned(capsysbinary, argv, text, as_json):
    err = b"verify: MATCH\n" if "--verify" in argv else b""
    for extra, expected in (([], text), (["--json"], as_json)):
        assert cli.main(argv + extra) == 0
        assert capsysbinary.readouterr() == (expected.encode("utf-8"), err)


USAGE = (
    "usage: mnrules [-h]\n"
    "               {mn-schur,mn-schubert,mn-quantum,pieri,monk,schubert-expand,core,"
    "selfcheck}\n"
    "               ...\n"
)

# (argv, stdout, stderr, exit code) of ``mnrules`` in a child with COLUMNS=80
PARSER_GOLDEN = [
    (
        ["--help"],
        (
            USAGE + "\n"
            "Exact power-sum products in the Schur, Schubert, and quantum Schubert bases.\n"
            "\n"
            "positional arguments:\n"
            "  {mn-schur,mn-schubert,mn-quantum,pieri,monk,schubert-expand,core,selfcheck}\n"
            "    mn-schur            p_r times s_lambda in k variables\n"
            "    mn-schubert         p_r(x1..xk) times a Schubert polynomial\n"
            "    mn-quantum          p_r times a Schubert cycle in qH*(Gr(k,n))\n"
            "    pieri               e_a or h_b times s_lambda in k variables\n"
            "    monk                (x1+...+xk) times a Schubert polynomial\n"
            "    schubert-expand     expand a polynomial in the Schubert basis\n"
            "    core                n-core of a partition\n"
            "    selfcheck           run the built-in known-answer checks\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
        ),
        "",
        0,
    ),
    (
        ["mn-schur", "--help"],
        (
            "usage: mnrules mn-schur [-h] --partition PARTITION --r R --k K [--json]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --partition PARTITION\n"
            "                        comma-separated parts, '' for empty\n"
            "  --r R\n"
            "  --k K\n"
            "  --json                emit JSON instead of text\n"
        ),
        "",
        0,
    ),
    (
        ["mn-schubert", "--help"],
        (
            "usage: mnrules mn-schubert [-h] --w W --k K --r R [--verify] [--json]\n"
            "\n"
            "options:\n"
            "  -h, --help  show this help message and exit\n"
            "  --w W       one-line permutation, 34165278 or 3,4,1,6,5,2,7,8\n"
            "  --k K\n"
            "  --r R\n"
            "  --verify    cross-check against polynomial arithmetic\n"
            "  --json      emit JSON instead of text\n"
        ),
        "",
        0,
    ),
    (
        ["mn-quantum", "--help"],
        (
            "usage: mnrules mn-quantum [-h] --partition PARTITION --r R --k K --n N\n"
            "                          [--verify] [--json]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --partition PARTITION\n"
            "  --r R\n"
            "  --k K\n"
            "  --n N\n"
            "  --verify              cross-check against the reduction map\n"
            "  --json                emit JSON instead of text\n"
        ),
        "",
        0,
    ),
    (
        ["pieri", "--help"],
        (
            "usage: mnrules pieri [-h] --partition PARTITION --size SIZE --kind {e,h} --k K\n"
            "                     [--json]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --partition PARTITION\n"
            "  --size SIZE\n"
            "  --kind {e,h}\n"
            "  --k K\n"
            "  --json                emit JSON instead of text\n"
        ),
        "",
        0,
    ),
    (
        ["monk", "--help"],
        (
            "usage: mnrules monk [-h] --w W --k K [--json]\n"
            "\n"
            "options:\n"
            "  -h, --help  show this help message and exit\n"
            "  --w W\n"
            "  --k K\n"
            "  --json      emit JSON instead of text\n"
        ),
        "",
        0,
    ),
    (
        ["schubert-expand", "--help"],
        (
            "usage: mnrules schubert-expand [-h] --poly POLY [--json]\n"
            "\n"
            "options:\n"
            "  -h, --help   show this help message and exit\n"
            "  --poly POLY  e.g. 'x1^2*x2 + 3*x1*x3'\n"
            "  --json       emit JSON instead of text\n"
        ),
        "",
        0,
    ),
    (
        ["core", "--help"],
        (
            "usage: mnrules core [-h] --partition PARTITION --n N [--k K] [--json]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --partition PARTITION\n"
            "  --n N\n"
            "  --k K                 also report the sign for this k\n"
            "  --json                emit JSON instead of text\n"
        ),
        "",
        0,
    ),
    (
        ["selfcheck", "--help"],
        (
            "usage: mnrules selfcheck [-h] [--json]\n"
            "\n"
            "options:\n"
            "  -h, --help  show this help message and exit\n"
            "  --json      emit JSON instead of text\n"
        ),
        "",
        0,
    ),
    (
        [],
        "",
        USAGE + "mnrules: error: the following arguments are required: command\n",
        2,
    ),
    (
        ["bogus"],
        "",
        (
            USAGE + "mnrules: error: argument command: invalid choice: 'bogus' (choose from "
            "'mn-schur', 'mn-schubert', 'mn-quantum', 'pieri', 'monk', 'schubert-expand', "
            "'core', 'selfcheck')\n"
        ),
        2,
    ),
    (
        ["mn-schur", "--partition", "1"],
        "",
        (
            "usage: mnrules mn-schur [-h] --partition PARTITION --r R --k K [--json]\n"
            "mnrules mn-schur: error: the following arguments are required: --r, --k\n"
        ),
        2,
    ),
]


@pytest.mark.parametrize(
    "argv, out, err, code",
    PARSER_GOLDEN,
    ids=[" ".join(["mnrules", *argv]) for argv, _, _, _ in PARSER_GOLDEN],
)
def test_help_and_usage_bytes_are_pinned(argv, out, err, code):
    env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "mnrules.cli", *argv], env=env, capture_output=True, timeout=60
    )
    assert (proc.stdout, proc.stderr, proc.returncode) == (out.encode(), err.encode(), code)
