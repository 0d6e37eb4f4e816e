"""Golden CLI output: the exact stdout bytes of every subcommand, as text and
with ``--json``.

The other CLI tests parse JSON with ``json.loads`` and so cannot see a change
in spacing or key order; these cases pin the bytes.  ``--verify`` cases also
pin stderr.
"""

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
        ["pieri", "--partition", "2,1", "--size", "2", "--kind", "e", "--k", "3"],
        's[2,2,1] + s[3,1,1] + s[3,2]\n',
        (
            '[{"coeff": 1, "partition": [2, 2, 1]}, {"coeff": 1, "partition": [3, 1, 1]}, '
            '{"coeff": 1, "partition": [3, 2]}]\n'
        ),
    ),
    (
        ["pieri", "--partition", "", "--size", "2", "--kind", "e", "--k", "1"],
        '0\n',
        '[]\n',
    ),
    (
        ["monk", "--w", "21", "--k", "1"],
        'S[3,1,2]\n',
        '[{"coeff": 1, "perm": [3, 1, 2]}]\n',
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
