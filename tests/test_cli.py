import json

import pytest

from mnrules import cli, perm


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_partition_arg():
    assert cli.parse_partition_arg("3,2,1") == (3, 2, 1)
    assert cli.parse_partition_arg("") == ()
    assert cli.parse_partition_arg(" 4 ") == (4,)
    with pytest.raises(ValueError):
        cli.parse_partition_arg("a,b")
    with pytest.raises(ValueError):
        cli.parse_partition_arg("1,2")


def test_parse_perm_arg_digit_string_equals_comma_form():
    assert cli.parse_perm_arg("34165278") == cli.parse_perm_arg("3,4,1,6,5,2,7,8")
    assert cli.parse_perm_arg("34165278") == (3, 4, 1, 6, 5, 2)
    with pytest.raises(ValueError):
        cli.parse_perm_arg("")
    with pytest.raises(ValueError):
        cli.parse_perm_arg("x2")


def test_mn_schur_text(capsys):
    code, out, err = run(
        capsys, "mn-schur", "--partition", "3,2,1", "--r", "5", "--k", "4"
    )
    assert code == 0
    assert out.strip() == "s[3,3,3,2] + s[4,4,3] - s[6,4,1] + s[8,2,1]"


def test_mn_schur_json_round_trip(capsys):
    code, out, err = run(
        capsys, "mn-schur", "--partition", "1", "--r", "2", "--k", "3", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data == [{"coeff": -1, "partition": [1, 1, 1]}, {"coeff": 1, "partition": [3]}]


def test_mn_schur_empty_partition(capsys):
    code, out, _ = run(capsys, "mn-schur", "--partition", "", "--r", "2", "--k", "2")
    assert code == 0
    assert out.strip() == "-s[1,1] + s[2]"


def test_mn_schubert_worked_example_text(capsys):
    code, out, err = run(
        capsys, "mn-schubert", "--w", "34165278", "--k", "4", "--r", "4"
    )
    assert code == 0
    assert out.count("S[") == 8
    assert out.startswith("S[3,4,1,10,5,2,6,7,8,9]")
    assert "- S[3,4,6,7,2,1,5]" in out
    assert "+ S[3,5,6,7,1,2,4]" in out


def test_mn_schubert_verify_match(capsys):
    code, out, err = run(
        capsys, "mn-schubert", "--w", "2,4,1,3", "--k", "2", "--r", "3", "--verify"
    )
    assert code == 0
    assert "verify: MATCH" in err


def test_mn_quantum_text(capsys):
    code, out, err = run(
        capsys,
        "mn-quantum", "--partition", "3,2,1", "--r", "5", "--k", "4", "--n", "8",
    )
    assert code == 0
    assert out.strip() == "σ[3,3,3,2] + σ[4,4,3] + q σ[1,1,1] + q σ[3]"


def test_mn_quantum_purely_quantum_output(capsys):
    code, out, err = run(
        capsys,
        "mn-quantum", "--partition", "4,4,4,4", "--r", "1",
        "--k", "4", "--n", "8", "--verify",
    )
    assert code == 0
    assert out.strip() == "q σ[3,3,3]"
    assert "verify: MATCH" in err


def test_mn_quantum_verify_with_wrap(capsys):
    code, out, err = run(
        capsys,
        "mn-quantum", "--partition", "3,2,1", "--r", "13",
        "--k", "4", "--n", "8", "--verify",
    )
    assert code == 0
    assert "verify: MATCH" in err
    assert "q^2" in out


def test_pieri_text(capsys):
    code, out, _ = run(
        capsys, "pieri", "--partition", "1", "--size", "2", "--kind", "h", "--k", "3"
    )
    assert code == 0
    assert out.strip() == "s[2,1] + s[3]"
    code, out, _ = run(
        capsys, "pieri", "--partition", "1", "--size", "1", "--kind", "e", "--k", "2"
    )
    assert code == 0
    assert out.strip() == "s[1,1] + s[2]"


def test_monk_text(capsys):
    code, out, _ = run(capsys, "monk", "--w", "21", "--k", "1")
    assert code == 0
    assert out.strip() == "S[3,1,2]"


def test_schubert_expand(capsys):
    code, out, _ = run(capsys, "schubert-expand", "--poly", "x1 + x2")
    assert code == 0
    assert out.strip() == "S[1,3,2]"
    code, out, _ = run(capsys, "schubert-expand", "--poly", "x2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == [
        {"coeff": 1, "perm": [1, 3, 2]},
        {"coeff": -1, "perm": [2, 1]},
    ]


def test_core_with_sign(capsys):
    code, out, _ = run(
        capsys, "core", "--partition", "12,10,7,3", "--n", "8", "--k", "4", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["core"] == [4, 2, 2]
    assert data["hooks_removed"] == 3
    assert data["sign"] == 1

    code, out, _ = run(capsys, "core", "--partition", "12,10,7,3", "--n", "8")
    assert code == 0
    assert "core [4,2,2]" in out
    assert "hooks_removed=3" in out


def test_core_rejects_k_below_the_row_count(capsys):
    # psi_reduce refuses these partitions, so there is no sign to report
    for k, message in (
        ("1", "has more than 1 rows"),
        ("0", "k must be positive"),
        ("-5", "k must be positive"),
    ):
        code, out, err = run(capsys, "core", "--partition", "3,2,1", "--n", "2", "--k", k)
        assert code == 2 and out == ""
        assert message in err
    code, out, _ = run(capsys, "core", "--partition", "3,2,1", "--n", "4", "--k", "3")
    assert code == 0 and "sign(k=3)" in out
    code, out, _ = run(capsys, "core", "--partition", "", "--n", "2", "--k", "1")
    assert code == 0 and "sign(k=1)=+1" in out


def test_error_paths_exit_2(capsys):
    code, _, err = run(capsys, "mn-schur", "--partition", "1,2", "--r", "1", "--k", "2")
    assert code == 2 and "error:" in err
    code, _, err = run(
        capsys, "mn-quantum", "--partition", "1", "--r", "8", "--k", "4", "--n", "8"
    )
    assert code == 2 and "error:" in err
    code, _, err = run(
        capsys, "mn-quantum", "--partition", "5,2,1", "--r", "3", "--k", "4", "--n", "8"
    )
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "mn-schubert", "--w", "x", "--k", "1", "--r", "1")
    assert code == 2 and "error:" in err


def test_max_support_option_is_gone(capsys):
    # a bound below the proven one used to truncate the answer to 0
    for argv in (
        ["mn-schubert", "--w", "21", "--k", "1", "--r", "3", "--max-support", "2"],
        ["monk", "--w", "21", "--k", "1", "--max-support", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "--max-support" in capsys.readouterr().err
    code, out, _ = run(capsys, "mn-schubert", "--w", "21", "--k", "1", "--r", "3")
    assert code == 0
    assert out.strip() == "S[5,1,2,3,4]"


def test_selfcheck_passes(capsys):
    code, out, _ = run(capsys, "selfcheck")
    assert code == 0
    assert out.count("PASS") == 6
    assert "FAIL" not in out
    assert "selfcheck: ok" in out


def test_selfcheck_json(capsys):
    code, out, _ = run(capsys, "selfcheck", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert len(data["checks"]) == 6


def test_selfcheck_detects_broken_sign_rule(capsys, monkeypatch):
    flipped = lambda eta, k: perm.het(eta, k) + 1
    monkeypatch.setattr("mnrules.schubert.het", flipped)
    code, out, _ = run(capsys, "selfcheck")
    assert code == 1
    assert "FAIL" in out


def test_verify_reports_mismatch(capsys, monkeypatch):
    flipped = lambda eta, k: perm.het(eta, k) + 1
    monkeypatch.setattr("mnrules.schubert.het", flipped)
    code, out, err = run(
        capsys, "mn-schubert", "--w", "2,4,1,3", "--k", "2", "--r", "3", "--verify"
    )
    assert code == 1
    assert "verify: MISMATCH" in err
