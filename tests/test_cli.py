import contextlib
import io
import json
import os
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mnrules import cli, perm


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_examples():
    """(argv, stdout) for each ``$ mnrules ...`` example in the README's
    "Command line" section, whose output is shown in full (not selfcheck)."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for entry in block.strip().split("\n\n"):
        prompt, *output = entry.split("\n")
        argv = shlex.split(prompt.removeprefix("$ "))
        assert argv[0] == "mnrules", prompt
        if argv[1] != "selfcheck":
            examples.append((argv[1:], "".join(line + "\n" for line in output)))
    return examples


def test_readme_command_line_examples_print_what_the_readme_shows(capsys):
    examples = readme_examples()
    assert len(examples) == 7
    for argv, expected in examples:
        assert run(capsys, *argv) == (0, expected, ""), argv


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


def run_capped(*argv, memory=1 << 30, timeout=20):
    """Run ``mnrules`` in a child whose address space is capped at ``memory`` bytes."""
    cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (memory, memory))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "mnrules.cli", *argv],
        env=env, preexec_fn=cap, capture_output=True, text=True, timeout=timeout,
    )


def test_size_limits_exit_2_before_any_allocation():
    # Without the limits the first two ask for 80 GB and 800 TB of padded
    # word, and the third strips 5 * 10**16 hooks one at a time.
    for argv in (
        ["monk", "--w", "21", "--k", "9999999999"],
        ["mn-schubert", "--w", "21", "--k", "99999999999999", "--r", "2"],
        ["core", "--partition", "99999999999999999", "--n", "2"],
    ):
        proc = run_capped(*argv)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and "over the limit of 100000" in proc.stderr


def test_size_limits_sit_at_their_bounds(capsys):
    # padded word of k + 1 = 100000 letters: allowed; one more is refused
    assert run(capsys, "monk", "--w", "21", "--k", "99999")[0] == 0
    code, _, err = run(capsys, "monk", "--w", "21", "--k", "100000")
    assert code == 2 and "needs words of 100001 letters" in err
    code, _, err = run(capsys, "core", "--partition", "200002", "--n", "2")
    assert code == 2 and "may strip up to 100001 hooks" in err
    assert run(capsys, "mn-schur", "--partition", "1", "--r", "2", "--k", "500")[0] == 0
    for argv in (
        ["mn-schur", "--partition", "1", "--r", "2", "--k", "501"],
        ["pieri", "--partition", "1", "--size", "2", "--kind", "h", "--k", "501"],
        ["mn-quantum", "--partition", "1", "--r", "2", "--k", "501", "--n", "1000"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "501 rows is over the limit of 500" in err


# Small values, and values past every size limit.  mn-schubert takes nothing
# in between: its chain search has no work budget yet, and its cost climbs
# fast with k and r (--w 21 --k 40 --r 40 takes about 13 s).  The other
# commands take any value up to 10**20.
small_or_huge = st.one_of(
    st.integers(-3, 6), st.integers(10**6, 10**20), st.integers(-(10**20), -(10**6))
)
any_int = st.one_of(small_or_huge, st.integers(-(10**20), 10**20))
perm_text = st.one_of(
    st.integers(0, 7).flatmap(lambda m: st.permutations(range(1, m + 1))).flatmap(
        lambda w: st.sampled_from(["".join(map(str, w)), ",".join(map(str, w))])
    ),
    st.text("0123456789,-x ", max_size=8),
)
partition_text = st.one_of(
    st.lists(st.integers(1, 6) | st.integers(10**6, 10**20), max_size=4),
    st.lists(any_int, max_size=4),
).map(lambda parts: ",".join(map(str, sorted(parts, reverse=True)))) | st.text("0123456789,-. ", max_size=10)


def command(name, **options):
    """argv for ``name``: ``--opt value`` per drawn option, ``--opt`` for True,
    nothing for None or False."""

    def argv(drawn):
        out = [name]
        for opt, value in drawn.items():
            if value is True:
                out.append(f"--{opt}")
            elif value is not None and value is not False:
                out += [f"--{opt}", str(value)]
        return out

    return st.fixed_dictionaries(options).map(argv)


commands = st.one_of(
    command("mn-schur", partition=partition_text, r=any_int, k=any_int),
    command("mn-schubert", w=perm_text, k=small_or_huge, r=small_or_huge),
    command(
        "mn-quantum", partition=partition_text, r=any_int, k=st.integers(1, 6) | any_int,
        n=any_int, verify=st.booleans(),
    ),
    command("pieri", partition=partition_text, size=st.integers(-1, 4), kind=st.sampled_from("eh"), k=any_int),
    command("monk", w=perm_text, k=any_int),
    command("core", partition=partition_text, n=any_int, k=st.none() | any_int),
)


@given(commands, st.booleans())
@settings(max_examples=150, deadline=None)
def test_every_command_exits_0_or_2_without_a_traceback(argv, as_json):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv + ["--json"] * as_json)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith(("error: ", "usage: ")), err.getvalue()


def modules_added_by(statement: str) -> set[str]:
    """Top-level modules a fresh interpreter has loaded after ``statement``
    and a bare one has not, so a module a ``.pth`` file preloads is never
    counted."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    show = "import sys; print(' '.join(sorted(sys.modules)))"
    loaded = []
    for code in (show, f"{statement}; {show}"):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        loaded.append({name.split(".")[0] for name in proc.stdout.split()})
    return loaded[1] - loaded[0]


def test_cold_import_loads_no_dataclasses_inspect_or_json():
    # dataclasses pulls in inspect, ast and dis; json is needed only for --json
    assert modules_added_by("import mnrules.cli") & {"dataclasses", "inspect", "json"} == set()
    assert modules_added_by("import mnrules") & {"dataclasses", "inspect"} == set()
