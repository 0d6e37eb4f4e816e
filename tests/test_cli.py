import contextlib
import io
import os
import resource
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from mnrules import cli, schubert
from mnrules.poly import SparsePoly
from mnrules.quantum import oracle_quantum_mn
from mnrules.symfun import mn_classical
from oracles import leq


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
    assert cli.parse_perm_arg("") == cli.parse_perm_arg(" ") == ()  # the identity
    with pytest.raises(ValueError):
        cli.parse_perm_arg("x2")


def test_mn_quantum_verify_with_wrap(capsys):
    code, out, err = run(
        capsys,
        "mn-quantum", "--partition", "3,2,1", "--r", "13",
        "--k", "4", "--n", "8", "--verify",
    )
    assert code == 0
    assert "verify: MATCH" in err
    assert "q^2" in out


def test_core_rejects_k_below_the_row_count(capsys):
    # psi_reduce refuses these partitions, so there is no sign to report
    for k, message in (
        ("1", "has more than 1 rows"),
        ("0", "need k >= 1, got 0"),
        ("-5", "need k >= 1, got -5"),
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


# One cheap command line per handler
DISPATCH = {
    "cmd_mn_schur": ["mn-schur", "--partition", "1", "--r", "1", "--k", "2"],
    "cmd_mn_schubert": ["mn-schubert", "--w", "21", "--k", "1", "--r", "1"],
    "cmd_mn_quantum": ["mn-quantum", "--partition", "1", "--r", "1", "--k", "1", "--n", "2"],
    "cmd_pieri": ["pieri", "--partition", "1", "--size", "1", "--kind", "e", "--k", "2"],
    "cmd_monk": ["monk", "--w", "21", "--k", "1"],
    "cmd_schubert_expand": ["schubert-expand", "--poly", "x1"],
    "cmd_core": ["core", "--partition", "1", "--n", "2"],
    "cmd_selfcheck": ["selfcheck"],
}


def test_main_calls_each_handler_through_its_module_attribute(monkeypatch):
    # perfbench's tracer times a command by rebinding cli.cmd_* to a wrapper
    # after import, so main must look the handler up by name, not keep the
    # function it saw when the module was loaded.
    assert sorted(DISPATCH) == sorted(name for name in vars(cli) if name.startswith("cmd_"))
    calls = []
    for name in DISPATCH:

        def counted(args, name=name, handler=getattr(cli, name)):
            calls.append(name)
            return handler(args)

        monkeypatch.setattr(cli, name, counted)
    for name, argv in DISPATCH.items():
        calls.clear()
        assert cli.main(argv) == 0, argv
        assert calls == [name]


CYCLE_SIGN = schubert._cycle_sign


def flipped_cycle_sign(*args):
    """The Schubert rule's sign helper with every nonzero sign negated."""
    return -CYCLE_SIGN(*args)


@pytest.mark.parametrize(
    "target, broken, argv",
    [
        (
            "mnrules.schubert._cycle_sign",
            flipped_cycle_sign,
            ["mn-schubert", "--w", "2,4,1,3", "--k", "2", "--r", "3"],
        ),
        (
            "mnrules.quantum.oracle_quantum_mn",
            lambda lam, r, ctx: {t: -c for t, c in oracle_quantum_mn(lam, r, ctx).items()},
            ["mn-quantum", "--partition", "3,2,1", "--r", "5", "--k", "4", "--n", "8"],
        ),
        (
            # only the q**0 half of the psi route reads the box-fitting
            # terms, so this catches a quantum_mn that shares mn_classical
            "mnrules.quantum.mn_classical",
            lambda lam, r, k: {
                mu: -c if leq(mu, (4,) * 4) else c for mu, c in mn_classical(lam, r, k).items()
            },
            ["mn-quantum", "--partition", "3,2,1", "--r", "5", "--k", "4", "--n", "8"],
        ),
    ],
    ids=["mn-schubert", "mn-quantum", "mn-quantum-q0"],
)
def test_verify_reports_mismatch(capsys, monkeypatch, target, broken, argv):
    monkeypatch.setattr(target, broken)
    code, out, err = run(capsys, *argv, "--verify")
    assert code == 1
    assert err == "verify: MISMATCH\n"


def out_of_memory(*args):
    raise MemoryError


@pytest.mark.parametrize(
    "target, flags",
    [("mnrules.schubert.mn_schubert", []), ("mnrules.schubert._times_x", ["--verify"])],
    ids=["compute", "verify"],
)
def test_out_of_memory_exits_2_not_1(capsys, monkeypatch, target, flags):
    # exit 1 would read as a --verify mismatch
    monkeypatch.setattr(target, out_of_memory)
    code, out, err = run(capsys, "mn-schubert", "--w", "2,4,1,3", "--k", "2", "--r", "3", *flags)
    assert code == 2
    assert err == "error: out of memory\n"


def recursion_too_deep(*args):
    raise RecursionError


@pytest.mark.parametrize(
    "argv, printed",
    [
        (["schubert-expand", "--poly", "x1^40"], ""),
        (
            ["mn-schubert", "--w", "21", "--k", "50", "--r", "1", "--verify"],
            f"S{cli.fmt_partition((2, 1, *range(3, 50), 51, 50))}\n",
        ),
    ],
    ids=["expand", "verify"],
)
def test_recursion_too_deep_exits_2_not_1(capsys, monkeypatch, argv, printed):
    # Exit 1 would read as a --verify mismatch of the result mn-schubert has
    # already printed.
    monkeypatch.setattr("mnrules.schubert._times_x", recursion_too_deep)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == printed
    assert err == "error: recursion too deep for this input\n"


def test_long_first_ascent_chains_answer(capsys):
    # 780 and 1,273 steps from the word up to w0, past the interpreter's
    # recursion limit of 1,000 frames
    code, out, err = run(capsys, "schubert-expand", "--poly", "x1^40")
    assert (code, out, err) == (0, f"S{cli.fmt_partition((41, *range(1, 41)))}\n", "")
    code, out, err = run(capsys, "mn-schubert", "--w", "21", "--k", "50", "--r", "1", "--verify")
    assert code == 0
    assert out == f"S{cli.fmt_partition((2, 1, *range(3, 50), 51, 50))}\n"
    assert err == "verify: MATCH\n"


def test_inputs_past_the_old_chain_limit_answer(capsys):
    # The divided-difference route refused these: x1^272 had 36,856 steps
    # of 273 letters up to the longest word, and x300 and k = 400 more.
    code, out, err = run(capsys, "schubert-expand", "--poly", "x1^272")
    assert (code, out, err) == (0, f"S{cli.fmt_partition((273, *range(1, 273)))}\n", "")
    code, out, err = run(capsys, "schubert-expand", "--poly", "x300")
    assert (code, err) == (0, "")
    assert out == f"S{cli.fmt_partition((*range(1, 300), 301, 300))} - S{cli.fmt_partition((*range(1, 299), 300, 299))}\n"
    code, out, err = run(capsys, "mn-schubert", "--w", "21", "--k", "400", "--r", "2", "--verify")
    assert (code, err) == (0, "verify: MATCH\n")


def exit_and_peak(capsys, *argv):
    """(exit code, stderr, peak bytes tracemalloc saw) of one command."""
    tracemalloc.start()
    try:
        code = cli.main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, capsys.readouterr().err, peak


def test_letter_limit_exits_2_before_building_words(capsys):
    # x1^3000 is 3000 * 3001 letter steps, under the limit; x1^3200 is over
    limit = schubert.LETTER_LIMIT
    code, err, peak = exit_and_peak(capsys, "schubert-expand", "--poly", "x1^3200")
    assert (code, err) == (
        2,
        f"error: expanding degree 3200 with words of 3201 letters needs 10243200 letters, "
        f"over the limit of {limit}\n",
    )
    assert peak < 1_000_000
    # p_1(x_1..x_50000) alone would hold 50000 exponent tuples of up to
    # 50000 entries; the rule itself, on words of 50001 letters, peaks near 5.5 MB
    code, err, peak = exit_and_peak(capsys, "mn-schubert", "--w", "21", "--k", "50000", "--r", "1", "--verify")
    assert (code, err) == (
        2,
        f"error: p_1(x_1..x_50000) times S_w needs 2500050000 letters, over the limit of {limit}\n",
    )
    assert peak < 8_000_000


def test_schubert_poly_memo_over_the_letter_limit_raises(monkeypatch):
    # S_1432 = x3 S_1423 + S_2413, and so on down to S_() = 1: the memo ends
    # with eight words of 26 letters in all, and is checked as it fills
    w = (1, 4, 3, 2)
    monkeypatch.setattr(schubert, "LETTER_LIMIT", 26)
    assert schubert.schubert_poly(w) == SparsePoly.parse("x1^2*x2 + x1^2*x3 + x1*x2^2 + x1*x2*x3 + x2^2*x3")
    monkeypatch.setattr(schubert, "LETTER_LIMIT", 25)
    message = "the Schubert polynomial of a word of 4 letters needs 26 letters, over the limit of 25"
    with pytest.raises(ValueError, match=f"^{message}$"):
        schubert.schubert_poly(w)


def test_s12_verify_answers_in_time(capsys):
    # The polynomial route built S_w (491,072 monomials) and a product of
    # 2,122,797 monomials first; Monk's rule takes about 0.1 s.
    started = time.perf_counter()
    code, out, err = run(capsys, "mn-schubert", "--w", "7,4,1,5,9,2,3,12,11,10,8,6", "--k", "6", "--r", "3", "--verify")
    elapsed = time.perf_counter() - started
    assert (code, out.count("S["), err) == (0, 59, "verify: MATCH\n")
    assert elapsed < 5.0


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
    # word, and the third strips 5 * 10**16 hooks one at a time.  The
    # schubert-expand inputs would build a Lehmer-code pool or an exponent
    # tuple of 10**6 to 10**20 entries.
    for argv in (
        ["monk", "--w", "21", "--k", "9999999999"],
        ["mn-schubert", "--w", "21", "--k", "99999999999999", "--r", "2"],
        ["core", "--partition", "99999999999999999", "--n", "2"],
        ["schubert-expand", "--poly", "x1^99999999999999999999"],
        ["schubert-expand", "--poly", "x99999999999999999999"],
        ["schubert-expand", "--poly", "x1^1000000"],
        ["schubert-expand", "--poly", "x1000000"],
    ):
        proc = run_capped(*argv)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and "over the limit of 100000" in proc.stderr


def test_core_refuses_hooks_times_rows_over_the_limit(capsys):
    # 10001 one-box rows may strip 5000 hooks, each shifting up to one
    # list slot per row
    code, out, err = run(capsys, "core", "--partition", ",".join(["1"] * 10001), "--n", "2")
    assert (code, out) == (2, "")
    assert err == (
        "error: may strip up to 5000 hooks over 10001 rows, 50005000 row steps,"
        " over the limit of 50000000\n"
    )


def test_size_limits_sit_at_their_bounds(capsys):
    # padded word of k + 1 = 100000 letters: allowed; one more is refused
    assert run(capsys, "monk", "--w", "21", "--k", "99999")[0] == 0
    code, _, err = run(capsys, "monk", "--w", "21", "--k", "100000")
    assert code == 2 and "needs words of 100001 letters" in err
    code, _, err = run(capsys, "core", "--partition", "200002", "--n", "2")
    assert code == 2 and "may strip up to 100001 hooks" in err
    assert run(capsys, "mn-schur", "--partition", "1", "--r", "2", "--k", "500")[0] == 0
    assert run(capsys, "mn-quantum", "--partition", "1", "--r", "2", "--k", "500", "--n", "1000")[0] == 0
    for argv in (
        ["mn-schur", "--partition", "1", "--r", "2", "--k", "501"],
        ["pieri", "--partition", "1", "--size", "2", "--kind", "h", "--k", "501"],
        ["mn-quantum", "--partition", "1", "--r", "2", "--k", "501", "--n", "1000"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "501 rows is over the limit of 500" in err
    # the context is refused before r, which is also divisible by n here
    code, _, err = run(capsys, "mn-quantum", "--partition", "1", "--r", "1200", "--k", "600", "--n", "1200")
    assert (code, err) == (2, "error: 600 rows is over the limit of 500\n")


# Small values, and values past every size limit.  mn-schubert takes nothing
# in between: its chain search has no work budget yet, and its cost climbs
# fast with k and r (--w 21 --k 40 --r 40 takes about 13 s).  schubert-expand
# also takes exponents and variable indices from 7 to 400, and the other
# commands take any value up to 10**20.
small_or_huge = st.one_of(
    st.integers(-3, 6), st.integers(10**6, 10**20), st.integers(-(10**20), -(10**6))
)
expand_int = small_or_huge | st.integers(7, 400)
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
    command("mn-schubert", w=perm_text, k=small_or_huge, r=small_or_huge, verify=st.booleans()),
    command(
        "mn-quantum", partition=partition_text, r=any_int, k=st.integers(1, 6) | any_int,
        n=any_int, verify=st.booleans(),
    ),
    command("pieri", partition=partition_text, size=st.integers(-1, 4), kind=st.sampled_from("eh"), k=any_int),
    command("monk", w=perm_text, k=any_int),
    command("core", partition=partition_text, n=any_int, k=st.none() | any_int),
    command(
        "schubert-expand",
        poly=st.lists(st.tuples(expand_int, expand_int), min_size=1, max_size=3).map(
            lambda monomials: " + ".join(f"x{i}^{e}" for i, e in monomials)
        ),
    ),
)


@given(commands, st.booleans())
@example(["schubert-expand", "--poly", "x1^99999999999999999999"], False)
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
