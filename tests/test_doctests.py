import doctest
from pathlib import Path

import oracles
from mnrules import partitions, perm, poly, quantum, schubert, symfun

README = Path(__file__).resolve().parents[1] / "README.md"


def test_doctests_pass():
    attempted = {}
    for module in (partitions, perm, poly, quantum, schubert, symfun, oracles):
        result = doctest.testmod(module)
        assert result.failed == 0, f"doctest failures in {module.__name__}"
        attempted[module] = result.attempted
    assert sum(attempted.values()) - attempted[oracles] >= 10
    assert attempted[oracles] >= 4


def test_readme_examples_pass():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.failed == 0
    assert result.attempted == 4
