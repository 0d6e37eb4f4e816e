import sys

import pytest


@pytest.fixture
def refuse(monkeypatch):
    """``refuse(*functions)``: for the rest of the test, each function raises
    AssertionError under every name that a loaded ``mnrules`` module binds it
    to, so a by-name import (``from .partitions import _bead_moves``) cannot
    slip past the check."""

    def refused(function):
        def call(*args, **kwargs):
            raise AssertionError(f"{function.__module__}.{function.__qualname__} was called")

        return call

    def patch(*functions):
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "mnrules"]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if any(value is function for function in functions):
                    monkeypatch.setattr(module, attr, refused(value))

    return patch
