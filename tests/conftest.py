"""Shared test plumbing: the acceptance verdict board and a call counter.

Acceptance tests record one line per criterion; the hook below prints
them after the run summary, outside pytest's output capture, so the
verdicts are visible in any log.
"""

import sys

import pytest

_ACCEPTANCE_LINES = {}


@pytest.fixture(scope="session")
def acceptance_line():
    def record(criterion: int, status: str, detail: str):
        _ACCEPTANCE_LINES[criterion] = (
            f"ACCEPTANCE {criterion}: {status} - {detail}")
    return record


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, *names) wraps each named function of `module` at
    every omega23 binding of it and returns the live call counts."""
    def wrap(module, *names):
        counts = dict.fromkeys(names, 0)
        bound = [m for key, m in sorted(sys.modules.items())
                 if m is not None and key.startswith("omega23")]
        for name in names:
            orig = getattr(module, name)

            def wrapper(*args, _name=name, _orig=orig, **kwargs):
                counts[_name] += 1
                return _orig(*args, **kwargs)

            for mod in bound:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        monkeypatch.setattr(mod, key, wrapper)
        return counts
    return wrap


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for criterion in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(_ACCEPTANCE_LINES[criterion])
