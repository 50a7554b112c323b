"""Replays the acceptance verdict lines after the run; counts eigh calls.

Output capture swallows prints from passing tests, so the acceptance
tests append their PASS|FAIL lines to the session-scoped verdict log
and the terminal summary writes the full checklist once at the end.
"""

import numpy as np
import pytest

_VERDICTS: list = []


@pytest.fixture(scope="session")
def verdict_log():
    return _VERDICTS


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _VERDICTS:
        return
    terminalreporter.write_sep("=", "acceptance checklist")
    for line in sorted(_VERDICTS, key=lambda s: int(s.split(":")[0].split()[1])):
        terminalreporter.write_line(line)


@pytest.fixture
def eigh_matrices(monkeypatch):
    """Matrices of each size decomposed by numpy.linalg.eigh since the test began.

    Returns a function of the matrix size. The count comes from a wrapper
    around the module attribute, which is how the library calls eigh.
    """
    counts: dict = {}
    original = np.linalg.eigh

    def counting(a, *args, **kwargs):
        shape = np.shape(a)
        counts[shape[-1]] = counts.get(shape[-1], 0) + int(np.prod(shape[:-2], dtype=int))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return lambda size: counts.get(size, 0)
