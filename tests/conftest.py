import os

# one BLAS thread unless the caller chose otherwise, as perfbench runs:
# numpy's stacked LAPACK calls equal looped ones bit for bit only then.
# It must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

# one line per acceptance criterion, echoed after the run so the
# verdicts are visible even when every test passes
_ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def scoreboard():
    return _ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
