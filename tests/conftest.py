import os
from pathlib import Path

import pytest

from quadfit import Series

REPO_ROOT = Path(__file__).resolve().parent.parent

# Small fixed dataset whose exact fit is frozen below from the rational
# normal-equations oracle (see oracle.py): coefficients (3/4, -19/20, 5/4),
# ss_res = 1/20, ss_tot = 587/4, R^2 = 2934/2935.
DERIVED_XS = (1.0, 2.0, 3.0, 4.0)
DERIVED_YS = (1.0, 4.0, 9.0, 17.0)
DERIVED_COEFFS = (0.75, -0.95, 1.25)
DERIVED_SS_RES = 0.05
DERIVED_SS_TOT = 146.75
DERIVED_R_SQUARED = 0.9996592844974447


@pytest.fixture
def derived_series() -> Series:
    return Series(DERIVED_XS, DERIVED_YS)


@pytest.fixture
def sample_csv_path() -> Path:
    return REPO_ROOT / "data" / "pm25_monthly.csv"


@pytest.fixture
def golden_dir() -> Path:
    return Path(__file__).resolve().parent / "golden"


@pytest.fixture(autouse=True)
def forks_are_marked(request):
    """Fail a test that calls os.fork in this process unless it is marked
    forks, so that the run of the tests marked forks on one CPU misses none
    of them.  A test's own patches of os.fork wrap this one."""
    if not hasattr(os, "fork"):
        yield
        return
    forked, fork = [], os.fork

    def counted_fork():
        forked.append(1)
        return fork()

    os.fork = counted_fork
    try:
        yield
    finally:
        os.fork = fork
    if forked and request.node.get_closest_marker("forks") is None:
        pytest.fail(f"{request.node.nodeid} forks {len(forked)} time(s) but is not marked forks")
