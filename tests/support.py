"""Shared generators for randomized tests.

The fitting tolerances assume well-conditioned problems, so abscissae are
generated with two safeguards.  Gap ratios are bounded (every gap between
0.5 and 1.5 units before rescaling): clusters of nearly coincident x values
would blow up the Vandermonde condition number.  And the data window is
never tiny relative to its distance from the origin (half-width at least a
third of |center|): standard-form coefficients of a polynomial on, say,
[59, 61] are ~10^7 with massive cancellation on evaluation, which makes
1e-8 residual checks meaningless no matter how the fit is computed.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

from hypothesis import strategies as st

from quadfit import Series, _helper

X_BOUND = 20.0
Y_BOUND = 100.0


@st.composite
def spaced_abscissae(draw, n: int, bound: float = X_BOUND):
    """n strictly increasing xs in [-bound, bound], well-conditioned."""
    gaps = draw(st.lists(st.floats(0.5, 1.5), min_size=n - 1, max_size=n - 1))
    center = draw(st.floats(-0.7 * bound, 0.7 * bound))
    half = draw(st.floats(max(1.0, abs(center) / 3.0), bound - abs(center)))
    span = sum(gaps)
    cumulative = [0.0] + list(itertools.accumulate(gaps))
    return [center - half + (c / span) * 2.0 * half for c in cumulative]


@st.composite
def fit_instances(draw, max_n: int = 50, max_degree: int = 4):
    """(xs, ys, degree) triples satisfying the fit preconditions."""
    n = draw(st.integers(4, max_n))
    degree = draw(st.integers(1, min(max_degree, n - 1)))
    xs = draw(spaced_abscissae(n))
    ys = draw(st.lists(st.floats(-Y_BOUND, Y_BOUND),
                       min_size=n, max_size=n))
    return xs, ys, degree


def random_fit_instance(rng, max_n: int = 50, max_degree: int = 4):
    """Same distribution as fit_instances, from a seeded random.Random."""
    n = rng.randint(4, max_n)
    degree = rng.randint(1, min(max_degree, n - 1))
    gaps = [rng.uniform(0.5, 1.5) for _ in range(n - 1)]
    center = rng.uniform(-0.7 * X_BOUND, 0.7 * X_BOUND)
    half = rng.uniform(max(1.0, abs(center) / 3.0), X_BOUND - abs(center))
    span = sum(gaps)
    xs, acc = [center - half], 0.0
    for g in gaps:
        acc += g
        xs.append(center - half + (acc / span) * 2.0 * half)
    ys = [rng.uniform(-Y_BOUND, Y_BOUND) for _ in range(n)]
    return xs, ys, degree


def noisy_quadratic(rows: int, seed: int) -> Series:
    """The README's fitted quadratic plus N(0, 1.5^2) noise, x evenly over
    [1, 12], values rounded as a CSV of 6 and 4 decimals would hold them."""
    rng = random.Random(seed)
    xs, ys = [], []
    for i in range(rows):
        x = 1.0 + 11.0 * i / (rows - 1)
        y = 71.061363636 + x * (-11.840434565 + x * 0.89802697303) + rng.gauss(0.0, 1.5)
        xs.append(round(x, 6))
        ys.append(round(y, 4))
    return Series(xs, ys)


def exponential(rows: int, seed: int) -> Series:
    """exp(x/2) plus N(0, 1.5^2) noise, x evenly over [1, 12], rounded as
    noisy_quadratic's values are: a quadratic fitted to it leaves the
    data's y range, so a chart's frame is not the data's alone."""
    rng = random.Random(seed)
    xs = [1.0 + 11.0 * i / (rows - 1) for i in range(rows)]
    return Series([round(x, 6) for x in xs], [round(math.exp(x / 2) + rng.gauss(0.0, 1.5), 4) for x in xs])


def held_rows(series: Series):
    """What the parse leaves the run's helper holding: every row of the
    series, with the bounds of each column."""
    return series.xs, series.ys, series._x_bounds, series._y_bounds


# A script prefix under which os.fork sends SIGSTOP to each child right
# after the fork and records its pid in `stopped`.
STOPPING_FORK = """
import os, signal
stopped, _fork = [], os.fork
def _stopping_fork():
    pid = _fork()
    if pid:
        os.kill(pid, signal.SIGSTOP)
        stopped.append(pid)
    return pid
os.fork = _stopping_fork
"""


def run_isolated(script: str, *argv: str):
    """The JSON value that script prints last, run in a fresh interpreter
    under -X dev -W error with the package on its path.  A script that
    hangs fails the test after 60 s instead of hanging the suite; it runs in
    its own process group, which is then killed with every process in it."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    with subprocess.Popen([sys.executable, "-X", "dev", "-W", "error", "-c", script, *argv],
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    assert proc.returncode == 0 and stderr == "", stderr
    return json.loads(stdout.splitlines()[-1])


def share_the_cpu(monkeypatch):
    """Pin each helper that quadfit._helper.start forks to this process's
    own CPU, where it competes with this process: a test that needs a fork
    then gets one wherever this process may run, on one CPU too."""
    monkeypatch.setattr(_helper, "_spare_cpus", lambda cpu: {cpu})


# share_the_cpu as a script prefix for a fresh interpreter.
SHARED_CPU = """
from quadfit import _helper
_helper._spare_cpus = lambda cpu: {cpu}
"""


def wait_long(monkeypatch):
    """Wait for each helper's records up to 30 s at least, so that a test
    that asserts a record was used does not depend on when the scheduler
    runs the helper.  A helper that ends, or fails, ends its records at
    once all the same."""
    monkeypatch.setattr(_helper, "_MIN_WAIT", 30.0)


def helpers_send(monkeypatch, wrap):
    """Make each helper that quadfit._helper.start forks send its records
    through wrap(send) in place of send."""
    start = _helper.start
    monkeypatch.setattr(_helper, "start", lambda work, room=0: start(
        lambda send, receive: work(wrap(send), receive), room))


def failing_helpers(monkeypatch, sent, last=None):
    """Make each helper that quadfit._helper.start forks send its first
    `sent` records, then fail at the next one, once last(send, record) has
    run where last is given; send keeps the record's way, down the pipe
    or through the mapping."""
    def wrap(send):
        count = 0

        def failing(record, mapped=False):
            nonlocal count
            if count == sent:
                if last:
                    last(lambda record: send(record, mapped), record)
                raise OSError("the helper fails")
            count += 1
            send(record, mapped)
        return failing
    helpers_send(monkeypatch, wrap)


def cut(keep):
    """A last for failing_helpers: send the record, but cut off once keep(record)
    of its bytes have reached the pipe.  Its first os.write holds it whole,
    behind whatever _helper writes first; os.write is replaced in the forked
    helper only.  A record sent through a mapping has only its length in
    that write, so all of the record reaches the mapping, and its length
    reaches the pipe cut, or not at all where keep(record) is more than
    that length's bytes short of the record."""
    def send_cut(send, record):
        write = os.write

        def cut_write(fd, data):
            write(fd, data[:len(data) - len(record) + keep(record)])
            raise OSError("the helper is cut off")
        os.write = cut_write
        send(record)
    return send_cut
