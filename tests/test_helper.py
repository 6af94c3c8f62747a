"""The helper's record protocol, driven through start, records and stop:
each record a helper sends arrives whole and in order, down the pipe or
through a mapping, a record that ends cut or passes the mapping's end is
dropped with everything after it, and no helper outlives stop.  Where a
helper runs is tested last."""

import json
import os
import time

import pytest

from quadfit import _helper
from support import share_the_cpu, wait_long

pytestmark = pytest.mark.skipif(not hasattr(os, "pidfd_open"), reason="a helper is forked where pidfds exist")


@pytest.fixture(autouse=True)
def records_arrive(monkeypatch):
    """Every helper here forks, on this process's CPU where no other is
    allowed, and is waited for until it ends."""
    share_the_cpu(monkeypatch)
    wait_long(monkeypatch)


def received(work, before=None, room=0):
    """The records a helper running work sends, as a list of bytes, taken
    after before(helper) where given, through a mapping of room bytes where
    room is given; the helper is stopped, and no child of this process is
    left."""
    helper = _helper.start(work, room)
    assert helper is not None
    try:
        if before:
            before(helper)
        records = [bytes(record) for record in helper.records()]
    finally:
        helper.stop()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return records


def exited(helper):
    """Wait until the helper has exited, without reaping it."""
    os.waitid(os.P_PID, helper.pid, os.WEXITED | os.WNOWAIT)


def reads(monkeypatch):
    """The size of each os.read this process makes from now on."""
    sizes, read = [], os.read
    monkeypatch.setattr(os, "read", lambda fd, n: sizes.append(len(data := read(fd, n))) or data)
    return sizes


def cut_off(sent):
    """Make the next os.write of this (forked) process write only its
    first `sent` bytes, then fail."""
    write = os.write

    def cut_write(fd, data):
        write(fd, data[:sent])
        raise OSError("the helper is cut off")
    os.write = cut_write


class TestRecords:
    def test_a_record_spans_many_reads(self, monkeypatch):
        record = bytes(range(256)) * 4096  # 1 MiB
        sizes = reads(monkeypatch)
        assert received(lambda send: send(record)) == [record]
        assert len(sizes) > 16

    def test_many_records_arrive_in_one_read(self, monkeypatch):
        records = [b"%d" % i for i in range(1000)]
        sizes = reads(monkeypatch)

        def work(send):
            for record in records:
                send(record)
        assert received(work, before=exited) == records
        assert sizes[0] > 0 and sizes[1:] == [0]

    def test_an_empty_record(self):
        assert received(lambda send: [send(b"a"), send(b""), send(b"b")]) == [b"a", b"", b"b"]
        assert received(lambda send: send(b"")) == [b""]

    @pytest.mark.parametrize("sent", [0, 1, _helper._PREFIX - 1])
    def test_a_cut_length_prefix_ends_the_records(self, sent):
        def work(send):
            send(b"whole")
            cut_off(sent)
            send(b"cut")
        assert received(work) == [b"whole"]

    @pytest.mark.parametrize("sent", [0, 1, 4096, 1 << 16, (1 << 20) - 1])
    def test_a_cut_body_ends_the_records(self, sent):
        def work(send):
            send(b"whole")
            cut_off(_helper._PREFIX + sent)
            send(bytes(1 << 20))
        assert received(work) == [b"whole"]

    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_work_that_raises_yields_the_records_sent_before(self, k, capfd):
        def work(send):
            for i in range(k):
                send(b"record %d" % i)
            raise ValueError("the work fails")
        assert received(work) == [b"record %d" % i for i in range(k)]
        assert capfd.readouterr() == ("", "")

    def test_a_helper_that_sends_nothing(self):
        assert received(lambda send: None) == []

    def test_a_helper_that_hangs_is_waited_for_no_longer_than_the_parent_worked(self, monkeypatch):
        # The parent has worked 0.3 s when it first waits, so it waits about
        # that long again for the second record, then ends the records.
        monkeypatch.setattr(_helper, "_MIN_WAIT", 0.02)

        def work(send):
            send(b"first")
            time.sleep(60)
        start = time.monotonic()
        assert received(work, before=lambda helper: time.sleep(0.3)) == [b"first"]
        assert time.monotonic() - start < 5.0


class TestMapping:
    """Records sent through a mapping: only their lengths cross the pipe."""

    @pytest.mark.parametrize("sizes", [[100], [60, 40], [0], [0, 100, 0], [1, 0, 99]],
                             ids=["one", "two", "empty", "empty-around", "empty-between"])
    def test_records_that_fill_their_room_exactly(self, sizes, monkeypatch):
        records = [bytes([65 + i]) * size for i, size in enumerate(sizes)]
        reads_made = reads(monkeypatch)

        def work(send):
            for record in records:
                send(record)
        assert received(work, room=100) == records
        assert sum(reads_made) == _helper._PREFIX * len(records)

    def test_a_record_is_a_view_of_the_mapping(self):
        helper = _helper.start(lambda send: send(b"markers"), 64)
        try:
            record, = helper.records()
        finally:
            helper.stop()
        assert (type(record), bytes(record)) == (memoryview, b"markers")

    @pytest.mark.parametrize("sizes, arrive", [([101], 0), ([60, 41], 1), ([100, 1], 1), ([0, 101], 1)],
                             ids=["one", "second", "past-a-full-room", "after-an-empty-one"])
    def test_a_record_one_byte_over_its_room_fails_the_helper(self, sizes, arrive, capfd):
        # send raises in the helper, which ends without sending its length:
        # the records sent before arrive, and the parent does the rest.
        records = [bytes([65 + i]) * size for i, size in enumerate(sizes)]

        def work(send):
            for record in records:
                send(record)
        assert received(work, room=100) == records[:arrive]
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("sent", range(_helper._PREFIX))
    def test_a_cut_length_ends_the_records(self, sent):
        def work(send):
            send(b"whole")
            cut_off(sent)
            send(b"cut")
        assert received(work, room=64) == [b"whole"]

    def test_a_record_outlives_the_helper_that_sent_it(self):
        # The mapping lives on while a record views it, once its helper is
        # stopped and gone.
        helper = _helper.start(lambda send: send(bytes(range(256)) * 64), 1 << 14)
        try:
            record = next(helper.records())
        finally:
            helper.stop()
        del helper
        assert bytes(record) == bytes(range(256)) * 64


class TestPlacement:
    """A helper runs on a CPU its parent leaves free."""

    @pytest.mark.parametrize("gate", ["own-cpu", "spare-cpus"])
    def test_the_child_pins_itself_and_leaves_its_parent_alone(self, gate, monkeypatch):
        if gate == "spare-cpus":
            monkeypatch.undo()
            wait_long(monkeypatch)
            if len(os.sched_getaffinity(0)) < 2:
                pytest.skip("this process may run on one CPU only")
        placements, placement = [], _helper._placement
        monkeypatch.setattr(_helper, "_placement", lambda: placements.append(placement()) or placements[-1])
        parent = os.sched_getaffinity(0)
        record, = received(lambda send: send(json.dumps(sorted(os.sched_getaffinity(0))).encode()))
        (threads, cpu), = placements
        assert threads == 1 and cpu in parent
        want = {cpu} if gate == "own-cpu" else parent - {cpu}
        assert (json.loads(record), os.sched_getaffinity(0)) == (sorted(want), parent)

    @pytest.mark.parametrize("gate", ["no-spare-cpu", "no-cpu-read"])
    def test_no_spare_cpu_forks_nothing(self, gate, monkeypatch):
        if gate == "no-spare-cpu":
            monkeypatch.setattr(_helper, "_spare_cpus", lambda cpu: set())
        else:
            monkeypatch.setattr(_helper, "_placement", lambda: (0, -1))
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        assert (_helper.start(lambda send: None), forks) == (None, [])

    def test_placement_reads_this_process(self):
        threads, cpu = _helper._placement()
        assert threads == len(os.listdir("/proc/self/task"))
        assert cpu in os.sched_getaffinity(0)
