"""The helper's protocol, driven through start, send, take and stop: each
record a helper sends arrives whole and in order, down the pipe or through
a mapping, a record that ends cut or passes the mapping's end is dropped
with everything after it and stops the helper, each message the parent
sends arrives whole, each stage is waited for on its own, and no helper
outlives stop, which keeps what the helper did.  Where a helper runs is
tested last."""

import json
import os
import signal
import time

import pytest

from quadfit import _helper
from support import share_the_cpu, wait_long

pytestmark = [pytest.mark.forks,
              pytest.mark.skipif(not hasattr(os, "pidfd_open"), reason="a helper is forked where pidfds exist")]


@pytest.fixture(autouse=True)
def records_arrive(monkeypatch):
    """Every helper here forks, on this process's CPU where no other is
    allowed, and is waited for until it ends."""
    share_the_cpu(monkeypatch)
    wait_long(monkeypatch)


def received(work, before=None, room=0):
    """The records a helper running work(send) sends, as a list of bytes,
    taken after before(helper) where given, with a mapping of room bytes
    where room is given; the helper is stopped, and no child of this
    process is left."""
    helper = _helper.start(lambda send, receive: work(send), room)
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


def spin(seconds):
    """Use this process's CPU for the given seconds."""
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


class TestMessages:
    """Messages from the parent, each the start of a stage."""

    def test_each_message_arrives_whole(self, monkeypatch):
        # A pipe holds 64 KiB.  It grows to take 256 KiB in one write; 1 MiB
        # and its header pass the limit of an unprivileged user's pipe, so
        # the parent writes what the pipe takes, and waits for room for more.
        messages = [b"", b"fit 2", bytes(range(256)) * 1024, bytes(range(256)) * 4096, b"chart"]

        def echo(send, receive):
            for _ in messages:
                send(receive())
        helper = _helper.start(echo)
        try:
            got = []
            for message in messages:
                helper.send(message)
                got.append(helper.take())
        finally:
            helper.stop()
        assert (got, helper.arrived) == (messages, len(messages))

    @pytest.mark.parametrize("fate", ["ended", "busy"])
    def test_a_message_the_helper_does_not_take_stops_it(self, fate, monkeypatch):
        # An ended helper breaks the pipe at once; a busy one leaves 1 MiB
        # unread, and the parent waits for it no longer than the stage's
        # bound, here 20 ms, since it has done nothing else in the stage.
        monkeypatch.setattr(_helper, "_MIN_WAIT", 0.02)
        helper = _helper.start(lambda send, receive: None if fate == "ended" else time.sleep(60))
        try:
            if fate == "ended":
                exited(helper)
            start = time.monotonic()
            helper.send(bytes(1 << 20))
            seconds = time.monotonic() - start
            assert (helper.running, helper.take()) == (False, None)
        finally:
            helper.stop()
        assert seconds < 5.0


class TestStages:
    def test_each_stage_is_waited_for_on_its_own(self, monkeypatch):
        # The parent works 1 s before it takes the first record.  In the
        # next stage it has worked for no time, so it waits the least wait,
        # not the 1 s of the stage before, then stops the helper.
        monkeypatch.setattr(_helper, "_MIN_WAIT", 0.02)

        def work(send, receive):
            send(b"first")
            receive()
            time.sleep(60)
        helper = _helper.start(work)
        try:
            time.sleep(1.0)
            assert helper.take() == b"first"
            helper.send(b"next")
            start = time.monotonic()
            assert helper.take() is None
            seconds = time.monotonic() - start
            assert not helper.running
        finally:
            helper.stop()
        assert seconds < 0.5

    def test_the_first_missed_record_stops_the_helper(self, monkeypatch):
        # Once a record has not come, no later stage waits or sends: the
        # helper is gone, and every later share is done in process.
        monkeypatch.setattr(_helper, "_MIN_WAIT", 0.02)

        def work(send, receive):
            send(b"first")
            time.sleep(60)
        helper = _helper.start(work)
        try:
            assert (helper.take(), helper.take(), helper.running) == (b"first", None, False)
            helper.send(b"more")
            start = time.monotonic()
            assert helper.take() is None
            assert time.monotonic() - start < 0.01
        finally:
            helper.stop()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestWhatItDid:
    def test_stop_keeps_the_cpu_time_the_wait_and_the_records(self):
        # The helper spends 0.3 s of CPU before its records, and the parent
        # waits for them: at least that long where the helper has a CPU of
        # its own, and longer where it shares this one.
        def work(send):
            spin(0.3)
            for record in (b"a", b"b", b"c"):
                send(record)
        helper = _helper.start(lambda send, receive: work(send))
        try:
            assert (helper.arrived, helper.waited, helper.cpu) == (0, 0.0, None)
            # The records end where the pipe does, which stops the helper.
            assert [bytes(record) for record in helper.records()] == [b"a", b"b", b"c"]
        finally:
            helper.stop()
        assert helper.arrived == 3
        assert 0.3 <= helper.cpu < 30.0
        assert 0.25 <= helper.waited < 30.0
        helper.stop()  # a second stop does nothing
        assert helper.arrived == 3 and not helper.running

    @pytest.mark.parametrize("sent", [0, _helper._PREFIX + 2])
    def test_a_record_that_ends_cut_is_not_counted(self, sent):
        def work(send, receive):
            send(b"whole")
            cut_off(sent)
            send(b"cut")
        helper = _helper.start(work)
        try:
            assert [bytes(record) for record in helper.records()] == [b"whole"]
        finally:
            helper.stop()
        assert helper.arrived == 1 and helper.cpu is not None

    def test_a_helper_reaped_elsewhere_keeps_no_cpu_time(self):
        # Where SIGCHLD is ignored, the kernel reaps the helper as it exits,
        # and stop has no usage to read.
        handler = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            helper = _helper.start(lambda send, receive: send(b"done"))
            try:
                assert helper.take() == b"done"
                assert helper.take() is None
            finally:
                helper.stop()
        finally:
            signal.signal(signal.SIGCHLD, handler)
        assert (helper.arrived, helper.cpu) == (1, None)


class TestMapping:
    """Records sent through a mapping: only their headers cross the pipe."""

    @pytest.mark.parametrize("sizes", [[100], [60, 40], [0], [0, 100, 0], [1, 0, 99]],
                             ids=["one", "two", "empty", "empty-around", "empty-between"])
    def test_records_that_fill_their_room_exactly(self, sizes, monkeypatch):
        records = [bytes([65 + i]) * size for i, size in enumerate(sizes)]
        reads_made = reads(monkeypatch)

        def work(send):
            for record in records:
                send(record, mapped=True)
        assert received(work, room=100) == records
        assert sum(reads_made) == _helper._PREFIX * len(records)

    def test_a_record_is_a_view_of_the_mapping(self):
        helper = _helper.start(lambda send, receive: send(b"markers", mapped=True), 64)
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
                send(record, mapped=True)
        assert received(work, room=100) == records[:arrive]
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("sent", range(_helper._PREFIX))
    def test_a_cut_length_ends_the_records(self, sent):
        def work(send):
            send(b"whole", mapped=True)
            cut_off(sent)
            send(b"cut", mapped=True)
        assert received(work, room=64) == [b"whole"]

    def test_a_record_outlives_the_helper_that_sent_it(self):
        # The mapping lives on while a record views it, once its helper is
        # stopped and gone.
        helper = _helper.start(lambda send, receive: send(bytes(range(256)) * 64, mapped=True), 1 << 14)
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
