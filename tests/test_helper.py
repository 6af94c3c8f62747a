"""The helper's record protocol, driven through start, records and stop:
each record a helper sends arrives whole and in order, a record that ends
cut is dropped with everything after it, and no helper outlives stop."""

import os
import time

import pytest

from quadfit import _helper


def received(work, before=None):
    """The records a helper running work sends, as a list, taken after
    before(helper) where given; the helper is stopped, and no child of this
    process is left."""
    helper = _helper.start(work)
    assert helper is not None
    try:
        if before:
            before(helper)
        records = list(helper.records())
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


@pytest.mark.skipif(not hasattr(os, "pidfd_open"), reason="a helper is forked where pidfds exist")
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

    def test_a_helper_that_hangs_is_waited_for_no_longer_than_the_parent_worked(self):
        # The parent has worked 0.3 s when it first waits, so it waits about
        # that long again for the second record, then ends the records.
        def work(send):
            send(b"first")
            time.sleep(60)
        start = time.monotonic()
        assert received(work, before=lambda helper: time.sleep(0.3)) == [b"first"]
        assert time.monotonic() - start < 5.0
