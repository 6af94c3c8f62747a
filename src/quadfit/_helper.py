"""One forked helper process that computes part of a result beside its
parent: the last rows of a large parse, the fit's sums in t alone, and
the second share of the SVG's data markers.

start(work) forks a child that runs work(send), where send(record) sends
one record, a bytes object of any length, to the parent; the child ends
through os._exit on every path, so it never runs the parent's clean-up,
flushes its buffers or writes to stdout or stderr.  The parent takes the
records from the Helper's records(), each one whole and in the order sent,
and computes whatever did not arrive itself, by the same code, so a helper
that fails, stops or is killed changes no output and no error, only the
time.  Its stop() kills the child and reaps it.  How a record crosses the
pipe is this module's alone: each goes as its length in _PREFIX bytes,
then its bytes.  Callers import this module only where they start a
helper, so a run that starts none loads neither it nor select.

The wait is bounded: in all, the parent waits for its helper no longer
than it has worked itself since the fork, or _MIN_WAIT where that is
longer.  A helper does no more work than its parent, so a healthy one is
waited for far less (a few ms of a 30 ms share on two processors), and a
stopped one costs the parent that wait on top of doing the helper's
share itself: at most about twice the time the work takes in process.

The child is forked only where os.fork and os.pidfd_open exist (Linux)
and the process runs a single OS thread: a forked process inherits the
locks other threads hold, and Python 3.12 and later warn about fork in a
process with threads, counting those that C code started too.  The child
is killed through a pidfd, never by pid: where SIGCHLD is ignored the
kernel reaps it as it exits, and its pid may then name another process.
"""

import _signal
import os
import select
import time

# The least the parent waits in all for a helper (seconds): a fresh
# child needs a few scheduler ticks to start on a busy machine.
_MIN_WAIT = 0.02

# A pipe holds 64 KiB on Linux; a read takes up to that much.
_READ_SIZE = 1 << 16

# A record's length goes before it in this many bytes, little-endian.
_PREFIX = 4


class Helper:
    """A running helper: its pid, a pidfd for it (None where none could be
    opened), the read end of its pipe, when it was forked and how long the
    parent has waited for it, in seconds."""

    __slots__ = ("pid", "pidfd", "fd", "started", "waited")

    def __init__(self, pid: int, fd: int):
        self.pid, self.fd = pid, fd
        self.started, self.waited = time.monotonic(), 0.0
        try:
            self.pidfd = os.pidfd_open(pid)
        except OSError:
            self.pidfd = None

    def records(self):
        """Yield each record the helper sends, whole and in order.  Ends
        where the pipe does, where waiting for more would pass the deadline
        (see the module), or at a record that ends cut."""
        poller = select.poll()
        poller.register(self.fd, select.POLLIN)
        pending = bytearray()
        while True:
            now = time.monotonic()
            worked = now - self.started - self.waited
            budget = max(worked, _MIN_WAIT) - self.waited
            ready = budget > 0 and poller.poll(budget * 1000)
            self.waited += time.monotonic() - now
            if not ready:
                return
            data = os.read(self.fd, _READ_SIZE)
            if not data:
                return
            pending += data
            start = 0
            while len(pending) - start >= _PREFIX:
                body = start + _PREFIX
                end = body + int.from_bytes(pending[start:body], "little")
                if len(pending) < end:
                    break
                yield bytes(memoryview(pending)[body:end])
                start = end
            del pending[:start]

    def stop(self) -> None:
        """Close the helper's pipe, kill it and reap it.  Without a pidfd it
        is not signalled, and ends at its next send or when its work does."""
        os.close(self.fd)
        if self.pidfd is not None:
            try:
                _signal.pidfd_send_signal(self.pidfd, _signal.SIGKILL)
            except ProcessLookupError:
                pass  # reaped already, as where SIGCHLD is ignored
            finally:
                os.close(self.pidfd)
        try:
            os.waitpid(self.pid, 0)
        except ChildProcessError:
            # Reaped already, as where SIGCHLD is ignored.
            pass


def _one_thread() -> bool:
    """Whether this process runs a single OS thread, by the count of
    /proc/self/task, which sees threads that C code started too."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def start(work) -> Helper | None:
    """A forked Helper running work(send); None where fork or pidfd_open is
    missing, other threads run, or no pipe or process could be made."""
    if not (hasattr(os, "fork") and hasattr(os, "pidfd_open") and _one_thread()):
        return None
    fds = ()
    try:
        fds = read_fd, write_fd = os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    if pid == 0:
        try:
            os.close(read_fd)
            work(lambda record: _send(write_fd, record))
        finally:
            os._exit(0)
    os.close(write_fd)
    return Helper(pid, read_fd)


def _send(fd: int, record: bytes) -> None:
    """Write record to fd behind its length, however the pipe splits it."""
    view = memoryview(len(record).to_bytes(_PREFIX, "little") + record)
    while view:
        view = view[os.write(fd, view):]
