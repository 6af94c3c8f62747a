"""One forked helper process that computes part of a result beside its
parent: the last rows of a large parse, the fit's sums in t alone, and
the second share of the SVG's data markers.

start(work) forks a child that runs work(fd), which writes its result to
the pipe fd, and ends through os._exit on every path, so it never runs
the parent's clean-up, flushes its buffers or writes to stdout or stderr.
The parent takes what arrives from the Helper's read(), or the whole
newline-terminated lines of it from chunks(), and computes whatever did
not arrive whole itself, by the same code, so a helper that fails, stops
or is killed changes no output and no error, only the time.  Its stop()
kills the child and reaps it.  Callers import this module only where they
start a helper, so a run that starts none loads neither it nor select.

The read is bounded: in all, the parent waits for its helper no longer
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

    def read(self):
        """Yield what the helper writes, as it arrives.  Ends where the pipe
        does, or where waiting for more would pass the deadline (see the
        module)."""
        poller = select.poll()
        poller.register(self.fd, select.POLLIN)
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
            yield data

    def chunks(self):
        """What read() yields, in pieces that each hold whole lines only; a
        cut last line is dropped."""
        rest = b""
        for data in self.read():
            data = rest + data
            cut = data.rfind(b"\n") + 1
            rest = data[cut:]
            if cut:
                yield data[:cut]

    def stop(self) -> None:
        """Close the helper's pipe, kill it and reap it.  Without a pidfd it
        is not signalled, and ends at its next write or when its work does."""
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
    """A forked Helper running work(fd) on the write end of its pipe; None
    where fork or pidfd_open is missing, other threads run, or no pipe or
    process could be made."""
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
            work(write_fd)
        finally:
            os._exit(0)
    os.close(write_fd)
    return Helper(pid, read_fd)


def write(fd: int, data: bytes) -> None:
    """Write all of data to fd, however the pipe splits it."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]
