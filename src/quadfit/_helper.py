"""One forked helper process that computes part of a result beside its
parent, on a CPU the parent leaves free: the last rows of a large parse,
the fit's sums in t alone, and the second share of the SVG's data
markers.

start(work) forks a child that runs work(send), where send(record) sends
one record, a bytes object of any length, to the parent; the child ends
through os._exit on every path, so it never runs the parent's clean-up,
flushes its buffers or writes to stdout or stderr.  The parent takes the
records from the Helper's records(), each one whole and in the order sent,
and computes whatever did not arrive itself, by the same code, so a helper
that fails, stops or is killed changes no output and no error, only the
time.  Its stop() kills the child and reaps it.  How a record crosses is
this module's alone: each goes down the pipe as its length in _PREFIX
bytes, then its bytes.  start(work, room) makes a shared anonymous mapping
of room bytes before the fork instead: each record's bytes go into it
after the ones before, only its length goes down the pipe, and records()
yields a memoryview of the mapping, which the parent can write out without
a copy.  A record that would pass the end of the mapping fails the helper.
Callers import this module only where they start a helper, so a run that
starts none loads neither it nor select, and mmap loads only where a
helper is given room.

A helper runs only on a CPU its parent leaves free.  start reads the
parent's count of OS threads and the CPU it runs on in one read of
/proc/self/stat, and the child pins itself to the other CPUs the parent
may run on (os.sched_setaffinity on itself, never on the parent).  Left
to the scheduler, a child ran on its parent's CPU for minutes at a time
on a shared 2-vCPU VM, where it only costs time.  A process allowed one CPU
thus forks nothing, and its caller does that work in process, as where no
helper starts.

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
    opened), the read end of its pipe, the mapping its records are in (None
    where they come down the pipe), when it was forked and how long the
    parent has waited for it, in seconds."""

    __slots__ = ("pid", "pidfd", "fd", "shared", "started", "waited")

    def __init__(self, pid: int, fd: int, shared):
        self.pid, self.fd, self.shared = pid, fd, shared
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
        mapped = 0
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
                size = int.from_bytes(pending[start:body], "little")
                end = body if self.shared is not None else body + size
                if len(pending) < end:
                    break
                if self.shared is not None:
                    yield self.shared[mapped:mapped + size]
                    mapped += size
                else:
                    yield bytes(memoryview(pending)[body:end])
                start = end
            del pending[:start]

    def stop(self) -> None:
        """Close the helper's pipe, kill it and reap it.  Without a pidfd it
        is not signalled, and ends at its next send or when its work does.
        A record still held keeps the mapping alive until it is released."""
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


def _placement() -> tuple[int, int]:
    """This process's count of OS threads, which sees threads that C code
    started too, and the CPU it runs on: fields 20 and 39 of
    /proc/self/stat, in one read; (0, -1) where it cannot be read."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            # The command name, field 2, is in parentheses and may hold
            # spaces and parentheses itself.
            fields = fh.read().rpartition(b")")[2].split()
        return int(fields[17]), int(fields[36])
    except (OSError, IndexError, ValueError):
        return 0, -1


def _spare_cpus(cpu: int) -> set[int]:
    """The CPUs a helper is pinned to: those this process may run on, but
    cpu, the one it runs on."""
    return os.sched_getaffinity(0) - {cpu}


def start(work, room: int = 0) -> Helper | None:
    """A forked Helper running work(send), whose records pass through a
    mapping of room bytes where room is given; None where fork or
    pidfd_open is missing, other threads run, the process may run on no
    other CPU than its own, or no mapping, pipe or process could be made."""
    if not (hasattr(os, "fork") and hasattr(os, "pidfd_open")):
        return None
    threads, cpu = _placement()
    spare = _spare_cpus(cpu) if threads == 1 else set()
    if not spare:
        return None
    fds = ()
    try:
        shared = None
        if room:
            import mmap  # loaded only where a helper is given room
            shared = memoryview(mmap.mmap(-1, room))
        fds = read_fd, write_fd = os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    if pid == 0:
        try:
            os.close(read_fd)
            os.sched_setaffinity(0, spare)
            work(_sender(write_fd, shared))
        finally:
            os._exit(0)
    os.close(write_fd)
    return Helper(pid, read_fd, shared)


def _sender(fd: int, shared):
    """The child's send(record): write the record's length to fd, and its
    bytes after it, however the pipe splits them, or, where shared is a
    mapping, into it after the records before.  A record that would pass
    the end of the mapping raises ValueError, which ends the helper."""
    mapped = 0

    def send(record: bytes) -> None:
        nonlocal mapped
        size = len(record)
        if shared is not None:
            if mapped + size > len(shared):
                raise ValueError("the record passes the end of the mapping")
            shared[mapped:mapped + size] = record
            mapped += size
            record = b""
        view = memoryview(size.to_bytes(_PREFIX, "little") + record)
        while view:
            view = view[os.write(fd, view):]
    return send
