"""One forked helper process that computes part of a run's work beside its
parent, on a CPU the parent leaves free, for as many stages as the parent
asks of it: the last rows of a large parse, the fit's sums in t alone, and
the data markers of the SVG after a split it chooses (see fitting._Run:
the command line forks at most one, before the parse, for its run of
stages).

start(work) forks a child that runs work(send, receive).  send(record)
sends one record, a bytes object of any length, to the parent; receive()
returns the next message the parent sends with Helper.send, and waits for
it, and receive(False) checks for it without waiting: it returns None at
once where no byte of it has arrived, so that the child can work ahead
between checks.  The child ends through os._exit on every path, so it
never runs the parent's clean-up, flushes its buffers or writes to stdout
or stderr.  The parent takes the records one by one with the Helper's
take(), each whole and in the order sent, and computes whatever did not
arrive itself, by the same code, so a helper that fails, stops or is
killed changes no output and no error, only the time.  The first record that does not arrive stops
the helper, so that every later share is computed in process.  Its stop()
kills the child and reaps it, and keeps what the helper did: its CPU time,
the parent's wait and the count of records that arrived whole.

How a message or a record crosses is this module's alone: each goes down a
pipe as a _PREFIX-byte header, then its bytes.  start(work, room) makes a
shared anonymous mapping of room bytes before the fork too: a record sent
with send(record, mapped=True) goes into it after the mapped ones before,
only its header goes down the pipe, and take() returns a memoryview of the
mapping, which the parent can write out without a copy.  A mapped record
that would pass the end of the mapping fails the helper; without a mapping
it goes down the pipe.  The parent's pipe grows to take a larger message
in one write; the child reads what a message lacks in one read where
the pipe holds it.  Callers import this module only where they start a
helper, so a run that starts none loads neither it nor select, mmap loads
only where a helper is given room, and fcntl only where the pipe grows.

A helper runs only on a CPU its parent leaves free.  start reads the
parent's count of OS threads and the CPU it runs on in one read of
/proc/self/stat, and the child pins itself to the other CPUs the parent
may run on (os.sched_setaffinity on itself, never on the parent).  Left
to the scheduler, a child ran on its parent's CPU for minutes at a time
on a shared 2-vCPU VM, where it only costs time.  A process allowed one CPU
thus forks nothing, and its caller does that work in process, as where no
helper starts.

The wait is bounded, stage by stage: a stage begins at the fork and at
each message the parent sends, and in each the parent waits for its
helper no longer than it has worked itself since the stage began, or
_MIN_WAIT where that is longer.  A helper does no more work than its
parent, so a healthy one is waited for far less (a few ms of a 30 ms share
on two processors), and a stopped one costs the parent that wait on top of
doing the helper's share itself: at most about twice the time the stage
takes in process.  A message the helper does not take within the same
bound stops it too.

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

# The least the parent waits for a helper in one stage (seconds): a fresh
# child needs a few scheduler ticks to start on a busy machine.
_MIN_WAIT = 0.02

# A pipe holds 64 KiB on Linux; a read takes up to that much.
_READ_SIZE = 1 << 16

# A record's header, little-endian: twice its length, plus one where its
# bytes are in the mapping.  A message's header is its length.
_PREFIX = 4


class Helper:
    """A running helper: its pid, a pidfd for it (None where none could be
    opened), the read end of its pipe and the write end of the parent's
    (both None once stopped), the mapping its mapped records are in (None
    where it has none), and where the current stage began and how long the
    parent has waited in it.  What it did: the records that arrived whole,
    the parent's wait in all and, once stopped, the child's CPU time
    (seconds; None where another process reaped it)."""

    __slots__ = ("pid", "pidfd", "fd", "to_child", "shared", "pending", "mapped",
                 "began", "stage_wait", "arrived", "waited", "cpu")

    def __init__(self, pid: int, fd: int, to_child: int, shared):
        self.pid, self.fd, self.to_child, self.shared = pid, fd, to_child, shared
        self.pending, self.mapped = bytearray(), 0
        self.began, self.stage_wait = time.monotonic(), 0.0
        self.arrived, self.waited, self.cpu = 0, 0.0, None
        os.set_blocking(to_child, False)
        try:
            self.pidfd = os.pidfd_open(pid)
        except OSError:
            self.pidfd = None

    @property
    def running(self) -> bool:
        """Whether the helper has not been stopped."""
        return self.fd is not None

    def _ready(self, fd: int, event: int) -> bool:
        """Whether fd is ready for event within the stage's bounded wait
        (see the module); the time waited counts against it."""
        now = time.monotonic()
        worked = now - self.began - self.stage_wait
        budget = max(worked, _MIN_WAIT) - self.stage_wait
        poller = select.poll()
        poller.register(fd, event)
        ready = budget > 0 and poller.poll(budget * 1000)
        spent = time.monotonic() - now
        self.stage_wait += spent
        self.waited += spent
        return bool(ready)

    def send(self, message: bytes) -> None:
        """Send message to the helper, whose receive() returns it, and begin
        a stage.  A helper that does not take it within the stage's wait,
        or has ended, is stopped."""
        if not self.running:
            return
        self.began, self.stage_wait = time.monotonic(), 0.0
        view = memoryview(len(message).to_bytes(_PREFIX, "little") + message)
        if len(view) > _READ_SIZE:
            # Grown to take it in one write, where the user's pipe limits
            # allow: in parts, each waits for the helper to wake and read
            # (2 ms for 445 KB on a 2-vCPU VM, against 0.1 ms in one).
            import fcntl  # loaded only for a message larger than a pipe
            try:
                fcntl.fcntl(self.to_child, fcntl.F_SETPIPE_SZ, len(view))
            except OSError:
                pass
        try:
            while view:
                try:
                    view = view[os.write(self.to_child, view):]
                except BlockingIOError:
                    if not self._ready(self.to_child, select.POLLOUT):
                        break
        except OSError:
            pass  # the helper has ended: the pipe is broken
        if view:
            self.stop()

    def take(self):
        """The helper's next record, whole; None where the pipe ends, where
        waiting for more would pass the stage's deadline, or at a record
        that ends cut, and then the helper is stopped."""
        while self.running:
            record = self._record()
            if record is not None:
                self.arrived += 1
                return record
            if not self._ready(self.fd, select.POLLIN):
                break
            data = os.read(self.fd, _READ_SIZE)
            if not data:
                break
            self.pending += data
        self.stop()
        return None

    def records(self):
        """Each record take() gives, until it gives None."""
        return iter(self.take, None)

    def _record(self):
        """The first record whole in the pending bytes, which it leaves;
        None where there is none yet."""
        pending = self.pending
        if len(pending) < _PREFIX:
            return None
        header = int.from_bytes(pending[:_PREFIX], "little")
        size = header >> 1
        if header & 1:
            end = _PREFIX
            record = self.shared[self.mapped:self.mapped + size]
            self.mapped += size
        else:
            end = _PREFIX + size
            if len(pending) < end:
                return None
            record = bytes(memoryview(pending)[_PREFIX:end])
        del pending[:end]
        return record

    def stop(self) -> None:
        """Close the helper's pipes, kill it and reap it, keeping its CPU
        time; a second stop does nothing.  Without a pidfd it is not
        signalled, and ends at its next send or receive, or when its work
        does.  A record still held keeps the mapping alive until it is
        released."""
        if not self.running:
            return
        os.close(self.fd)
        os.close(self.to_child)
        self.fd = self.to_child = None
        if self.pidfd is not None:
            try:
                _signal.pidfd_send_signal(self.pidfd, _signal.SIGKILL)
            except ProcessLookupError:
                pass  # reaped already, as where SIGCHLD is ignored
            finally:
                os.close(self.pidfd)
        try:
            usage = os.wait4(self.pid, 0)[2]
        except ChildProcessError:
            # Reaped already, as where SIGCHLD is ignored.
            return
        self.cpu = usage.ru_utime + usage.ru_stime


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
    """A forked Helper running work(send, receive), with a mapping of room
    bytes for its mapped records where room is given; None where fork or
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
        fds += os.pipe()
        from_parent, to_child = fds[2:]
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    if pid == 0:
        try:
            os.close(read_fd)
            os.close(to_child)
            os.sched_setaffinity(0, spare)
            work(_sender(write_fd, shared), _receiver(from_parent))
        finally:
            os._exit(0)
    os.close(write_fd)
    os.close(from_parent)
    return Helper(pid, read_fd, to_child, shared)


def _sender(fd: int, shared):
    """The child's send(record, mapped=False): write the record's header to
    fd, and its bytes after it, however the pipe splits them, or, where
    mapped and shared is a mapping, into it after the mapped records
    before.  A mapped record that would pass the end of the mapping raises
    ValueError, which ends the helper."""
    offset = 0

    def send(record: bytes, mapped: bool = False) -> None:
        nonlocal offset
        size = len(record)
        mapped = mapped and shared is not None
        if mapped:
            if offset + size > len(shared):
                raise ValueError("the record passes the end of the mapping")
            shared[offset:offset + size] = record
            offset += size
            record = b""
        view = memoryview((size << 1 | mapped).to_bytes(_PREFIX, "little") + record)
        while view:
            view = view[os.write(fd, view):]
    return send


def _receiver(fd: int):
    """The child's receive(wait=True): the parent's next message, once it
    has all arrived; where wait is false and no byte of it has arrived yet,
    None at once.  EOFError where the parent has closed its end first."""
    pending = bytearray()
    poller = select.poll()
    poller.register(fd, select.POLLIN)

    def receive(wait: bool = True):
        if not (wait or pending or poller.poll(0)):
            return None
        while True:
            end = _PREFIX + int.from_bytes(pending[:_PREFIX], "little")
            if len(pending) >= end:
                message = bytes(pending[_PREFIX:end])
                del pending[:end]
                return message
            # What the message still lacks in one read, where the pipe holds it.
            data = os.read(fd, max(end - len(pending), _READ_SIZE))
            if not data:
                raise EOFError("the parent has stopped the helper")
            pending.extend(data)
    return receive
