"""A forked child process that runs one piece of work and streams its
output back over a bare pipe.

A run with a sink other than a :class:`hrsync.sim.Collector` integrates in
such a child while the caller formats its blocks, and the coupling sweep
runs each group of K values in one. A message is one or more parts of
bytes after a header of their count and lengths: an integrating child sends
a block's floats, followed, when it formats the block itself, by the
block's text for each output. The last message has an empty first part,
and its second is the outcome, the work's value or the exception that
stopped it, pickled. Only bytes from a child of this process are ever
unpickled. Where no child can start, :class:`Child` raises
:class:`OSError`, and its callers do the work themselves.
"""

from __future__ import annotations

import os
import sys
from array import array
from itertools import accumulate

__all__ = ["Child", "cores", "unread"]

#: Capacity asked for the pipe from an integrating child: 1 MiB, Linux's
#: default limit, lets the child run about 18 pair blocks (56 KiB each) or 36
#: lone-neuron blocks (28 KiB) ahead. The default 64 KiB holds one pair block
#: or two lone-neuron blocks.
PIPE_BYTES = 1 << 20


def cores() -> int:
    """The number of CPUs this process may run on: its affinity mask where
    the host has one (``taskset`` and cpusets narrow it), else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def unread(fd: int) -> int:
    """The number of bytes written to the pipe of which ``fd`` is either end
    and not yet read, or 0 where the host cannot tell (no ``FIONREAD``)."""
    try:
        import fcntl
        import termios

        return int.from_bytes(fcntl.ioctl(fd, termios.FIONREAD, bytes(4)), sys.byteorder)
    except (ImportError, AttributeError, OSError):
        return 0


class Child:
    """A forked child process that runs ``work(send, read)``, then sends its
    outcome: the value ``work`` returned, or the exception that stopped it.

    ``send(*parts)`` passes the bytes of each part to this process as one
    message, through a pipe whose capacity bounds how far the child runs
    ahead, and returns how many bytes it has sent so far; ``read()`` is how
    many of them this process has read, or all where the host cannot tell
    (:func:`unread`). The child never returns or raises into the caller's
    frames: they would stage, rename or delete the caller's output files.
    :meth:`result` reads the child from this process, and :meth:`close`
    reaps it. On a host without ``os.fork``, or with no process or pipe to
    spare, no child starts and :class:`OSError` is raised, with no
    descriptor left open.
    """

    def __init__(self, work):
        if not hasattr(os, "fork"):
            raise OSError("this host cannot fork")
        import fcntl
        import pickle

        reader, writer = os.pipe()
        try:
            fcntl.fcntl(writer, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
        except (AttributeError, OSError):
            pass  # not Linux, or above the host's limit: a 64 KiB pipe overlaps too

        sent = 0

        def send(*parts) -> int:
            nonlocal sent
            views = [memoryview(part).cast("B") for part in parts]
            header = memoryview(array("Q", [len(views), *map(len, views)])).cast("B")
            for chunk in (header, *views):
                sent += len(chunk)
                while chunk:
                    chunk = chunk[os.write(writer, chunk):]
            return sent

        try:
            pid = os.fork()
        except BaseException:
            os.close(reader)
            os.close(writer)
            raise
        if pid == 0:
            code = 1
            try:
                os.close(reader)
                try:
                    outcome = work(send, lambda: sent - unread(writer)), None
                except BaseException as exc:  # re-raised by the parent
                    outcome = None, exc
                send(b"", pickle.dumps(outcome))
                code = 0
            finally:
                os._exit(code)
        os.close(writer)
        self.pid, self.reader = pid, reader

    def _read(self, size: int) -> bytearray:
        """The child's next ``size`` bytes, in a fresh buffer."""
        buffer = bytearray(size)
        view = memoryview(buffer)
        while view:
            got = os.readv(self.reader, [view])
            if not got:
                raise ChildProcessError("a forked process ended before it sent its outcome")
            view = view[got:]
        return buffer

    def _receive(self) -> list[memoryview]:
        """The child's next message: its parts, as views of one fresh buffer."""
        sizes = memoryview(self._read(8 * memoryview(self._read(8)).cast("Q")[0])).cast("Q")
        message, ends = memoryview(self._read(sum(sizes))), [0, *accumulate(sizes)]
        return [message[start:end] for start, end in zip(ends, ends[1:])]

    def result(self, hand=None):
        """Hand the parts of each message the child sends to ``hand``, in
        order, then reap the child and return its value or raise its
        exception. If the child ended before it sent its outcome, raise
        :class:`ChildProcessError`. On any error here the child is killed
        before it is reaped."""
        import pickle

        try:
            while (message := self._receive())[0]:
                hand(*message)
                del message  # not held while the next one is received
            value, error = pickle.loads(message[1])
        except BaseException:
            self.close(kill=True)
            raise
        self.close()
        if error is not None:
            raise error
        return value

    def close(self, kill: bool = False) -> None:
        """Reap the child once, with ``kill`` ending it first: it may have
        much of its run left."""
        import signal

        if self.pid is None:
            return
        pid, self.pid = self.pid, None
        os.close(self.reader)
        if kill:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
