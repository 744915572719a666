"""A forked child process that runs one piece of work and streams its
output back over a bare pipe.

A run with a sink other than a :class:`hrsync.sim.Collector` integrates in
such a child while the caller formats its blocks, and the coupling sweep
runs each group of K values in one. Messages are length-framed bytes; the
outcome, the work's value or the exception that stopped it, follows an
empty message, pickled. Only bytes from a child of this process are ever
unpickled.
"""

from __future__ import annotations

import os

__all__ = ["Child", "cores"]

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


class Child:
    """A forked child process that runs ``work(send)``, then sends its
    outcome: the value ``work`` returned, or the exception that stopped it.

    ``send(data)`` passes the bytes of ``data`` to this process as one
    message, through a pipe whose capacity bounds how far the child runs
    ahead. The child never returns or raises into the caller's frames: they
    would stage, rename or delete the caller's output files. :meth:`result`
    reads the child from this process, and :meth:`close` reaps it.
    """

    def __init__(self, work):
        import fcntl
        import pickle

        reader, writer = os.pipe()
        try:
            fcntl.fcntl(writer, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
        except (AttributeError, OSError):
            pass  # not Linux, or above the host's limit: a 64 KiB pipe overlaps too

        def send(data) -> None:
            view = memoryview(data).cast("B")
            for chunk in (len(view).to_bytes(8, "little"), view):
                while chunk:
                    chunk = chunk[os.write(writer, chunk):]

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
                    outcome = work(send), None
                except BaseException as exc:  # re-raised by the parent
                    outcome = None, exc
                send(b"")
                send(pickle.dumps(outcome))
                code = 0
            finally:
                os._exit(code)
        os.close(writer)
        self.pid, self.reader = pid, reader

    def fileno(self) -> int:
        return self.reader

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

    def _receive(self) -> bytearray:
        """The child's next message."""
        return self._read(int.from_bytes(self._read(8), "little"))

    def result(self, hand=None):
        """Hand each message the child sends to ``hand``, in order, then
        reap the child and return its value or raise its exception. If the
        child ended before it sent its outcome, raise
        :class:`ChildProcessError`. On any error here the child is killed
        before it is reaped."""
        import pickle

        try:
            while message := self._receive():
                hand(message)
                del message  # not held while the next one is received
            value, error = pickle.loads(self._receive())
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
