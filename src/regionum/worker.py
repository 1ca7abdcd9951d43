"""The bracket's worker: one forked process that sweeps column ranges of
the Kauffman bracket (:func:`regionum.invariants._sweep`) for the process
that forked it, so that a large sweep runs on two CPUs.

:func:`split_sweep` forks the worker on first use.  Requests and replies
are ``marshal``ed tuples, each after its length in 8 bytes, on two
pipes; the worker keeps only the read end of the one and the write end
of the other, and of all else the parent has open only stderr: a pipe
the parent holds to a child of its own still ends when the parent closes
it.  It serves one request at a time, so one caller at a time, until its
request pipe ends, which happens when its parent dies, and then leaves
by ``os._exit``: it never runs the parent's ``atexit`` hooks or flushes
the output buffers it inherited.  It ignores SIGINT, which the parent
handles.  An ``atexit`` hook of the parent kills and reaps it, and so
does a failure mid-call, which raises ChildProcessError.  The worker
sweeps with :mod:`regionum.invariants` as it was when it was forked.

The bracket imports this module only to fork the worker, so a process
that never does compiles none of it.
"""

from __future__ import annotations

import atexit
import marshal
import os
import signal

from . import invariants


def _send(fd: int, obj: object) -> None:
    """Write ``obj`` to the pipe ``fd``, ``marshal``ed after its length."""
    data = marshal.dumps(obj)
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view) :]


def _read(fd: int, size: int) -> bytes:
    """Exactly ``size`` bytes from the pipe ``fd``; EOFError if it ends first."""
    chunks = []
    while size:
        chunk = os.read(fd, min(size, 1 << 20))
        if not chunk:
            raise EOFError(f"pipe {fd} ended")
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _receive(fd: int) -> object:
    """The next object :func:`_send` wrote to the pipe ``fd``."""
    return marshal.loads(_read(fd, int.from_bytes(_read(fd, 8), "little")))


class _Worker:
    """The forked process and this process's ends of its two pipes."""

    def __init__(self) -> None:
        requests, self._requests = os.pipe()
        self._replies, replies = os.pipe()
        self.owner = os.getpid()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (requests, self._requests, self._replies, replies):
                os.close(fd)
            raise
        if not self.pid:
            code = 1
            try:
                keep = sorted({2, requests, replies})
                ends = keep + [os.sysconf("SC_OPEN_MAX")]
                for low, high in zip([0] + [fd + 1 for fd in keep], ends):
                    os.closerange(low, high)
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                while True:
                    try:
                        request = _receive(requests)
                    except EOFError:
                        break
                    _send(replies, invariants._sweep(*request))
                code = 0
            except BaseException as exc:
                os.write(2, f"bracket worker: {exc!r}\n".encode())
                raise
            finally:
                os._exit(code)
        os.close(requests)
        os.close(replies)

    def sweep(self, p: int, letters: tuple[int, ...], lo: int, hi: int) -> None:
        """Ask for ``_sweep(p, letters, lo, hi)``; :meth:`result` reads it."""
        _send(self._requests, (p, letters, lo, hi))

    def result(self) -> tuple[int, list[int]]:
        return _receive(self._replies)

    def stop(self) -> int | None:
        """Close the pipes and, in the process that forked the worker,
        kill and reap it.  Returns its exit code as
        ``os.waitstatus_to_exitcode`` gives it, -9 if it was still
        running, or None in another process."""
        os.close(self._requests)
        os.close(self._replies)
        if self.owner != os.getpid():
            return None
        os.kill(self.pid, signal.SIGKILL)  # a worker that has exited is a zombie until reaped
        return os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])


_worker: _Worker | None = None


def stop() -> int | None:
    """Stop the worker, if one runs; see :meth:`_Worker.stop`."""
    global _worker
    worker, _worker = _worker, None
    return worker.stop() if worker else None


atexit.register(stop)


def running() -> bool:
    """Whether this process has forked a worker that has not stopped."""
    return _worker is not None and _worker.owner == os.getpid()


def split_sweep(
    p: int, letters: tuple[int, ...], split: int, columns: int
) -> list[tuple[int, list[int]]]:
    """The parts of the sweep of ``letters`` on ``p`` strands for the
    columns below ``split``, swept here, and for the others up to
    ``columns``, swept by the worker meanwhile.  The worker starts on
    first use, and again after a fork of this process or a failure."""
    global _worker
    if not running():
        stop()  # one inherited from the process that forked this one
        _worker = _Worker()
    worker = _worker
    try:
        worker.sweep(p, letters, split, columns)
        mine = invariants._sweep(p, letters, 0, split)
        theirs = worker.result()
    except (OSError, EOFError) as exc:
        code = stop()
        raise ChildProcessError(
            f"bracket worker {worker.pid} ended mid-call (exit code {code})"
        ) from exc
    except BaseException:
        stop()
        raise
    return [mine, theirs]
