"""One task run in one forked child process; only transport.

Forked(task) forks once.  The child runs task(), writes the bytes it
returns (none when it returns None) to a pipe and ends with os._exit, so it
prints nothing and flushes none of the parent's buffers.  result() waits
for the child and returns those bytes, or None where it delivered none: no
fork, a failed fork or a nonzero exit.  close() kills and reaps a child
that result() has not reaped.  A caller that gets None does the same work
in-process, so the child decides no result; it only moves one.
"""
from __future__ import annotations

import os
import signal


class Forked:
    """task() run in one forked child; result() returns its bytes or None."""

    def __init__(self, task):
        self.pid = self.fd = None
        if not hasattr(os, "fork"):
            return
        rfd, wfd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(rfd)
            os.close(wfd)
            return
        if pid == 0:
            code = 1
            try:
                os.close(rfd)
                data = task()
                with open(wfd, "wb") as fh:
                    fh.write(data or b"")
                code = 0
            finally:
                os._exit(code)
        os.close(wfd)
        self.pid, self.fd = pid, rfd

    def result(self):
        """Wait for the child; the bytes it sent, or None if it sent none."""
        if self.pid is None:
            return None
        fd, self.fd = self.fd, None
        with open(fd, "rb") as fh:
            data = fh.read()
        status = os.waitpid(self.pid, 0)[1]
        self.pid = None
        return data if status == 0 else None

    def close(self):
        """Kill and reap the child if result() has not reaped it."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None
