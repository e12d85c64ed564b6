"""forked.Forked: one task in one forked child, its bytes or None, and no
child left behind."""
import os
import time

import pytest

from aclab.forked import Forked


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_result_is_the_child_bytes():
    assert Forked(lambda: b"abc" * 100000).result() == b"abc" * 100000
    # a task that returns None sends no bytes, which is still a delivery
    assert Forked(lambda: None).result() == b""
    _assert_no_child()


def test_failing_child_delivers_none():
    def fail():
        raise RuntimeError("forced")

    assert Forked(fail).result() is None
    assert Forked(lambda: os._exit(3)).result() is None
    _assert_no_child()


def test_no_fork_delivers_none_without_running_the_task(monkeypatch):
    ran = []

    def refuse():
        raise OSError("forced")

    monkeypatch.setattr(os, "fork", refuse)
    assert Forked(lambda: ran.append(1)).result() is None
    monkeypatch.delattr(os, "fork")
    assert Forked(lambda: ran.append(1)).result() is None
    assert ran == []
    _assert_no_child()


def test_close_kills_and_reaps_a_running_child():
    child = Forked(lambda: time.sleep(60))
    t0 = time.monotonic()
    child.close()
    assert time.monotonic() - t0 < 30
    assert child.result() is None
    _assert_no_child()
