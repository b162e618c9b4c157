"""Misbehaving pool members and a pool driver for the local-pool tests.

The ``mode_*`` functions other than ``mode_pool_driver`` join a local
pool the way :func:`repro.engine.distributed.local_worker` does: the
pool starts them with ``_LocalPool.spawn(mode, *args)``, which passes
its listener address and secret first.  Modes:

``worker_after``
    Waits for a marker file, then serves as a healthy pool worker.
    Lets a test add a worker only once the misbehaving member has done
    its damage.

``quit_after``
    Ships N chunk results, then dies abruptly (``os._exit``, no goodbye
    — the wire sees exactly what a SIGKILL produces).

``stall``
    Handshakes, accepts its first chunk, then never answers — the
    controller must hit its chunk deadline and requeue.  With ``kill``
    it SIGKILLs itself holding the chunk instead, so the controller
    must read its EOF.  Exits once the controller drops it.

``garbage``
    Connects and writes bytes that are not a frame, then lingers — the
    controller must classify it as a protocol failure and drop it.

``idle``
    Never connects; lives until its parent exits.

``pool-driver`` (run as ``python distributed_child.py pool-driver
fork|spawn``; excluded from pytest collection via tests/conftest.py)
    A driver that runs one ``jobs=2`` campaign on the local worker
    pool, prints the pool's worker pids and process classes as JSON, then
    returns once its stdin closes (or dies when killed).  With
    ``spawn`` a second thread is alive while the pool starts, so its
    members are spawned instead of forked.

Tests order these members by marker files and controller events, never
by sleeps.
"""

from __future__ import annotations

import multiprocessing.connection
import os
import signal
import socket
import sys
import time


def _wait_for(path: str, budget: float = 60.0) -> None:
    deadline = time.monotonic() + budget
    while not os.path.exists(path) and time.monotonic() < deadline:
        time.sleep(0.01)


def _handshake(sock: socket.socket, secret: str):
    """hello -> init -> ready; returns the unpickled EngineContext."""
    from repro.engine.distributed import _unpickle_b64, recv_frame, send_frame

    send_frame(sock, {"op": "hello", "pid": os.getpid(), "digests": [],
                      "secret": secret})
    init = recv_frame(sock)
    assert init is not None and init["op"] == "init", init
    ctx = _unpickle_b64(init["ctx"])
    send_frame(sock, {"op": "ready", "warm": False, "init_s": 0.0})
    return ctx


def _linger(sock: socket.socket) -> None:
    """Block until the controller hangs up (or a minute passes)."""
    try:
        sock.settimeout(60.0)
        sock.recv(1)
    except OSError:
        pass


def mode_worker_after(address, secret: str, marker: str) -> None:
    from repro.engine.distributed import local_worker

    _wait_for(marker)
    local_worker(address, secret)


def mode_quit_after(address, secret: str, n: int) -> None:
    """Ship N chunk results, then die without closing the conversation."""
    from repro.engine.chunks import execute_chunk
    from repro.engine.distributed import _pickle_b64, recv_frame, send_frame

    sock = socket.create_connection(address)
    ctx = _handshake(sock, secret)
    for _ in range(n):
        message = recv_frame(sock)
        if message is None or message["op"] == "done":
            return
        payload = execute_chunk(
            ctx, int(message["start"]), int(message["stop"]), capture=True
        )
        send_frame(sock, {
            "op": "result", "start": payload.start, "stop": payload.stop,
            "payload": _pickle_b64(payload),
        })
    os._exit(9)  # abrupt: no flush, no close handshake


def mode_stall(address, secret: str, how: str = "hold") -> None:
    """Take a chunk and sit on it, or die holding it."""
    from repro.engine.distributed import recv_frame

    sock = socket.create_connection(address)
    _handshake(sock, secret)
    message = recv_frame(sock)          # the chunk we will never run
    assert message is not None and message["op"] == "chunk", message
    if how == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    _linger(sock)


def mode_garbage(address, secret: str) -> None:
    """Write a frame whose length prefix is absurd, then linger."""
    sock = socket.create_connection(address)
    sock.sendall(b"\xff\xff\xff\xff not a frame at all")
    _linger(sock)


def mode_idle(address, secret: str) -> None:
    """A pool process that never connects."""
    multiprocessing.connection.wait([multiprocessing.parent_process().sentinel])


def mode_pool_driver(argv: list[str]) -> int:
    """Run one pooled campaign, print the workers, exit or hang."""
    import json
    import threading

    import repro.engine.backends as backends
    from repro.apps import get_app
    from repro.fi.campaign import Deployment, run_campaign

    if argv[0] == "spawn":              # a live thread rules out fork
        threading.Thread(target=threading.Event().wait, daemon=True).start()
    run_campaign(get_app("cg"), Deployment(nprocs=2, trials=8, seed=1), jobs=2)
    print(json.dumps([[proc.pid, type(proc).__name__]
                      for proc in backends._POOL.procs]), flush=True)
    sys.stdin.readline()                # until the test closes stdin
    return 0


if __name__ == "__main__":
    sys.exit({"pool-driver": mode_pool_driver}[sys.argv[1]](sys.argv[2:]))
