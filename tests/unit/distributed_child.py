"""Child processes for the distributed-backend chaos tests.

Run as ``python distributed_child.py MODE [args...]`` (excluded from
pytest collection via tests/conftest.py).  Modes:

``worker``
    A real ``repro-worker`` — everything after the mode goes straight
    to :func:`repro.engine.distributed.worker_main`.

``quit-after``
    A worker that dies abruptly (``os._exit``, no goodbye — the wire
    sees exactly what a SIGKILL produces) after shipping N results.
    Deterministic stand-in for "worker killed mid-campaign".

``stall``
    Handshakes, accepts its first chunk, touches the optional marker
    file, then never answers — the controller must hit its chunk
    deadline (or see the child's death) and requeue.  Exits once the
    controller drops it.

``garbage``
    Connects and writes bytes that are not a frame, then lingers — the
    controller must classify it as a protocol failure and drop it.
    Exits once the controller drops it.

``pool-driver``
    A driver that runs one ``jobs=2`` campaign on the local worker
    pool, prints the pool's worker pids as JSON, then returns once its
    stdin closes (or dies when killed).

Tests order the children by these exits and markers, never by sleeps:
a healthy worker is started only once the misbehaving child has done
its damage.
"""

from __future__ import annotations

import os
import socket
import sys
import time
from pathlib import Path


def _address(port_file: str, budget: float = 30.0) -> tuple[str, int]:
    """Poll the controller's port file until it appears."""
    deadline = time.monotonic() + budget
    while time.monotonic() < deadline:
        try:
            text = Path(port_file).read_text().strip()
        except OSError:
            text = ""
        if text:
            host, _, port = text.rpartition(":")
            return host, int(port)
        time.sleep(0.02)
    raise SystemExit(f"no controller address in {port_file}")


def _connect(port_file: str) -> socket.socket:
    host, port = _address(port_file)
    deadline = time.monotonic() + 30.0
    while True:
        try:
            return socket.create_connection((host, port), timeout=10.0)
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.02)


def _handshake(sock: socket.socket):
    """hello -> init -> ready; returns the unpickled EngineContext."""
    from repro.engine.distributed import (
        _unpickle_b64,
        recv_frame,
        send_frame,
    )

    send_frame(sock, {"op": "hello", "pid": os.getpid(), "digests": []})
    init = recv_frame(sock)
    assert init is not None and init["op"] == "init", init
    ctx = _unpickle_b64(init["ctx"])
    send_frame(sock, {"op": "ready", "warm": False, "init_s": 0.0})
    return ctx


def mode_worker(argv: list[str]) -> int:
    from repro.engine.distributed import worker_main

    return worker_main(argv)


def mode_quit_after(argv: list[str]) -> int:
    """Ship N chunk results, then die without closing the conversation."""
    n, port_file = int(argv[0]), argv[1]
    from repro.engine.chunks import execute_chunk
    from repro.engine.distributed import _pickle_b64, recv_frame, send_frame

    sock = _connect(port_file)
    ctx = _handshake(sock)
    done = 0
    while True:
        message = recv_frame(sock)
        if message is None or message["op"] == "done":
            return 0
        payload = execute_chunk(
            ctx, int(message["start"]), int(message["stop"]), capture=True
        )
        send_frame(sock, {
            "op": "result", "start": payload.start, "stop": payload.stop,
            "payload": _pickle_b64(payload),
        })
        done += 1
        if done >= n:
            os._exit(9)  # abrupt: no flush, no close handshake


def mode_stall(argv: list[str]) -> int:
    """Take a chunk and sit on it until the controller hangs up."""
    port_file = argv[0]
    from repro.engine.distributed import recv_frame

    sock = _connect(port_file)
    _handshake(sock)
    message = recv_frame(sock)          # the chunk we will never run
    assert message is not None and message["op"] == "chunk", message
    if len(argv) > 1:
        Path(argv[1]).touch()           # tell the test we hold a chunk
    try:
        sock.settimeout(60.0)
        sock.recv(1)                    # EOF when the controller drops us
    except OSError:
        pass
    return 0


def mode_garbage(argv: list[str]) -> int:
    """Write a frame whose length prefix is absurd, then linger."""
    port_file = argv[0]
    sock = _connect(port_file)
    sock.sendall(b"\xff\xff\xff\xff not a frame at all")
    try:
        sock.settimeout(60.0)
        sock.recv(1)                    # EOF when the controller drops us
    except OSError:
        pass
    return 0


def mode_pool_driver(argv: list[str]) -> int:
    """Run one pooled campaign, print the worker pids, exit or hang."""
    import json

    import repro.engine.backends as backends
    from repro.apps import get_app
    from repro.fi.campaign import Deployment, run_campaign

    run_campaign(get_app("cg"), Deployment(nprocs=2, trials=8, seed=1), jobs=2)
    print(json.dumps([proc.pid for proc in backends._POOL.procs]), flush=True)
    sys.stdin.readline()                # until the test closes stdin
    return 0


MODES = {
    "worker": mode_worker,
    "quit-after": mode_quit_after,
    "stall": mode_stall,
    "garbage": mode_garbage,
    "pool-driver": mode_pool_driver,
}


if __name__ == "__main__":
    sys.exit(MODES[sys.argv[1]](sys.argv[2:]))
