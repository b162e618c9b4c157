"""Pooled campaign execution: a socket work queue + warm workers.

The controller (:func:`dispatch`, inside the driver) listens on a TCP
socket and serves chunk work items; ``repro-worker`` processes connect,
initialize once, and stream chunk payloads back — from anywhere
(:class:`DistributedBackend`) or spawned by the driver itself
(:class:`~repro.engine.backends.ProcessPoolBackend`).  The driver's
:class:`~repro.engine.aggregate.ChunkAggregator` folds the payloads in
strict chunk order, so joint distributions, records, trial events and
``*.provenance.jsonl`` are byte-identical to
:class:`~repro.engine.backends.InlineBackend` for any worker count or
join/leave timing (see docs/distributed.md for the exact contract).

Wire protocol — length-prefixed JSON frames
-------------------------------------------

Every message is a 4-byte big-endian length followed by one UTF-8 JSON
object.  Binary state (the pickled :class:`EngineContext`, pickled
:class:`ChunkPayload` results) rides base64-encoded inside the JSON,
framed so a partial read, a truncated frame or garbage on the wire is
detected instead of misparsed.  The conversation::

    worker  -> {"op": "hello", "pid": ..., "digests": [...][, "secret": K]}
    control -> {"op": "init", "digest": D[, "ctx": <base64 pickle>]}
    worker  -> {"op": "ready", "warm": ..., "init_s": ...}
    control -> {"op": "chunk", "start": S, "stop": E}       (repeated)
    worker  -> {"op": "result", "start": S, "stop": E,
                "payload": <base64 pickle>}                 (repeated)
    control -> {"op": "done"}

Warm pools: the ``hello`` advertises the content digests of the
campaign contexts the worker already holds initialized (the
:data:`WARM_LIMIT` most recently used); the controller ships the
pickled context only when the worker lacks it.  A worker's cache
persists across its reconnect loop, so back-to-back campaigns with the
same identity pay the unpickle cost once per worker, not once per
campaign (cf. the modelops warm-pool design this follows).

A controller given a ``secret`` (the local pool's) drops every
connection whose ``hello`` lacks it before sending or unpickling a byte.

Failure semantics: dispatch is at-least-once.  A worker that
disconnects (EOF — e.g. SIGKILL), misses its chunk deadline, or sends a
garbage frame is dropped and its in-flight chunk requeued
(:class:`~repro.obs.events.ChunkRequeued`); exactly-once *folding* is
guaranteed by the controller's completed-set and the aggregator's
duplicate guard.  If every worker is gone and work remains past
``worker_timeout`` — or, for the local pool, as soon as none of its
worker processes is alive — the campaign fails with a typed
:class:`~repro.errors.WorkerCrashError` naming the first unfinished
chunk — never a hang.
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import hmac
import itertools
import json
import multiprocessing
import multiprocessing.connection
import os
import pickle
import selectors
import signal
import socket
import struct
import sys
import threading
import time
import traceback
from collections import OrderedDict, deque
from pathlib import Path
from typing import Callable, Iterator, Sequence

from repro import knobs
from repro.engine.chunks import ChunkPayload, EngineContext, execute_chunk
from repro.errors import DistributedProtocolError, WorkerCrashError
from repro.obs import get_recorder
from repro.obs.events import ChunkRequeued, WorkerJoined, WorkerLost

__all__ = [
    "DistributedBackend",
    "dispatch",
    "local_worker",
    "recv_frame",
    "send_frame",
    "worker_main",
]

Bounds = tuple[int, int]

#: Hard ceiling on one frame's JSON body.  Real frames are the pickled
#: context (MBs at most); anything larger is garbage on the wire.
MAX_FRAME_BYTES = 1 << 28

#: Chunk planning under a distributed spec assumes at least this many
#: workers even when ``jobs`` was left at 1 — one giant chunk would
#: serialize the whole pool.  Safe because results are chunk-invariant.
DEFAULT_PLAN_WORKERS = 4

_LEN = struct.Struct(">I")

#: Campaign contexts a worker keeps initialized; the least recently used
#: is evicted first.  A lifetime worker serving a sweep sees a new
#: digest per deployment; only the last few are worth keeping warm.
WARM_LIMIT = 4

#: Per-socket timeout for blocking I/O (sends, worker-side receives are
#: further bounded by the worker's ``--timeout``).
_IO_TIMEOUT = 30.0


# --------------------------------------------------------------------------
# framing


def send_frame(sock: socket.socket, message: dict) -> None:
    """Write one length-prefixed JSON frame."""
    body = json.dumps(message, separators=(",", ":")).encode()
    sock.sendall(_LEN.pack(len(body)) + body)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; None on clean EOF at a frame boundary."""
    buf = bytearray()
    while len(buf) < n:
        data = sock.recv(n - len(buf))
        if not data:
            if buf:
                raise DistributedProtocolError(
                    f"connection closed mid-frame ({len(buf)}/{n} bytes)"
                )
            return None
        buf += data
    return bytes(buf)


def recv_frame(sock: socket.socket) -> dict | None:
    """Read one frame; None on clean EOF between frames.

    Raises :class:`~repro.errors.DistributedProtocolError` on a
    truncated frame, an implausible length prefix, or a body that is
    not a JSON object.
    """
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise DistributedProtocolError(
            f"frame length {length} exceeds {MAX_FRAME_BYTES} bytes "
            f"(garbage on the wire?)"
        )
    body = _recv_exact(sock, length)
    if body is None:
        raise DistributedProtocolError("connection closed before frame body")
    return _parse_body(bytes(body))


def _parse_body(body: bytes) -> dict:
    try:
        message = json.loads(body)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DistributedProtocolError(f"undecodable frame body: {exc}") from exc
    if not isinstance(message, dict):
        raise DistributedProtocolError(
            f"frame body is {type(message).__name__}, expected object"
        )
    return message


class _FrameBuffer:
    """Incremental frame parser for the controller's non-blocking reads."""

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[dict]:
        self._buf += data
        frames = []
        while len(self._buf) >= _LEN.size:
            (length,) = _LEN.unpack(self._buf[: _LEN.size])
            if length > MAX_FRAME_BYTES:
                raise DistributedProtocolError(
                    f"frame length {length} exceeds {MAX_FRAME_BYTES} bytes "
                    f"(garbage on the wire?)"
                )
            if len(self._buf) < _LEN.size + length:
                break
            body = bytes(self._buf[_LEN.size : _LEN.size + length])
            del self._buf[: _LEN.size + length]
            frames.append(_parse_body(body))
        return frames


def _pickle_b64(obj) -> str:
    return base64.b64encode(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def _unpickle_b64(text: str):
    try:
        return pickle.loads(base64.b64decode(text, validate=True))
    except Exception as exc:  # binascii.Error, UnpicklingError, EOFError...
        raise DistributedProtocolError(f"undecodable payload: {exc}") from exc


def _write_port_file(path: str, host: str, port: int) -> None:
    """Publish the bound address atomically (for shell orchestration)."""
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(f"{host}:{port}\n")
    os.replace(tmp, target)


# --------------------------------------------------------------------------
# controller


class _Worker:
    """Controller-side connection state for one worker."""

    __slots__ = ("sock", "addr", "worker_id", "pid", "state", "chunk",
                 "deadline", "chunks_done", "warm", "frames")

    def __init__(self, sock, addr, worker_id: int, deadline: float):
        self.sock = sock
        self.addr = addr
        self.worker_id = worker_id
        self.pid = 0
        self.state = "hello"   # hello -> init -> idle <-> busy
        self.chunk: Bounds | None = None
        self.deadline: float | None = deadline
        self.chunks_done = 0
        self.warm = False
        self.frames = _FrameBuffer()


def dispatch(
    server: socket.socket,
    ctx: EngineContext,
    chunks: Sequence[Bounds],
    worker_ids: Iterator[int],
    *,
    chunk_timeout: float | None = None,
    worker_timeout: float | None = None,
    secret: str | None = None,
    alive: Callable[[], bool] | None = None,
    lifecycle: bool = True,
) -> Iterator[ChunkPayload]:
    """The controller loop of every pooled backend.

    Accepts workers on the caller's listening ``server``, hands idle
    workers queued chunks, yields payloads in completion order (fold
    order is the aggregator's job) and requeues the chunk of any worker
    that disconnects, stalls past ``chunk_timeout`` or corrupts the
    wire.  Timeouts default to ``$REPRO_DIST_CHUNK_TIMEOUT`` (300 s)
    and ``$REPRO_DIST_WORKER_TIMEOUT`` (120 s).  The local pool adds
    ``secret``, ``alive`` (False once none of its processes is left:
    fail now, not at the worker timeout) and ``lifecycle=False`` (only
    abnormal worker telemetry).
    """
    if chunk_timeout is None:
        chunk_timeout = knobs.env_value("dist_chunk_timeout")
    if worker_timeout is None:
        worker_timeout = knobs.env_value("dist_worker_timeout")
    ctx_b64 = _pickle_b64(ctx)
    # content digest: identical campaign state => warm worker reuse
    digest = hashlib.sha256(ctx_b64.encode("ascii")).hexdigest()[:24]
    queue: deque[Bounds] = deque(sorted(chunks))
    completed: set[Bounds] = set()
    total = len(queue)
    workers: dict[int, _Worker] = {}   # fileno -> state
    server.setblocking(False)          # accept() drains, never waits
    sel = selectors.DefaultSelector()
    sel.register(server, selectors.EVENT_READ, data=None)
    no_worker_deadline = time.monotonic() + worker_timeout

    def unfinished(reason: str) -> WorkerCrashError:
        lo, hi = min(b for b in chunks if b not in completed)
        return WorkerCrashError(
            f"{reason}; first unfinished chunk covers trials {lo}..{hi - 1} "
            f"— rerun that range with jobs=1 to reproduce in-process, or "
            f"rerun with checkpointing + resume to redo only the missing "
            f"chunks",
            chunk_start=lo, chunk_stop=hi,
        )

    def drop(worker: _Worker, reason: str) -> None:
        """Forget a worker; requeue its in-flight chunk, if any."""
        rec = get_recorder()
        if worker.chunk is not None and worker.chunk not in completed:
            rec.counter("distributed.chunks_requeued")
            rec.emit(ChunkRequeued(
                chunk_start=worker.chunk[0], chunk_stop=worker.chunk[1],
                worker=worker.worker_id, reason=reason,
            ))
            queue.appendleft(worker.chunk)
        worker.chunk = None
        if reason != "released":
            rec.counter("distributed.workers_lost")
        if lifecycle or reason != "released":
            rec.emit(WorkerLost(worker=worker.worker_id, reason=reason,
                                chunks_done=worker.chunks_done))
        sel.unregister(worker.sock)
        del workers[worker.sock.fileno()]
        worker.sock.close()

    def handle(worker: _Worker, message: dict) -> ChunkPayload | None:
        op = message.get("op")
        if op == "hello" and worker.state == "hello":
            if secret is not None and not hmac.compare_digest(
                str(message.get("secret", "")).encode(), secret.encode()
            ):
                raise DistributedProtocolError(
                    f"worker {worker.worker_id} failed authentication"
                )
            worker.pid = int(message.get("pid") or 0)
            worker.warm = digest in message.get("digests", [])
            init: dict = {"op": "init", "digest": digest}
            if not worker.warm:
                init["ctx"] = ctx_b64
            send_frame(worker.sock, init)
            worker.state = "init"
            return None
        if op == "ready" and worker.state == "init":
            worker.state = "idle"
            worker.deadline = None
            if lifecycle:
                init_s = float(message.get("init_s") or 0.0)
                rec = get_recorder()
                rec.counter("distributed.workers_joined")
                rec.counter("distributed.warm_inits" if worker.warm
                            else "distributed.cold_inits")
                rec.observe("distributed.init_s", init_s)
                rec.emit(WorkerJoined(
                    worker=worker.worker_id, pid=worker.pid,
                    addr="%s:%s" % worker.addr[:2], warm=worker.warm,
                    init_s=init_s,
                ))
            return None
        if op == "result" and worker.state == "busy":
            bounds = (int(message["start"]), int(message["stop"]))
            if bounds != worker.chunk:
                raise DistributedProtocolError(
                    f"worker {worker.worker_id} reported chunk {bounds}, "
                    f"expected {worker.chunk}"
                )
            payload = _unpickle_b64(message["payload"])
            if not isinstance(payload, ChunkPayload):
                raise DistributedProtocolError(
                    f"worker {worker.worker_id} shipped "
                    f"{type(payload).__name__}, expected ChunkPayload"
                )
            worker.chunk = None
            worker.state = "idle"
            worker.deadline = None
            worker.chunks_done += 1
            rec = get_recorder()
            if bounds in completed:
                # at-least-once dispatch: another worker already
                # reported the requeued chunk — fold exactly once
                rec.counter("distributed.duplicate_results")
                return None
            completed.add(bounds)
            if lifecycle:
                rec.counter("distributed.chunks_completed")
            return payload
        if op == "error" and worker.state != "hello":
            lo, hi = worker.chunk if worker.chunk else (None, None)
            detail = message.get("message", "worker reported an error")
            raise WorkerCrashError(
                f"worker {worker.worker_id} failed while running "
                f"{ctx.app.name!r} trials; remote traceback:\n{detail}",
                chunk_start=lo, chunk_stop=hi,
            )
        raise DistributedProtocolError(
            f"unexpected {op!r} frame from worker {worker.worker_id} "
            f"in state {worker.state!r}"
        )

    try:
        while len(completed) < total:
            now = time.monotonic()
            # deadlines: handshakes and busy chunks must make progress
            for worker in [w for w in workers.values()
                           if w.deadline is not None and now > w.deadline]:
                drop(worker, "timeout")
            if workers:
                no_worker_deadline = now + worker_timeout
            elif alive is not None and not alive():
                raise unfinished(
                    f"every worker process died while running "
                    f"{ctx.app.name!r} trials (hard crash or external kill "
                    f"before reporting its chunk)"
                )
            elif now > no_worker_deadline:
                host, port = server.getsockname()[:2]
                raise unfinished(
                    f"no workers connected for {worker_timeout:.0f}s with "
                    f"{total - len(completed)} chunk(s) outstanding — start "
                    f"repro-worker processes pointed at {host}:{port}, or "
                    f"rerun with an in-process backend"
                )
            for key, _ in sel.select(timeout=0.05):
                if key.data is None:     # the listener: take its backlog
                    while True:
                        try:
                            conn, addr = server.accept()
                        except OSError:
                            break
                        conn.settimeout(_IO_TIMEOUT)
                        worker = _Worker(
                            conn, addr, next(worker_ids),
                            time.monotonic() + worker_timeout,
                        )
                        workers[conn.fileno()] = worker
                        sel.register(conn, selectors.EVENT_READ, data=worker)
                    continue
                worker = key.data
                if worker.sock.fileno() not in workers:
                    continue             # dropped earlier this round
                try:
                    data = worker.sock.recv(1 << 16)
                except (OSError, ValueError):
                    data = b""
                if not data:
                    drop(worker, "disconnect")
                    continue
                try:
                    for message in worker.frames.feed(data):
                        payload = handle(worker, message)
                        if payload is not None:
                            yield payload
                except OSError:
                    drop(worker, "disconnect")
                except (DistributedProtocolError, KeyError, TypeError,
                        ValueError):
                    drop(worker, "protocol")
            # hand every idle worker the next chunk
            for worker in sorted(
                (w for w in workers.values() if w.state == "idle"),
                key=lambda w: w.worker_id,
            ):
                if not queue:
                    break
                bounds = queue.popleft()
                worker.chunk = bounds
                worker.state = "busy"
                worker.deadline = time.monotonic() + chunk_timeout
                try:
                    send_frame(worker.sock, {
                        "op": "chunk", "start": bounds[0], "stop": bounds[1],
                    })
                except OSError:
                    drop(worker, "disconnect")
    finally:
        for worker in list(workers.values()):
            try:
                send_frame(worker.sock, {"op": "done"})
            except OSError:
                pass
            drop(worker, "released")
        sel.close()


class DistributedBackend:
    """Serve chunks to remote ``repro-worker`` processes over a socket.

    Binds a listener per campaign and runs :func:`dispatch` on it.
    ``port=0`` binds an ephemeral port; the bound address lands in
    ``self.address`` and, when ``$REPRO_DIST_PORT_FILE`` names a path,
    in that file (``host:port``) so shell-orchestrated workers can find
    a controller that chose its own port.
    """

    live_events = False

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        chunk_timeout: float | None = None,
        worker_timeout: float | None = None,
    ):
        self.host = host
        self.port = port
        self.chunk_timeout = chunk_timeout
        self.worker_timeout = worker_timeout
        self.address: tuple[str, int] | None = None
        self._worker_ids = itertools.count(1)

    def run(
        self, ctx: EngineContext, chunks: Sequence[Bounds]
    ) -> Iterator[ChunkPayload]:
        server = socket.create_server((self.host, self.port), backlog=16)
        self.address = server.getsockname()[:2]
        port_file = os.environ.get("REPRO_DIST_PORT_FILE")
        if port_file:
            _write_port_file(port_file, self.address[0], self.address[1])
        try:
            yield from dispatch(
                server, ctx, chunks, self._worker_ids,
                chunk_timeout=self.chunk_timeout,
                worker_timeout=self.worker_timeout,
            )
        finally:
            server.close()


# --------------------------------------------------------------------------
# worker


#: Warm campaign state, keyed by the controller's content digest, least
#: recently used first.  Lives for the worker process's whole reconnect
#: loop, so sequential campaigns with identical state skip the unpickle.
_WARM: OrderedDict[str, EngineContext] = OrderedDict()


def _controller_address(args) -> tuple[str, int] | None:
    """The controller address, re-read each attempt (ephemeral ports)."""
    text = None
    if args.port_file:
        try:
            text = Path(args.port_file).read_text().strip()
        except OSError:
            return None
    else:
        text = args.address
    if not text:
        return None
    host, _, port_text = text.rpartition(":")
    try:
        return (host, int(port_text)) if host else None
    except ValueError:
        return None


def _serve_session(sock: socket.socket, secret: str | None = None) -> bool:
    """One controller conversation; True when released by ``done``."""
    hello = {"op": "hello", "pid": os.getpid(), "digests": sorted(_WARM)}
    if secret is not None:
        hello["secret"] = secret
    send_frame(sock, hello)
    init = recv_frame(sock)
    if init is None or init.get("op") != "init":
        return False
    digest = init.get("digest", "")
    t0 = time.perf_counter()
    if "ctx" in init:
        try:
            ctx = _unpickle_b64(init["ctx"])
        except DistributedProtocolError as exc:
            # Tell the controller instead of dying silently: a campaign
            # whose state no worker can unpickle (e.g. an app class from
            # a module the worker can't import) should fail fast with
            # the reason, not stall until the worker timeout.
            send_frame(sock, {
                "op": "error",
                "message": f"campaign state failed to unpickle: {exc}",
            })
            return False
        warm = False
    else:
        ctx = _WARM.get(digest)
        if ctx is None:
            send_frame(sock, {
                "op": "error",
                "message": f"no warm state for advertised digest {digest}",
            })
            return False
        warm = True
    _WARM[digest] = ctx
    _WARM.move_to_end(digest)
    while len(_WARM) > WARM_LIMIT:
        _WARM.popitem(last=False)
    send_frame(sock, {
        "op": "ready", "warm": warm,
        "init_s": round(time.perf_counter() - t0, 6),
    })
    while True:
        message = recv_frame(sock)
        if message is None:
            return False
        op = message.get("op")
        if op == "done":
            return True
        if op != "chunk":
            raise DistributedProtocolError(f"unexpected {op!r} frame")
        start, stop = int(message["start"]), int(message["stop"])
        try:
            payload = execute_chunk(ctx, start, stop, capture=True)
        except Exception:
            send_frame(sock, {
                "op": "error", "start": start, "stop": stop,
                "message": traceback.format_exc(),
            })
            return False
        send_frame(sock, {
            "op": "result", "start": start, "stop": stop,
            "payload": _pickle_b64(payload),
        })


def _exit_with_parent() -> None:
    """Exit the moment the spawning process exits or dies."""
    parent = multiprocessing.parent_process()
    multiprocessing.connection.wait([parent.sentinel])
    os._exit(0)


def local_worker(address: tuple[str, int], secret: str) -> None:
    """A local pool worker: serve the parent's campaigns until it exits.

    The ``repro-worker`` session loop with no idle timer; Ctrl-C is the
    parent's to handle.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(target=_exit_with_parent, daemon=True).start()
    while True:
        try:
            sock = socket.create_connection(address)
        except OSError:
            time.sleep(0.05)
            continue
        with sock:
            try:
                _serve_session(sock, secret)
            except (OSError, DistributedProtocolError):
                pass


def worker_main(argv: Sequence[str] | None = None) -> int:
    """The ``repro-worker`` CLI: serve campaigns until idle for too long.

    The worker loops: connect to the controller (from ``address`` or,
    with ``--port-file``, the file a controller publishes its bound
    address into — re-read every attempt, so it follows controllers on
    ephemeral ports), serve one campaign, keep the initialized state
    warm, reconnect for the next campaign.  It exits 0 after
    ``--timeout`` seconds without serving anything, or after
    ``--sessions`` completed campaigns.
    """
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description="Warm campaign worker for the distributed backend.",
    )
    parser.add_argument(
        "address", nargs="?", default=None,
        help="controller address, host:port",
    )
    parser.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="read the controller address from this file (host:port), "
             "re-read on every reconnect",
    )
    parser.add_argument(
        "--timeout", type=float, default=60.0, metavar="S",
        help="exit after this many seconds without serving a campaign "
             "(default: 60)",
    )
    parser.add_argument(
        "--sessions", type=int, default=0, metavar="N",
        help="exit after N completed campaigns (default: unlimited)",
    )
    args = parser.parse_args(argv)
    if not args.address and not args.port_file:
        parser.error("an address or --port-file is required")

    served = 0
    deadline = time.monotonic() + args.timeout
    while time.monotonic() < deadline:
        address = _controller_address(args)
        if address is None:
            time.sleep(0.05)
            continue
        try:
            sock = socket.create_connection(address, timeout=5.0)
        except OSError:
            time.sleep(0.05)
            continue
        sock.settimeout(max(_IO_TIMEOUT, args.timeout))
        try:
            released = _serve_session(sock)
        except (OSError, DistributedProtocolError) as exc:
            print(f"repro-worker: session failed: {exc}", file=sys.stderr)
            released = False
        finally:
            sock.close()
        if released:
            served += 1
            deadline = time.monotonic() + args.timeout
            if args.sessions and served >= args.sessions:
                break
    return 0


if __name__ == "__main__":
    sys.exit(worker_main())
