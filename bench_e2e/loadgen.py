"""Single-threaded load generation against a live daemon.

One ``selectors`` loop multiplexes every connection, so the generator
never uses more threads than the one it runs on, and at most two
connections.  Two shapes:

* :func:`closed_loop` — each connection keeps exactly one request in
  flight and takes its next off a shared list only after the answer;
* :func:`open_loop` — requests go out at their scheduled instants
  whatever the daemon is doing; latency counts from the instant a
  request was *due*, and how late the generator actually sent it is
  recorded as lag.

Every sample is a dict with the request, the response frame (None when
unanswered) and monotonic ``due`` / ``sent`` / ``done`` instants.
"""

from __future__ import annotations

import json
import selectors
import socket
import time

from repro.daemon.client import parse_addr


class Wire:
    """One NDJSON connection, non-blocking on the read side."""

    def __init__(self, addr: str) -> None:
        self.sock = socket.create_connection(parse_addr(addr), timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""
        self.closed = False

    def send(self, frame: dict) -> None:
        self.sock.sendall((json.dumps(frame) + "\n").encode("utf-8"))

    def receive(self) -> list[dict]:
        """Frames that arrived since the last call (call when readable)."""
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            self.closed = True
            return []
        self._buffer += chunk
        *lines, self._buffer = self._buffer.split(b"\n")
        return [json.loads(line) for line in lines if line.strip()]

    def close(self) -> None:
        self.sock.close()


def _frame(request_id: str, request: dict) -> dict:
    frame = {"id": request_id, "op": "submit"}
    frame.update(request)
    return frame


def closed_loop(
    addr: str,
    requests: list[dict],
    connections: int,
    seconds: float | None = None,
    reply_timeout: float = 120.0,
) -> list[dict]:
    """Closed loops sharing one request list.

    Each connection keeps exactly one request in flight and, when its
    answer arrives, takes the next request off the shared list.  The
    list is walked once; with ``seconds`` set it is walked again and
    again, stopping at the first pass boundary after the time is up, so
    every request is sent the same number of times."""
    selector = selectors.DefaultSelector()
    wires = [Wire(addr) for _ in range(connections)]
    samples: list[dict] = []
    inflight: dict[int, dict] = {}
    started = time.monotonic()

    def send_next(index: int) -> None:
        position = len(samples)
        if position % len(requests) == 0 and position and (
            seconds is None or time.monotonic() - started >= seconds
        ):
            return
        request = requests[position % len(requests)]
        sample = {"id": f"c{position}", "request": request, "conn": index,
                  "frame": None}
        sample["due"] = sample["sent"] = time.monotonic()
        wires[index].send(_frame(sample["id"], request))
        inflight[index] = sample
        samples.append(sample)

    try:
        for index, wire in enumerate(wires):
            selector.register(wire.sock, selectors.EVENT_READ, index)
            send_next(index)
        while inflight:
            events = selector.select(timeout=reply_timeout)
            if not events:
                break  # unanswered: the samples keep frame None
            for key, _mask in events:
                index = key.data
                for frame in wires[index].receive():
                    sample = inflight.get(index)
                    if sample is None or frame.get("id") != sample["id"]:
                        continue
                    del inflight[index]
                    sample["done"] = time.monotonic()
                    sample["frame"] = frame
                    send_next(index)
                if wires[index].closed:
                    selector.unregister(wires[index].sock)
                    inflight.pop(index, None)
    finally:
        selector.close()
        for wire in wires:
            wire.close()
    return samples


def open_loop(
    addr: str,
    schedule: list[dict],
    connections: int,
    drain_seconds: float,
) -> list[dict]:
    """Send ``schedule`` (dicts with ``at`` seconds from start, ``conn``
    and ``request``, sorted by ``at``) on time; wait up to
    ``drain_seconds`` after the last send for stragglers."""
    selector = selectors.DefaultSelector()
    wires = [Wire(addr) for _ in range(connections)]
    samples: list[dict] = []
    pending: dict[str, dict] = {}
    try:
        for index, wire in enumerate(wires):
            selector.register(wire.sock, selectors.EVENT_READ, index)
        started = time.monotonic()
        position = 0
        deadline = None
        while position < len(schedule) or pending:
            now = time.monotonic()
            if position < len(schedule):
                due = started + schedule[position]["at"]
                if now >= due:
                    item = schedule[position]
                    position += 1
                    sample = {
                        "id": f"o{position}", "request": item["request"],
                        "conn": item["conn"], "step": item.get("step"),
                        "frame": None, "due": due,
                        # Backlog the daemon already owed when this one left.
                        "outstanding": len(pending),
                    }
                    wires[item["conn"]].send(
                        _frame(sample["id"], item["request"])
                    )
                    sample["sent"] = time.monotonic()
                    pending[sample["id"]] = sample
                    samples.append(sample)
                    continue
                timeout = due - now
            else:
                if deadline is None:
                    deadline = now + drain_seconds
                if now >= deadline:
                    break
                timeout = deadline - now
            for key, _mask in selector.select(timeout=timeout):
                wire = wires[key.data]
                for frame in wire.receive():
                    sample = pending.pop(str(frame.get("id", "")), None)
                    if sample is not None:
                        sample["done"] = time.monotonic()
                        sample["frame"] = frame
                if wire.closed:
                    selector.unregister(wire.sock)
    finally:
        selector.close()
        for wire in wires:
            wire.close()
    return samples
