"""Span tracing from outside the program, and the analysis of the spans.

A :class:`Tracer` replaces public functions of the layers under test
with wrappers that record one span per call: layer name, start, end,
parent span and a key.  Keys tie spans to client operations:

- a span that handles a PDU is keyed ``"<origin>:<corr_id>"``, where the
  origin is the first bytes of the name that minted the correlation id
  (the request source, or the destination of a response);
- a client operation step is keyed ``"op:<n>"``;
- a span without a key of its own inherits its parent's, and an
  unkeyed root (one event-loop callback) adopts the key of its first
  keyed descendant;
- sending a PDU this process minted, inside a span keyed otherwise,
  records a *link* (the replicate PDU a server sends while serving a
  client's append belongs to that append).

Every process keeps its spans in memory and writes them to one JSON
file at exit; :func:`analyse` merges the files, follows links from
every key to an ``op:<n>`` key, and computes self time per layer, the
uncovered share of each operation (``transport.wait_ms``) and the
breakdown of the median operation.

The clock is ``time.monotonic`` in every process, which on Linux is the
system-wide ``CLOCK_MONOTONIC``, so spans of different processes line
up on one time axis.
"""

from __future__ import annotations

import inspect
import json
import time

#: how often (seconds) a process samples its crypto counters
_SAMPLE_EVERY = 0.05


def pdu_key(pdu) -> str | None:
    """The correlation key of a PDU (None for non-PDU messages)."""
    corr_id = getattr(pdu, "corr_id", None)
    if corr_id is None:
        return None
    from repro.routing.pdu import T_RESPONSE

    origin = pdu.dst if pdu.ptype == T_RESPONSE else pdu.src
    return f"{origin.raw[:4].hex()}:{corr_id}"


class Tracer:
    """Per-process span store plus the wrappers that feed it."""

    def __init__(self, role: str, own_prefixes: set[str]):
        self.role = role
        #: name prefixes this process mints correlation ids under
        self.own_prefixes = own_prefixes
        #: [name, start, end, parent, key, extra]
        self.spans: list[list] = []
        self.links: dict[str, str] = {}
        #: (start, end, key) of waits that are not CPU (replica acks)
        self.waits: list[tuple[float, float, str | None]] = []
        #: (time, crypto counters, transport backpressure)
        self.samples: list[tuple[float, dict, int]] = []
        self.transports: set = set()
        self._stack: list[int] = []
        self._last_sample = 0.0

    # -- recording ---------------------------------------------------------

    def open(self, name: str, key: str | None = None, *, send: bool = False) -> list:
        stack = self._stack
        span = [name, time.monotonic(), 0.0, stack[-1] if stack else -1, None, None]
        stack.append(len(self.spans))
        self.spans.append(span)
        if key is not None:
            self.set_key(span, key, send=send)
        return span

    def set_key(self, span: list, key: str, *, send: bool = False) -> None:
        """Key *span*; an unkeyed root adopts the key, and a send of a
        PDU minted here inside other work links the two keys."""
        span[4] = key
        parent = span[3]
        if parent < 0:
            return
        outer = self._key_of(parent)
        if outer is None:
            self.spans[self._stack[0]][4] = key
        elif (
            send
            and outer != key
            and key.split(":", 1)[0] in self.own_prefixes
            and key not in self.links
        ):
            self.links[key] = outer

    def close(self, span: list) -> None:
        span[2] = time.monotonic()
        self._stack.pop()

    def _key_of(self, index: int) -> str | None:
        while index >= 0:
            span = self.spans[index]
            if span[4] is not None:
                return span[4]
            index = span[3]
        return None

    def sample(self) -> None:
        """Record crypto counters and transport backpressure, at most
        every ``_SAMPLE_EVERY`` seconds."""
        from repro.crypto import cache

        now = time.monotonic()
        if now - self._last_sample < _SAMPLE_EVERY:
            return
        self._last_sample = now
        backpressure = sum(t.backpressure for t in self.transports)
        self.samples.append((now, cache.counters(), backpressure))

    # -- wrapping ----------------------------------------------------------

    def wrap(
        self, owner, attr: str, name, *,
        key_of=None, key_of_result=None, extra=None, send=False,
    ):
        """Replace ``owner.attr`` with a span-recording wrapper.

        *name* is a layer name or a callable of the call's arguments;
        *key_of(args)* gives the span's own key, or *key_of_result(result)*
        gives it once the call returns; *extra(args, result)* stores one
        number on the span.
        """
        raw = inspect.getattr_static(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(
                name(args) if callable(name) else name,
                key_of(args) if key_of is not None else None,
                send=send,
            )
            try:
                result = fn(*args, **kwargs)
                if key_of_result is not None:
                    tracer.set_key(span, key_of_result(result))
                if extra is not None:
                    span[5] = extra(args, result)
                return result
            finally:
                tracer.close(span)

        wrapper.__wrapped__ = fn
        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)

    def install_common(self) -> None:
        """Wrap the layers every process runs: the event loop, the PDU
        codec, socket sends, crypto, and the client-side capsule code."""
        import asyncio.base_events
        import asyncio.events

        from repro.capsule.reader import VerifyingReader
        from repro.capsule.writer import CapsuleWriter
        from repro.crypto.keys import SigningKey, VerifyingKey
        from repro.routing.pdu import Pdu
        from repro.runtime.transport import SocketChannel

        tracer = self
        run = asyncio.events.Handle._run
        # A callback scheduled while serving an op belongs to that op:
        # call_soon/call_at remember the key current at scheduling time.
        # (Socket reader handles are made once per connection and are
        # deliberately not keyed this way.)
        scheduled: dict[int, str | None] = {}
        loop_cls = asyncio.base_events.BaseEventLoop
        for attr in ("call_soon", "call_at"):
            schedule = getattr(loop_cls, attr)

            def keyed(loop, *args, _schedule=schedule, **kwargs):
                handle = _schedule(loop, *args, **kwargs)
                stack = tracer._stack
                scheduled[id(handle)] = tracer._key_of(stack[-1]) if stack else None
                return handle

            setattr(loop_cls, attr, keyed)

        def loop_callback(handle):
            span = tracer.open("runtime.loop", scheduled.pop(id(handle), None))
            try:
                return run(handle)
            finally:
                tracer.close(span)
                if not tracer._stack:
                    tracer.sample()

        asyncio.events.Handle._run = loop_callback

        def sent_on(args):
            tracer.transports.add(args[0].transport)
            return pdu_key(args[1])

        self.wrap(SocketChannel, "send_pdu", "transport.send", key_of=sent_on, send=True)
        self.wrap(
            Pdu, "encode_wire", "encoding.encode",
            key_of=lambda a: pdu_key(a[0]), extra=lambda a, r: len(r), send=True,
        )
        self.wrap(
            Pdu, "decode_wire", "encoding.decode",
            key_of_result=pdu_key, extra=lambda a, r: len(a[1]),
        )
        self.wrap(SigningKey, "sign", "crypto.sign")
        self.wrap(VerifyingKey, "verify", "crypto.verify")
        self.wrap(CapsuleWriter, "append", "capsule.mint")
        self.wrap(CapsuleWriter, "append_batch", "capsule.mint")
        self.wrap(VerifyingReader, "accept_record", "capsule.proof_verify")

    def install_client(self) -> None:
        import repro.client.client as client_mod

        self.install_common()
        self.wrap(client_mod, "verify_signed_response", "secure.verify_response")

    def install_server(self) -> None:
        import os

        import repro.server.dcserver as dcserver
        from repro.routing.router import GdpRouter
        from repro.runtime.transport import LocalChannel
        from repro.server.segmented import SegmentedStore

        self.install_common()
        tracer = self
        on_request = dcserver.DataCapsuleServer.on_request

        def dispatch_name(args):
            payload = args[1].payload
            op = payload.get("op") if isinstance(payload, dict) else None
            return f"server.dispatch.{op}"

        def serve(server, pdu):
            result = on_request(server, pdu)
            if hasattr(result, "add_callback"):
                start = time.monotonic()
                key = pdu_key(pdu)
                result.add_callback(
                    lambda fut: tracer.waits.append((start, time.monotonic(), key))
                )
            return result

        dcserver.DataCapsuleServer.on_request = serve
        self.wrap(
            dcserver.DataCapsuleServer, "on_request", dispatch_name,
            key_of=lambda a: pdu_key(a[1]),
        )
        self.wrap(dcserver, "sign_response", "secure.sign_response")
        self.wrap(
            dcserver, "build_position_proof", "capsule.proof_build",
            extra=lambda a, r: len(r.headers),
        )
        self.wrap(GdpRouter, "handle_message", "routing.receive", key_of=lambda a: pdu_key(a[1]))
        self.wrap(GdpRouter, "_process", "routing.forward", key_of=lambda a: pdu_key(a[1]))
        # A server hands PDUs to its router over an in-process channel;
        # wrapping that send links the replicate PDUs a server mints to
        # the client op it is serving.
        self.wrap(
            LocalChannel, "send_pdu", "transport.local_send",
            key_of=lambda a: pdu_key(a[1]), send=True,
        )
        for attr in ("append_entries", "append_record", "append_heartbeat"):
            self.wrap(SegmentedStore, attr, "storage.append_entries")
        self.wrap(SegmentedStore, "sync", "storage.sync")
        self.wrap(SegmentedStore, "_seal", "storage.seal")
        self.wrap(os, "fsync", "storage.fsync")

    # -- client operations -------------------------------------------------

    def op_steps(self, generator, key: str):
        """Drive *generator* with every resume inside a ``client.op``
        span keyed *key*; returns the generator's value."""
        value, error = None, None
        while True:
            span = self.open("client.op", key)
            try:
                if error is not None:
                    yielded = generator.throw(error)
                else:
                    yielded = generator.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                self.close(span)
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as exc:  # noqa: BLE001 — forwarded into the op
                value, error = None, exc

    # -- output --------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "role": self.role,
            "spans": self.spans,
            "links": self.links,
            "waits": self.waits,
            "samples": self.samples,
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)


# -- analysis -------------------------------------------------------------


def _resolve(key, links, cache):
    """Follow links from *key* to an ``op:<n>`` key (None if none)."""
    if key is None:
        return None
    if key in cache:
        return cache[key]
    seen = [key]
    current = key
    while not current.startswith("op:") and current in links and len(seen) < 16:
        current = links[current]
        seen.append(current)
    result = current if current.startswith("op:") else None
    for k in seen:
        cache[k] = result
    return result


def _union_length(intervals):
    total, end = 0.0, None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def _window_delta(samples, t0, t1):
    """Counter deltas between the last sample at or before *t0* and the
    first at or after *t1* (nearest available otherwise)."""
    if not samples:
        return {}, 0
    before = [s for s in samples if s[0] <= t0] or samples[:1]
    after = [s for s in samples if s[0] >= t1] or samples[-1:]
    a, b = before[-1], after[0]
    counters = {k: b[1].get(k, 0) - a[1].get(k, 0) for k in b[1]}
    return counters, b[2] - a[2]


def analyse(dumps: list[dict], ops: list[tuple], t0: float, t1: float) -> dict:
    """Per-layer figures of one traced run.

    *ops* lists ``(op_id, kind, start, end)`` for every operation of
    the timed window ``[t0, t1]``.  Over the spans that start in the
    window it returns self seconds, span counts and summed extras per
    layer, self seconds tied to no op (``untagged``), crypto counter
    deltas, transport backpressure, replica ack waits, and per op its
    duration, wait, cross-process overlap and self seconds per layer.
    """
    links: dict[str, str] = {}
    # Client links first: they map request keys to op ids.
    for dump in sorted(dumps, key=lambda d: d["role"] != "client"):
        for k, v in dump["links"].items():
            links.setdefault(k, v)
    resolve_cache: dict = {}
    op_window = {f"op:{op_id}": (start, end) for op_id, _, start, end in ops}
    layers: dict[str, float] = {}
    counts: dict[str, int] = {}
    extra: dict[str, float] = {}
    per_op_self: dict[str, dict[str, float]] = {k: {} for k in op_window}
    per_op_cpu: dict[str, list] = {k: [] for k in op_window}
    untagged = 0.0
    counters: dict[str, int] = {}
    backpressure = 0
    waits = []
    for dump in dumps:
        spans = dump["spans"]
        children: list[list] = [[] for _ in spans]
        for i, span in enumerate(spans):
            if span[3] >= 0:
                children[span[3]].append(span)
        keys: list = [None] * len(spans)
        for i, (name, s, e, parent, key, value) in enumerate(spans):
            own = key if key is not None else (keys[parent] if parent >= 0 else None)
            keys[i] = own
            if not (t0 <= s <= t1):
                continue
            # Self time as intervals: the span minus its children.
            gaps, cursor = [], s
            for child in children[i]:
                if child[1] > cursor:
                    gaps.append((cursor, child[1]))
                cursor = max(cursor, child[2])
            if e > cursor:
                gaps.append((cursor, e))
            self_time = sum(b - a for a, b in gaps)
            layers[name] = layers.get(name, 0.0) + self_time
            counts[name] = counts.get(name, 0) + 1
            if value is not None:
                extra[name] = extra.get(name, 0.0) + value
            op = _resolve(own, links, resolve_cache)
            window = op_window.get(op)
            if window is None:
                untagged += self_time
                continue
            clipped = [
                (max(a, window[0]), min(b, window[1]))
                for a, b in gaps
                if b > window[0] and a < window[1]
            ]
            if clipped:
                bucket = per_op_self[op]
                bucket[name] = bucket.get(name, 0.0) + sum(b - a for a, b in clipped)
                per_op_cpu[op].extend(clipped)
        delta, bp = _window_delta(dump["samples"], t0, t1)
        for k, v in delta.items():
            counters[k] = counters.get(k, 0) + v
        backpressure += bp
        for s, e, key in dump["waits"]:
            if t0 <= s <= t1:
                waits.append(e - s)
    per_op = {}
    for op_id, kind, start, end in ops:
        key = f"op:{op_id}"
        cpu = per_op_cpu[key]
        covered = _union_length(cpu)
        per_op[key] = {
            "kind": kind,
            "duration": end - start,
            "wait": (end - start) - covered,
            # time two processes worked on this op at once
            "overlap": sum(b - a for a, b in cpu) - covered,
            "self": per_op_self[key],
        }
    return {
        "layers": layers,
        "counts": counts,
        "extra": extra,
        "untagged": untagged,
        "counters": counters,
        "backpressure": backpressure,
        "ack_waits": waits,
        "per_op": per_op,
    }


#: share of an op kind's ops, centred on the median, that the
#: reconciliation averages
BAND = 0.1


def median_band(per_op: dict, kind: str) -> dict:
    """The breakdown of the *kind* operations whose duration lies within
    ``BAND/2`` of the median rank: mean self ms per layer along the
    operation's own window, mean wait, their sum, the share of the
    layers that ran in parallel in two processes (``overlap_ms``), the
    median, and what remains of it: ``p50 - (layers + wait - overlap)``.
    """
    rows = sorted(
        (v for v in per_op.values() if v["kind"] == kind),
        key=lambda v: v["duration"],
    )
    if not rows:
        return {}
    n = len(rows)
    half = max(1, int(n * BAND / 2))
    mid = n // 2
    band = rows[max(0, mid - half): mid + half + 1]
    layers: dict[str, float] = {}
    for row in band:
        for name, value in row["self"].items():
            layers[name] = layers.get(name, 0.0) + value * 1000.0 / len(band)
    wait = sum(r["wait"] for r in band) * 1000.0 / len(band)
    overlap = sum(r["overlap"] for r in band) * 1000.0 / len(band)
    p50 = rows[mid]["duration"] * 1000.0
    total = sum(layers.values()) + wait
    return {
        "ops": len(band),
        "layers_ms": layers,
        "wait_ms": wait,
        "overlap_ms": overlap,
        "sum_ms": total,
        "p50_ms": p50,
        "remainder_ms": p50 - (total - overlap),
    }
