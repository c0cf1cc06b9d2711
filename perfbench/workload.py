"""Workloads, their seeded op streams, the fleet they run on, and the
closed-loop driver with its correctness gate.

Everything a workload sends is derived from the seed: read seqnos come
from ``random.Random(seed)`` and every payload byte from SHAKE-256 of
``(seed, stream, index)``.  The program under test sees only those
inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))

#: records pre-seeded into the read capsule (a skiplist capsule nothing
#: appends to during the run, so proof cost stays constant)
READ_RECORDS = 2048
READ_PAYLOAD = 64
MIX_PAYLOAD = 64
INGEST_RECORDS = 256
INGEST_PAYLOAD = 4096
#: verified reads after each append_stream call on durable_ingest
INGEST_READS = 4
FLEET_PROCESSES = 2
STORAGE_ENGINE = "segmented"
#: per-op client timeouts (seconds): a stuck op fails instead of
#: stalling the run past its deadline
OP_TIMEOUT = 10.0
STREAM_TIMEOUT = 30.0
#: the host's stolen time is read this often during a window; the
#: rates are medians over slices of this width
SLICE_SECONDS = 1.0


@dataclass(frozen=True)
class Workload:
    """One closed-loop traffic mix; why each exists is in README.md."""

    name: str
    #: "mix" alternates appends and reads through shared lanes;
    #: "ingest" runs one append_stream call, then INGEST_READS reads
    shape: str
    lanes: int
    acks: str
    fsync: bool

    @property
    def fsync_policy(self) -> str:
        # The fleet's SegmentedStore policy for --fsync on/off.
        return "batch:65536" if self.fsync else "drain"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("serial_mix", "mix", 1, "all", False),
        Workload("pipelined_mix", "mix", 8, "any", False),
        Workload("durable_ingest", "ingest", 1, "all", True),
    )
}


def payload(seed: int, stream: str, index: int, size: int) -> bytes:
    """The seeded payload bytes of record *index* of *stream*."""
    return hashlib.shake_256(f"{seed}:{stream}:{index}".encode()).digest(size)


def read_payload(seed: int, seqno: int) -> bytes:
    """What the read capsule holds at *seqno*."""
    return payload(seed, "read", seqno, READ_PAYLOAD)


class OpStream:
    """The seeded operation sequence of one workload.

    ``next(lane)`` returns ``(index, kind, arg)``: *arg* is the payload
    for ``append``, the list of payloads for ``stream``, and the seqno
    for ``read``.  On a mix every lane draws from one sequence that
    alternates append and read; on ingest the sequence is one stream
    followed by ``INGEST_READS`` reads, repeated.
    """

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self._rng = random.Random(seed)
        self._count = 0
        self._appends = 0

    def _read(self) -> tuple[str, int]:
        return "read", self._rng.randint(1, READ_RECORDS)

    def next(self, lane: int) -> tuple[int, str, object]:
        index = self._count
        self._count += 1
        if self.workload.shape == "ingest" and index % (INGEST_READS + 1):
            kind, arg = self._read()
        elif self.workload.shape == "ingest":
            first = self._appends * INGEST_RECORDS
            self._appends += 1
            kind, arg = "stream", [
                payload(self.seed, "ingest", first + i, INGEST_PAYLOAD)
                for i in range(INGEST_RECORDS)
            ]
        elif index % 2 == 0:
            kind, arg = "append", payload(self.seed, "mix", self._appends, MIX_PAYLOAD)
            self._appends += 1
        else:
            kind, arg = self._read()
        return index, kind, arg


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of process *pid* so far."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # fields[11], fields[12] are utime and stime (stat fields 14, 15).
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def host_ticks() -> tuple[int, int]:
    """``(busy, stolen)`` clock ticks of the whole machine so far.

    *stolen* is the time the hypervisor kept the machine's vCPUs from
    running while they had work (``steal`` in ``/proc/stat``); *busy*
    is the time they ran it (user, nice, system, irq, softirq).
    """
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    fields += [0] * (8 - len(fields))
    return fields[0] + fields[1] + fields[2] + fields[5] + fields[6], fields[7]


def stolen_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """The share of the time the vCPUs wanted to run between two
    :func:`host_ticks` readings that the hypervisor gave to others."""
    busy, stolen = after[0] - before[0], after[1] - before[1]
    return stolen / (busy + stolen) if busy + stolen > 0 else 0.0


def dir_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


class Fleet:
    """A 2-process fleet booted through this benchmark's own spawn
    entry (``node.py``), which optionally installs the span wrappers
    before calling :func:`repro.fleet.serve_process`."""

    def __init__(self, src: str, workdir: str, workload: Workload, *, traced: bool, seed: int):
        from repro.fleet import FleetSpec

        self.workdir = workdir
        self.traced = traced
        self.spec = FleetSpec(
            FLEET_PROCESSES,
            os.path.join(workdir, "rendezvous"),
            storage_root=os.path.join(workdir, "storage"),
            storage_engine=STORAGE_ENGINE,
            fsync=workload.fsync,
            seed=seed,
        )
        self._env = dict(os.environ, PYTHONPATH=src)
        self.children: list[subprocess.Popen] = []

    def trace_file(self, index: int) -> str:
        return os.path.join(self.workdir, f"spans-server{index}.json")

    def start(self) -> list[int]:
        # Stale port files from an earlier fleet would be dialled.
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.spec.rendezvous)
        for index in range(self.spec.processes):
            self.children.append(
                subprocess.Popen(
                    [
                        sys.executable,
                        os.path.join(HERE, "node.py"),
                        str(index),
                        json.dumps(self.spec.to_dict()),
                        self.trace_file(index) if self.traced else "",
                    ],
                    env=self._env,
                )
            )
        return self.spec.wait_ready(timeout=60.0)

    @property
    def pids(self) -> list[int]:
        return [child.pid for child in self.children]

    def stop(self) -> None:
        """SIGTERM every process (graceful drain) and wait for exit."""
        for child in self.children:
            if child.poll() is None:
                child.send_signal(signal.SIGTERM)
        for child in self.children:
            try:
                child.wait(timeout=30)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        self.children = []


class Session:
    """One booted fleet plus the connected client, both capsules placed
    and the read capsule seeded."""

    def __init__(self, fleet: Fleet, workload: Workload, seed: int, *, tracer=None):
        self.fleet = fleet
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.ctx = None

    def setup(self) -> None:
        from repro.client import GdpClient, OwnerConsole
        from repro.client.failover import FailoverPolicy
        from repro.crypto import SigningKey
        from repro.naming.names import GdpName
        from repro.runtime.context import AsyncioContext
        from repro.runtime.socketnet import SocketNetwork

        ports = self.fleet.start()
        spec = self.fleet.spec
        self.ctx = ctx = AsyncioContext()
        net = SocketNetwork(ctx, seed=self.seed)
        self.client = client = GdpClient(net, "bench_client")
        channel = ctx.loop.run_until_complete(client.transport.dial(spec.host, ports[0]))
        client.attach_channel(channel, GdpName(channel.remote_name_raw))
        owner_key = SigningKey.from_seed(b"perfbench-owner")
        writer_key = SigningKey.from_seed(b"perfbench-writer")
        console = OwnerConsole(client, owner_key)
        self.replicas = [spec.server_metadata(i) for i in range(spec.processes)]
        seeded = [read_payload(self.seed, s) for s in range(1, READ_RECORDS + 1)]

        def boot():
            yield client.advertise()
            read_meta = console.design_capsule(
                writer_key.public, pointer_strategy="skiplist", label="read"
            )
            write_meta = console.design_capsule(
                writer_key.public, pointer_strategy="chain", label="write"
            )
            for meta in (read_meta, write_meta):
                yield from console.place_capsule(meta, self.replicas)
            # The servers re-advertise the new names asynchronously:
            # poll every 10 ms until they route, rather than paying the
            # client's failover backoff (0.5 s and up) in setup_s.
            default_failover = client.failover
            client.failover = FailoverPolicy(attempts=500, backoff_base=0.01, backoff_max=0.01)
            for meta in (read_meta, write_meta):
                yield from client.fetch_metadata(meta.name)
            client.failover = default_failover
            seeder = client.open_writer(read_meta, writer_key, acks="all")
            receipt = yield from seeder.append_stream(seeded, timeout=60.0)
            if len(receipt.records) != READ_RECORDS:
                raise RuntimeError("read capsule seeding incomplete")
            return read_meta, client.open_writer(
                write_meta, writer_key, acks=self.workload.acks
            )

        read_meta, self.writer = ctx.run_process(boot(), "perfbench-setup")
        self.read_capsule = read_meta.name

    def close(self) -> None:
        if self.ctx is not None:
            self.client.transport.close()
            self.ctx.loop.run_until_complete(_drain_loop())
            self.ctx.loop.close()
            self.ctx = None
        self.fleet.stop()


async def _drain_loop():
    """Let the loop run the transport close callbacks."""
    import asyncio

    await asyncio.sleep(0.01)


@dataclass
class OpRecord:
    op_id: int
    kind: str
    start: float
    end: float
    ok: bool
    user_bytes: int = 0


def drive(session: Session, stream: OpStream, seconds: float) -> dict:
    """Run the closed loop for *seconds* of timed window; returns the
    op records, the window bounds, the failure reasons, the acked tail
    of the write capsule and ``host``: a :func:`host_ticks` reading
    ``(time, busy, stolen)`` every ``SLICE_SECONDS`` from the window's
    start to its end."""
    ctx = session.ctx
    client, writer, workload = session.client, session.writer, session.workload
    tracer = session.tracer
    records: list[OpRecord] = []
    failures: list[str] = []
    acked = {"seqno": 0, "payload": None}
    state = {"t0": 0.0, "deadline": 0.0}
    host: list[tuple[float, int, int]] = []

    def run_op(kind, arg):
        if kind == "read":
            result = yield from client.read(session.read_capsule, arg, timeout=OP_TIMEOUT)
            if result.record.payload != read_payload(session.seed, arg):
                raise ValueError(f"read {arg}: payload differs from the seeded bytes")
            return 0
        if kind == "append":
            receipt = yield from writer.append(arg, timeout=OP_TIMEOUT)
        else:
            receipt = yield from writer.append_stream(
                arg,
                batch_records=INGEST_RECORDS,
                batch_bytes=INGEST_RECORDS * INGEST_PAYLOAD,
                timeout=STREAM_TIMEOUT,
            )
        last = receipt.records[-1]
        if last.seqno > acked["seqno"]:
            acked["seqno"], acked["payload"] = last.seqno, last.payload
        return sum(len(r.payload) for r in receipt.records)

    def lane(number):
        while time.monotonic() < state["deadline"]:
            index, kind, arg = stream.next(number)
            start = time.monotonic()
            op = run_op(kind, arg)
            if tracer is not None:
                op = tracer.op_steps(op, f"op:{index}")
            try:
                user_bytes = yield from op
            except Exception as exc:  # noqa: BLE001 — a failed op is tallied, not fatal
                failures.append(f"{kind}: {type(exc).__name__}: {exc}")
                records.append(OpRecord(index, kind, start, time.monotonic(), False))
                continue
            records.append(OpRecord(index, kind, start, time.monotonic(), True, user_bytes))

    def sample_host():
        while time.monotonic() < state["deadline"]:
            yield SLICE_SECONDS
            host.append((time.monotonic(), *host_ticks()))

    def run():
        host.append((time.monotonic(), *host_ticks()))
        state["t0"] = host[0][0]
        state["deadline"] = state["t0"] + seconds
        sampler = ctx.spawn(sample_host(), "host-sampler")
        lanes = [ctx.spawn(lane(n), f"lane{n}") for n in range(workload.lanes)]
        for proc in lanes + [sampler]:
            yield proc.completion
        last = (time.monotonic(), *host_ticks())
        # A last slice much shorter than the others would be noisy:
        # fold it into the one before.
        if len(host) > 1 and last[0] - host[-1][0] < SLICE_SECONDS / 2:
            host[-1] = last
        else:
            host.append(last)

    pids = [os.getpid()] + session.fleet.pids
    cpu_before = [cpu_seconds(p) for p in pids]
    ctx.run_process(run(), "perfbench-drive")
    cpu = [cpu_seconds(p) - b for p, b in zip(pids, cpu_before)]
    return {
        "records": records,
        "failures": failures,
        "t0": state["t0"],
        "t1": state["deadline"],
        "acked": acked,
        "cpu_s": cpu,
        "host": host,
    }


def gate(session: Session, acked: dict) -> list[str]:
    """The end-of-run correctness checks; returns failure strings.

    Each replica, asked alone, must report the last acked seqno of the
    write capsule as its latest verified record, with the acked payload.
    Under ``acks="any"`` replication trails the ack, so the check
    polls briefly before it fails.
    """
    from repro.errors import GdpError

    if not acked["seqno"]:
        return ["no append was acked"]
    client = session.client
    capsule = session.writer.capsule_name
    problems: list[str] = []

    def latest(meta):
        deadline = time.monotonic() + 5.0
        while True:
            result = yield from client.read_latest_strict(capsule, [meta.name])
            seqno = result.record.seqno if result is not None else 0
            if seqno == acked["seqno"] or time.monotonic() > deadline:
                return result, seqno
            yield 0.1

    def check():
        for index, meta in enumerate(session.replicas):
            try:
                result, seqno = yield from latest(meta)
            except GdpError as exc:
                problems.append(f"fleet_s{index}: strict read failed: {exc}")
                continue
            if seqno != acked["seqno"]:
                problems.append(
                    f"fleet_s{index}: latest seqno {seqno}, "
                    f"last acked {acked['seqno']}"
                )
            elif result.record.payload != acked["payload"]:
                problems.append("latest record payload differs from the acked one")

    session.ctx.run_process(check(), "perfbench-gate")
    return problems
