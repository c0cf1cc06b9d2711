"""The fleet benchmark: one client process drives a 2-process GDP fleet
over loopback TCP in a closed loop and checks every answer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serial_mix --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes one
untraced and one traced run of the workload and prints the per-layer
breakdown, the tracing overhead and the reconciliation of the breakdown
against the median operation.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: untimed warm-up before the window: lets lazy per-process state (comb
#: tables, LRU memos, socket buffers) settle so the window is steady
WARMUP_SECONDS = 2.0
#: fleets booted per measurement; setup_s is their median
SETUPS = 3
#: reconciliation tolerance: |remainder| within this share of the p50
RECONCILE_TOLERANCE = 0.10


def tail(samples: list[float]) -> tuple[str, float, int]:
    """The highest of p99.9/p99/p90 with at least ten samples beyond it
    (p50 when there are too few): ``(label, value, count)``."""
    ordered = sorted(samples) or [0.0]
    n = len(samples)
    label, q = next(
        ((label, q) for label, q in (("p99.9", 0.999), ("p99", 0.99), ("p90", 0.90)) if n * (1 - q) >= 10),
        ("p50", 0.50),
    )
    return label, ordered[min(len(ordered) - 1, int(q * n))], n


def host_slices(host: list[tuple[float, int, int]]) -> list[tuple[float, float, float]]:
    """``(start, end, stolen share)`` of each slice between consecutive
    host readings of a window (see :func:`workload.drive`)."""
    from workload import stolen_share

    return [(a[0], b[0], stolen_share(a[1:], b[1:])) for a, b in zip(host, host[1:])]


def unstolen(slices, start: float, end: float) -> float:
    """The share of ``[start, end]`` the hypervisor left to this
    machine: one minus the stolen share of the slices it overlaps,
    weighted by the overlap."""
    covered = given = 0.0
    for lo, hi, stolen in slices:
        overlap = min(end, hi) - max(start, lo)
        if overlap > 0:
            covered += overlap
            given += overlap * (1.0 - stolen)
    return given / covered if covered > 0 else 1.0


def sliced_rate(ops: list[tuple[float, float, float]], slices) -> float:
    """Median over the window's slices of the rate at which *ops*
    ``(start, end, weight)`` complete, per second the hypervisor left
    to this machine.

    Each op's weight is credited to the slices its interval overlaps in
    proportion to the overlap, so a slice's rate is continuous and a
    stall (a full GC, a burst of stolen time) moves only the slices it
    falls in rather than the whole window's mean.
    """
    credit = [0.0] * len(slices)
    for start, end, weight in ops:
        span = max(end - start, 1e-9)
        for k, (lo, hi, _) in enumerate(slices):
            overlap = min(end, hi) - max(start, lo)
            if overlap > 0:
                credit[k] += weight * overlap / span
    return statistics.median(
        c / ((hi - lo) * max(1.0 - stolen, 1e-3)) for c, (lo, hi, stolen) in zip(credit, slices)
    )


def measure(workload, seed: int, seconds: float, workdir: str, *, traced: bool, setups: int) -> dict:
    """Boot *setups* fleets (keeping the last), drive the workload for
    *seconds*, gate the outputs, and return the figures."""
    from spans import Tracer
    from workload import Fleet, OpStream, Session, dir_bytes, drive, gate, host_ticks, stolen_share
    from workload import READ_RECORDS, READ_PAYLOAD

    from repro.crypto import cache

    tracer = None
    if traced:
        tracer = Tracer("client", set())
        tracer.install_client()
    setup_times, setup_stolen = [], []
    session = None
    try:
        for k in range(setups):
            cache.reset()
            fleet = Fleet(SRC, os.path.join(workdir, f"boot{k}"), workload, traced=traced, seed=seed)
            session = Session(fleet, workload, seed, tracer=tracer)
            ticks, start = host_ticks(), time.monotonic()
            session.setup()
            setup_times.append(time.monotonic() - start)
            setup_stolen.append(stolen_share(ticks, host_ticks()))
            if k < setups - 1:
                session.close()
                session = None
        if tracer is not None:
            tracer.own_prefixes.add(session.client.name.raw[:4].hex())
        stream = OpStream(workload, seed)
        warm = drive(session, stream, WARMUP_SECONDS)
        run = drive(session, stream, seconds)
        acked = run["acked"] if run["acked"]["seqno"] else warm["acked"]
        problems = gate(session, acked)
        storage = session.fleet.spec.storage_root
        fleet = session.fleet
        session.close()
        session = None
        stored = READ_RECORDS * READ_PAYLOAD + sum(
            r.user_bytes for r in warm["records"] + run["records"] if r.ok
        )
        disk_bytes = dir_bytes(storage)
    finally:
        if session is not None:
            session.close()
    dumps = []
    if tracer is not None:
        for index in range(fleet.spec.processes):
            with open(fleet.trace_file(index)) as fh:
                dumps.append(json.load(fh))
        dumps.append(tracer.to_dict())
    result = summarise(run, problems, setup_times, setup_stolen, stored, disk_bytes, dumps)
    result["attempted"] += len(warm["records"])
    result["failed"] += sum(1 for r in warm["records"] if not r.ok)
    result["failures"] = warm["failures"] + result["failures"]
    return result


def summarise(run, problems, setup_times, setup_stolen, stored, disk_bytes, dumps) -> dict:
    """The end-to-end metrics of a window, with the time the hypervisor
    stole taken out (see "Keeping runs steady" in README.md), plus the raw
    wall-clock figures and everything the report and the per-layer
    analysis need."""
    records = run["records"]
    ok = [r for r in records if r.ok]
    # Every op started before the deadline runs to completion; the
    # window closes when the last one ends.
    t0, t1 = run["t0"], max([run["t1"]] + [r.end for r in records])
    slices = host_slices(run["host"])
    latency: dict[str, list[float]] = {}
    wall: dict[str, list[float]] = {}
    for r in ok:
        kind = "append" if r.kind in ("append", "stream") else r.kind
        elapsed = (r.end - r.start) * 1000.0
        wall.setdefault(kind, []).append(elapsed)
        latency.setdefault(kind, []).append(elapsed * unstolen(slices, r.start, r.end))
    acked_bytes = sum(r.user_bytes for r in ok)
    metrics = {
        "setup_s": statistics.median(t * (1.0 - s) for t, s in zip(setup_times, setup_stolen)),
        "goodput_ops": sliced_rate([(r.start, r.end, 1.0) for r in ok], slices),
        "append_p50_ms": statistics.median(latency.get("append", [0.0])),
        "read_p50_ms": statistics.median(latency.get("read", [0.0])),
        "ingest_mb_s": sliced_rate([(r.start, r.end, r.user_bytes / 1e6) for r in ok], slices),
    }
    raw = {
        "setup_s": statistics.median(setup_times),
        "goodput_ops": len(ok) / (t1 - t0),
        "append_p50_ms": statistics.median(wall.get("append", [0.0])),
        "read_p50_ms": statistics.median(wall.get("read", [0.0])),
        "ingest_mb_s": acked_bytes / (t1 - t0) / 1e6,
    }
    return {
        "metrics": metrics,
        "raw": raw,
        "stolen": [s for _, _, s in slices],
        "setup_times": setup_times,
        "setup_stolen": setup_stolen,
        "latency": latency,
        "attempted": len(records),
        "failed": len(records) - len(ok) + len(problems),
        "failures": run["failures"],
        "problems": problems,
        "ok": ok,
        "acked_bytes": acked_bytes,
        "cpu_s": run["cpu_s"],
        "stored_bytes": stored,
        "disk_bytes": disk_bytes,
        "t0": t0,
        "t1": t1,
        "dumps": dumps,
    }


def per_layer(traced: dict, base: dict) -> tuple[dict, dict]:
    """The per-layer metrics of a traced run (process CPU from the
    untraced *base* run); returns ``(metrics, reconciliation)``."""
    from spans import analyse, median_band

    ops = [(r.op_id, "append" if r.kind != "read" else "read", r.start, r.end) for r in traced["ok"]]
    a = analyse(traced["dumps"], ops, traced["t0"], traced["t1"])
    n = max(1, len(ops))
    layers, counts, extra, counters = a["layers"], a["counts"], a["extra"], a["counters"]

    def ms(*names):
        return sum(layers.get(name, 0.0) for name in names) * 1000.0 / n

    def ratio(num, den):
        return num / den if den else 0.0

    verifies = counters.get("crypto.verify", 0) + counters.get("crypto.verify_cached", 0)
    digests = counters.get("crypto.encode", 0) + counters.get("crypto.encode_cached", 0)
    mb = traced["acked_bytes"] / 1e6
    base_ops = max(1, len(base["ok"]))
    m = {
        "capsule.mint_ms": ms("capsule.mint"),
        "capsule.proof_build_ms": ms("capsule.proof_build"),
        "capsule.proof_verify_ms": ms("capsule.proof_verify"),
        "capsule.proof_headers": ratio(extra.get("capsule.proof_build", 0), counts.get("capsule.proof_build", 0)),
        "crypto.signs_per_op": counters.get("crypto.sign", 0) / n,
        "crypto.verifies_per_op": verifies / n,
        "crypto.sign_ms": ms("crypto.sign"),
        "crypto.verify_ms": ms("crypto.verify"),
        "crypto.verify_memo_hit_ratio": ratio(counters.get("crypto.verify_cached", 0), verifies),
        "crypto.digest_memo_hit_ratio": ratio(counters.get("crypto.encode_cached", 0), digests),
        "encoding.encode_ms": ms("encoding.encode"),
        "encoding.decode_ms": ms("encoding.decode"),
        "encoding.wire_bytes_per_op": extra.get("encoding.encode", 0) / n,
        "transport.pdus_per_op": counts.get("transport.send", 0) / n,
        "transport.backpressure": a["backpressure"],
        "transport.wait_ms": statistics.fmean(v["wait"] for v in a["per_op"].values()) * 1000.0 if ops else 0.0,
        "routing.forward_ms": ms("routing.receive", "routing.forward"),
        "routing.pdus_forwarded_per_op": counts.get("routing.receive", 0) / n,
    }
    for op in ("append", "append_batch", "read", "replicate", "replicate_batch"):
        m[f"server.dispatch_ms.{op}"] = ms(f"server.dispatch.{op}")
    m.update(
        {
            "secure.sign_response_ms": ms("secure.sign_response"),
            "secure.verify_response_ms": ms("secure.verify_response"),
            "replication.ack_wait_ms": statistics.fmean(a["ack_waits"]) * 1000.0 if a["ack_waits"] else 0.0,
            "storage.append_entries_ms": ms("storage.append_entries"),
            "storage.fsync_ms": ms("storage.fsync"),
            "storage.fsyncs_per_mb": ratio(counts.get("storage.fsync", 0), mb),
            "storage.bytes_per_user_byte": ratio(traced["disk_bytes"], 2 * traced["stored_bytes"]),
            "storage.segments_sealed": counts.get("storage.seal", 0),
            "runtime.loop_ms": ms("runtime.loop", "client.op"),
            "trace.untagged_ms": a["untagged"] * 1000.0 / n,
        }
    )
    for role, cpu in zip(("client", "server0", "server1"), base["cpu_s"]):
        m[f"process.cpu_ms_per_op.{role}"] = cpu * 1000.0 / base_ops
    reconciliation = {}
    for kind in ("append", "read"):
        band = median_band(a["per_op"], kind)
        if not band:
            continue
        reconciliation[kind] = band
        m[f"trace.{kind}.p50_ms"] = band["p50_ms"]
        m[f"trace.{kind}.breakdown_ms"] = band["sum_ms"]
        m[f"trace.{kind}.overlap_ms"] = band["overlap_ms"]
        m[f"trace.{kind}.remainder_ms"] = band["remainder_ms"]
    for name, value in base["metrics"].items():
        traced_value = traced["metrics"][name]
        m[f"trace.overhead_pct.{name}"] = ratio(traced_value - value, value) * 100.0
    return m, reconciliation


def facts(workload, seed: int, seconds: float) -> dict:
    from workload import FLEET_PROCESSES, STORAGE_ENGINE

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "seed": seed,
        "seconds": seconds,
        "workload": workload.name,
        "fleet_processes": FLEET_PROCESSES,
        "storage_engine": STORAGE_ENGINE,
        "fsync_policy": workload.fsync_policy,
        "acks": workload.acks,
        "outstanding_ops": workload.lanes,
        "network": "loopback TCP",
    }


def report_run(label: str, result: dict, units: dict) -> None:
    print(
        f"[{label}] setup_s per boot (wall, stolen share): "
        + ", ".join(f"{t:.3f} {s:.0%}" for t, s in zip(result["setup_times"], result["setup_stolen"]))
    )
    stolen = sorted(result["stolen"])
    print(
        f"[{label}] stolen share of the window's 1 s slices: "
        f"median {statistics.median(stolen):.1%}, min {stolen[0]:.1%}, max {stolen[-1]:.1%}"
    )
    for name, value in result["metrics"].items():
        print(
            f"[{label}] {name:<14} {value:12.4f} {units[name]:<5} "
            f"(wall clock with stolen time: {result['raw'][name]:.4f})"
        )
    for kind, samples in sorted(result["latency"].items()):
        label_q, value, n = tail(samples)
        print(f"[{label}] {kind} {label_q} {value:.3f} ms over {n} samples")
    print(f"[{label}] ops_attempted {result['attempted']} ops_failed {result['failed']}")
    for role, cpu in zip(("client", "server0", "server1"), result["cpu_s"]):
        share = cpu / max(1e-9, result["t1"] - result["t0"]) * 100.0
        print(f"[{label}] process {role} cpu {cpu:.2f} s ({share:.0f}% of the window)")
    for line in (result["failures"][:5] + result["problems"])[:10]:
        print(f"[{label}] FAILED {line}")


#: Python's per-process string-hash randomization changes dict
#: collision patterns, and with them the speed of a whole run by up to
#: 15%; every benchmark process runs under this one fixed hash seed
HASH_SEED = "0"


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "repro", "fleet.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workload import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    # BENCHMARK.json names every metric and its unit.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print("facts: " + json.dumps(facts(workload, args.seed, args.seconds)))
    workroot = os.path.join(ROOT, ".perfbench_work", f"run-{os.getpid()}")
    try:
        if not args.trace:
            result = measure(workload, args.seed, args.seconds, os.path.join(workroot, "plain"), traced=False, setups=SETUPS)
            report_run("untraced", result, units)
            metrics = result["metrics"]
            attempted, failed = result["attempted"], result["failed"]
        else:
            base = measure(workload, args.seed, args.seconds, os.path.join(workroot, "plain"), traced=False, setups=SETUPS)
            report_run("untraced", base, units)
            traced = measure(workload, args.seed, args.seconds, os.path.join(workroot, "traced"), traced=True, setups=SETUPS)
            report_run("traced", traced, units)
            metrics, reconciliation = per_layer(traced, base)
            for name, value in metrics.items():
                print(f"[layers] {name:<36} {value:12.4f} {units[name]}")
            for kind, band in reconciliation.items():
                share = abs(band["remainder_ms"]) / band["p50_ms"] if band["p50_ms"] else 0.0
                verdict = "within" if share <= RECONCILE_TOLERANCE else "OUTSIDE"
                print(
                    f"[reconcile] {kind}: p50 {band['p50_ms']:.3f} ms = "
                    f"layers {band['sum_ms'] - band['wait_ms']:.3f} + wait {band['wait_ms']:.3f} "
                    f"- parallel overlap {band['overlap_ms']:.3f} "
                    f"+ remainder {band['remainder_ms']:.3f} ms "
                    f"({share:.1%}, {verdict} the {RECONCILE_TOLERANCE:.0%} tolerance; "
                    f"{band['ops']} ops around the median)"
                )
                for name, value in sorted(band["layers_ms"].items(), key=lambda kv: -kv[1]):
                    print(f"[reconcile]   {kind} {name:<28} {value:9.3f} ms")
            attempted = base["attempted"] + traced["attempted"]
            failed = base["failed"] + traced["failed"]
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        parent = os.path.dirname(workroot)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
