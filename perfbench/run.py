"""The Hydro-stack benchmark: one command, four workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload kvs-write --seed 1 --seconds 10 --trace 0

Each run starts worker processes one after the other, each running the
same seeded workload in one process with no threads:

* ``--trace 0``: ``WORKERS`` untraced workers, alternating
  ``PYTHONHASHSEED=1`` and ``PYTHONHASHSEED=31337`` (the two hash seeds CI
  pins).  Every simulated-time metric and every count must come out
  identical in all of them, or the run fails.  Host time is CPU time
  scaled to a reference speed by a calibration kernel timed around every
  work unit (``perfbench/hostclock.py``): a shared host's speed drifts by
  tens of percent over seconds as other tenants come and go, and the
  kernel drifts with it.  The workers execute identical work units, so
  each unit's host time is the median of its executions.  The last stdout
  line is the end-to-end JSON result.
* ``--trace 1``: one untraced reference worker, then one that installs
  span wrappers (``perfbench/trace.py``) around every layer's public entry
  points.  Tracing must not change a single simulated statistic either.
  The last stdout line holds the per-layer metrics, with the tracing
  overhead as traced ÷ untraced throughput.

The work per worker is fixed by ``--seed`` and ``--seconds`` alone (see
``UNITS_PER_SECOND``), so simulated results repeat exactly; only host
times vary.  The full result, tagged with the commit, ``nproc`` and the
Python version, goes to ``.bench_results/`` (untracked), and for a traced
run the spans go beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.hostclock import scaled  # noqa: E402

RESULTS_DIR = ROOT / ".bench_results"
HASH_SEEDS = ("1", "31337")
#: Untraced workers per ``--trace 0`` run: both hash seeds, and one of them
#: twice, so the determinism guard also compares a repeat; three give each
#: work unit a true median.
WORKERS = 3
#: A run stops its workers rather than take longer than this.
RUN_DEADLINE_S = 170

#: Work units per ``--seconds``: on a 2-core x86-64 container with CPython
#: 3.11 one worker's timed window takes about ``--seconds`` / 2 of CPU time
#: (twice that for pact-covid, whose p90 needs its ~130 gossip-interval
#: slices to leave ten samples beyond it).  Units are client operations
#: (kvs-*), requests (pact-covid) or scenario seeds (chaos-geo).
UNITS_PER_SECOND = {
    "kvs-write": 1000,
    "kvs-read": 1600,
    "chaos-geo": 20,
    "pact-covid": 65,
}

#: Simulated-time metrics: (name, sample kind, percentile).
TICK_METRICS = [
    ("put_p50_ticks", "put", 50), ("put_p99_ticks", "put", 99),
    ("get_p50_ticks", "get", 50), ("get_p99_ticks", "get", 99),
    ("req_p50_ticks", "req", 50), ("req_p90_ticks", "req", 90),
    ("delivery_p99_ticks", "delivery", 99),
]

#: Mailboxes whose dispatch self time is reported on its own; any other
#: mailbox is summed into ``dispatch.other.self_s``.
MAILBOXES = ("put", "put_ack", "get", "get_reply", "replicate", "gossip",
             "gossip_ack", "ae_probe", "ae_probe_reply", "ae_pull", "invoke", "reply",
             "accept", "accept_ack", "decide", "causal")

CHECKERS = ("convergence", "session_guarantees", "calm_coordination_free",
            "gossip_byte_budget", "link_byte_conservation", "bounded_staleness",
            "fault_localization", "cart_integrity", "causal", "paxos_safety",
            "linearizable")


# -- worker ---------------------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, run) -> dict[str, float]:
    """Per-layer metrics of one traced run (see BENCHMARK.json ``per_layer``)."""
    counts = run.counts
    count = counts.get
    dispatch = tracer.self_by_prefix("dispatch.")
    metrics = {
        "simulator.events": count("simulator.events", 0),
        "simulator.self_s": tracer.self_of("simulator"),
        "simulator.peak_pending": tracer.peak_pending,
        "network.send_calls": tracer.calls_of("network.send"),
        "network.send_self_s": tracer.self_of("network.send"),
        "network.envelopes": count("network.envelopes", 0),
        "network.bytes": count("network.bytes", 0),
        "network.dropped": count("network.dropped", 0),
        "network.queue_wait_ticks": count("transport.queue_wait_ticks", 0),
        "network.nic_wait_ticks": count("transport.nic_wait_ticks", 0),
        "network.serialization_ticks": count("transport.serialization_ticks", 0),
        "transport.logical_messages": count("transport.logical_messages_sent", 0),
        "transport.batching_ratio": _ratio(count("transport.logical_messages_sent", 0),
                                           count("transport.envelopes_sent", 0)),
        "transport.header_bytes_saved": count("transport.header_bytes_saved", 0),
        "transport.rpc_requests": count("transport.rpc_requests", 0),
        "transport.rpc_retries": count("transport.rpc_retries", 0),
        "transport.rpc_timeouts": count("transport.rpc_timeouts", 0),
        "transport.self_s": tracer.self_of("transport"),
    }
    for mailbox in MAILBOXES:
        metrics[f"dispatch.{mailbox}.self_s"] = dispatch.pop(f"dispatch.{mailbox}", 0.0)
    metrics["dispatch.other.self_s"] = sum(dispatch.values())
    dirty = count("kvs.gossip.dirty_marks", 0)
    shard_for = tracer.calls_of("ring.shard_for")
    node_for = tracer.calls_of("ring.node_for")
    metrics.update({
        "metrics.self_s": tracer.self_of("metrics"),
        "metrics.latency_samples": count("metrics.latency_samples", 0),
        "kvs.dirty_marks": dirty,
        "kvs.fresh_entries": count("kvs.gossip.fresh_entries", 0),
        "kvs.retransmit_entries": count("kvs.gossip.retransmit_entries", 0),
        "kvs.full_rounds": count("kvs.gossip.full_rounds", 0),
        "kvs.delta_ship_ratio": _ratio(count("kvs.gossip.fresh_entries", 0), dirty),
        "antientropy.tree_updates": tracer.calls_of("antientropy.update"),
        "antientropy.update_self_s": tracer.self_of("antientropy.update"),
        "antientropy.rounds": count("kvs.antientropy.rounds", 0),
        "antientropy.converged_ratio": count("antientropy.converged_ratio", 0),
        "antientropy.repair_entries": count("kvs.antientropy.repair_entries", 0),
        "ring.node_for_calls": node_for,
        "ring.route_hit_ratio": 1.0 - node_for / shard_for if shard_for else 0.0,
        "ring.self_s": tracer.self_of("ring.node_for") + tracer.self_of("ring.shard_for"),
        "client.self_s": (tracer.self_of("client") + metrics["dispatch.get_reply.self_s"]
                          + metrics["dispatch.put_ack.self_s"]),
        "lattices.merge_calls": tracer.calls_of("lattices.merge"),
        "lattices.self_s": tracer.self_of("lattices.merge") + tracer.self_of("lattices.leq"),
        "core.run_tick_calls": tracer.calls_of("core.run_tick"),
        "core.run_tick_self_s": tracer.self_of("core.run_tick"),
        "core.snapshot_calls": tracer.calls_of("core.snapshot"),
        "core.snapshot_self_s": tracer.self_of("core.snapshot"),
        "availability.push_gossip_calls": tracer.calls_of("availability.push_gossip"),
        "availability.push_gossip_self_s": tracer.self_of("availability.push_gossip"),
        "availability.proxy_retries": count("availability.proxy_retries", 0),
        "paxos.proposals": tracer.calls_of("paxos.propose"),
        "nemesis.faults_applied": count("nemesis.faults_applied", 0),
        "nemesis.self_s": tracer.self_of("nemesis"),
        "checkers.self_s": sum(tracer.self_by_prefix("checkers.").values()),
    })
    for checker in CHECKERS:
        metrics[f"checkers.{checker}_s"] = tracer.total_of(f"checkers.{checker}")
    metrics.update({
        "diagnosis.self_s": tracer.self_of("diagnosis") + tracer.self_of("diagnosis.window"),
        "diagnosis.window_calls": tracer.calls_of("diagnosis.window"),
        "tracing.spans": tracer.span_count,
    })
    return metrics


def worker(args: argparse.Namespace) -> int:
    """Run one workload in this process and print its raw result as JSON."""
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.workloads import WORKLOADS, Probe

    probe = Probe()
    tracer = None
    if args.worker == "traced":
        from perfbench.trace import install

        tracer = probe = install(per_event_ids=args.workload != "chaos-geo")
    units = max(1, round(args.seconds * UNITS_PER_SECOND[args.workload]))
    run = WORKLOADS[args.workload](args.seed, units, probe)

    det: dict[str, float] = {"attempted": run.attempted, "completed": run.completed,
                             "failed": run.failed,
                             "wire_bytes_per_op": _ratio(run.wire_bytes, run.attempted)}
    samples: dict[str, int] = {}
    for name, kind, q in TICK_METRICS:
        values = run.ticks.get(kind, [])
        samples[name] = len(values)
        if values:
            det[name] = percentile(values, q)
        else:
            run.violations.append(f"no {kind} samples for {name}")
    det.update({f"count.{name}": value for name, value in sorted(run.counts.items())})
    result = {
        "setup_s": run.setup_s, "setup_cal_s": run.setup_cal_s, "unit_s": run.unit_s,
        "unit_cal_s": run.unit_cal_s, "reference_s": run.reference_s,
        "window_s": run.window_s,
        "units": units, "det": det,
        "samples": samples, "violations": run.violations, "notes": run.notes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, run)
        spans = RESULTS_DIR / f"spans-{args.workload}-seed{args.seed}"
        RESULTS_DIR.mkdir(exist_ok=True)
        tracer.write(spans)
        result["spans"] = str(spans.relative_to(ROOT)) + ".{json,bin}"
    print(json.dumps(result))
    return 0


# -- run ------------------------------------------------------------------------------


def start_worker(args: argparse.Namespace, mode: str, hash_seed: str,
                 deadline: float) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--worker", mode]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    try:
        completed = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                                   text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{mode} worker (PYTHONHASHSEED={hash_seed}) did not finish "
                         f"within the run's {RUN_DEADLINE_S} s") from None
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{mode} worker (PYTHONHASHSEED={hash_seed}) failed "
                         f"with exit code {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100), interpolated between closest ranks."""
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def throughput(raw: dict) -> float:
    """Completed units per wall-clock second of the timed window (traced runs)."""
    return raw["det"]["completed"] / raw["window_s"]


def commit_id() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(raws: list[dict]) -> tuple[dict, dict]:
    """End-to-end metric values and their sample counts.

    Host times are at reference speed (``hostclock.scaled``).  Each work
    unit's host time is the median of its executions across the workers;
    set-up samples are pooled and their median taken.
    """
    det = raws[0]["det"]
    unit_ms = [percentile(times, 50) * 1e3 for times in
               zip(*(scaled(raw["unit_s"], raw["unit_cal_s"], raw["reference_s"])
                     for raw in raws))]
    setup = [sample for raw in raws
             for sample in scaled(raw["setup_s"], raw["setup_cal_s"], raw["reference_s"])]
    values = {
        "setup_s": percentile(setup, 50),
        "ops_per_s": det["completed"] / (sum(unit_ms) / 1e3),
        "unit_ms_p50": percentile(unit_ms, 50),
        "unit_ms_p90": percentile(unit_ms, 90),
        "wire_bytes_per_op": det["wire_bytes_per_op"],
        "peak_rss_mb": max(raw["peak_rss_mb"] for raw in raws),
    }
    values.update({name: det[name] for name, _, _ in TICK_METRICS})
    counts = {"setup_s": len(setup), "ops_per_s": det["completed"],
              "unit_ms_p50": len(unit_ms), "unit_ms_p90": len(unit_ms),
              "wire_bytes_per_op": det["attempted"], "peak_rss_mb": len(raws)}
    counts.update(raws[0]["samples"])
    return values, counts


def load_units(section: str) -> dict[str, str]:
    """Metric name -> unit, in declaration order, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(UNITS_PER_SECOND))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", choices=("untraced", "traced"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker(args)

    if args.trace:
        plan = [("untraced", HASH_SEEDS[0]), ("traced", HASH_SEEDS[1])]
    else:
        plan = [("untraced", HASH_SEEDS[index % 2]) for index in range(WORKERS)]
    deadline = time.monotonic() + RUN_DEADLINE_S
    raws = [start_worker(args, mode, hash_seed, deadline) for mode, hash_seed in plan]

    problems = [f"worker {index}: {violation}"
                for index, raw in enumerate(raws) for violation in raw["violations"]]
    reference = raws[0]["det"]
    for (mode, hash_seed), raw in zip(plan[1:], raws[1:]):
        for name in sorted(set(reference) | set(raw["det"])):
            if reference.get(name) != raw["det"].get(name):
                problems.append(
                    f"determinism: {name} is {reference.get(name)!r} in the first worker "
                    f"(PYTHONHASHSEED={plan[0][1]}) but {raw['det'].get(name)!r} in a "
                    f"{mode} worker (PYTHONHASHSEED={hash_seed})")
    correct = not problems

    if args.trace:
        layers = dict(raws[1]["layers"])
        layers["simulator.us_per_event"] = (raws[0]["window_s"] * 1e6
                                            / reference["count.simulator.events"])
        layers["compiler.compile_s"] = raws[0]["notes"].get("compile_s", 0.0)
        layers["compiler.deploy_s"] = raws[0]["notes"].get("deploy_s", 0.0)
        layers["tracing.overhead_ratio"] = throughput(raws[1]) / throughput(raws[0])
        units = load_units("per_layer")
        metrics = {name: {"value": layers[name], "unit": units[name]} for name in units}
        traced_s = raws[1]["window_s"]
        print(f"{args.workload} seed {args.seed}: traced window {traced_s:.3f} s, "
              f"{layers['tracing.spans']} spans in {raws[1]['spans']}; tracing "
              f"overhead: traced/untraced throughput = {layers['tracing.overhead_ratio']:.3f}")
        shares = sorted(((value / traced_s, name) for name, value in layers.items()
                         if name.endswith("self_s") and value), reverse=True)
        for share, name in shares:
            print(f"  {name:34s} {layers[name]:10.4f} s  {share:6.1%} of traced window")
    else:
        values, counts = end_to_end(raws)
        units = load_units("end_to_end")
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        print(f"{args.workload} seed {args.seed}: {raws[0]['units']} units per worker, "
              f"{len(raws)} workers (PYTHONHASHSEED alternating {' and '.join(HASH_SEEDS)}); "
              f"host times are CPU time at reference speed, median over the workers")
        for name in units:
            print(f"  {name:20s} {values[name]:14.4f} {units[name]:6s} n={counts[name]}")
    attempted, failed = reference["attempted"], reference["failed"]
    print(f"  failed_frac {_ratio(failed, attempted):.4f} ({failed} of {attempted} failed)")
    for note, value in raws[0]["notes"].items():
        print(f"  {note}: {value}")
    for problem in problems:
        print(f"  INCORRECT: {problem}")

    RESULTS_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit_id(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "finished_at": time.time(),
        "correct": correct, "problems": problems, "attempted": attempted,
        "failed": failed, "metrics": metrics, "notes": raws[0]["notes"],
        "workers": [{key: raw[key] for key in ("units", "window_s", "peak_rss_mb",
                                               "setup_s", "setup_cal_s", "unit_s",
                                               "unit_cal_s", "reference_s", "samples",
                                               "det")}
                    for raw in raws],
    }
    path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
