#!/usr/bin/env python3
"""The zombie pipeline's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

Workloads (``BENCHMARK.json`` says why each is there):

* ``replicate``  seeded replication periods of the paper's §3 study,
  simulate + Tables 1-4, a fixed set of worlds per seed, each period in
  a fresh interpreter;
* ``ingest``     a fresh ``ObservatoryIngest(...).finish()`` over a
  seeded multi-collector archive, in a fresh interpreter;
* ``query``      a skewed client mix against ``observatory serve`` on a
  seeded, compacted event store;
* ``query_live`` the same while the client appends to the store and
  follows ``/stream/events``.

The program receives only generated inputs.  ``--trace 0`` prints every
end-to-end metric, each measured on every workload:

* ``setup_s``     input generation (plus compaction, server start until
  ``/healthz`` answers and warm-up for the serving workloads), median
  of several set-ups;
* ``ops_per_s``   records simulated and detected per second over the
  run's fixed set of worlds (``replicate``), update records ingested per
  second of ``finish()`` (``ingest``), completed requests per second at
  saturation with ``nproc`` keep-alive connections (``query*``);
* ``peak_rss_mb`` peak RSS of the process under test.

``ops_per_s``, and ``setup_s`` of ``replicate`` and ``ingest``, are given
at the reference host's speed, sampled in the same run between the
measured operations (``common.HostSpeed``).  The raw values, the open-loop
latencies at the fixed rate (``query_p50_ms``, ``query_p99_ms``), the
closed-loop latencies, append-to-deliver latencies and the error rate
are in the report.
``--trace 1`` repeats the workload with spans around each layer and
prints every per-layer metric (0 where the workload does not exercise
the layer), in raw seconds.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
lines before it are the full report: provenance, the workload's own
metrics, per-check failures with their reasons.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import sys
from statistics import median
import time
from typing import Any

from common import (
    DEFAULT_SEED,
    HELD_OUT_SEED,
    HostSpeed,
    RUNS_DIR,
    ROOT,
    SIZES,
    import_repro,
    load_baseline,
    make_run_dir,
    provenance,
    run_worker,
    tree_sha256,
)

import_repro()

import gen  # noqa: E402
from stats import summary  # noqa: E402
from tracing import (  # noqa: E402
    attribute,
    check,
    count,
    durations,
    load_spans,
    tag_sum,
)

SPEC_PATH = ROOT / "BENCHMARK.json"


def _known_digest(workload: str, seed: int, index: int):
    table = load_baseline().get("digests", {}).get(workload, {})
    entries = table.get(str(seed))
    if entries is None:
        return None
    if isinstance(entries, list):
        return entries[index] if index < len(entries) else None
    return entries


# -- replicate -------------------------------------------------------------

def replicate(seed: int, seconds: int, run_dir, trace: bool) -> dict:
    sizes = SIZES["replicate"]
    worlds = sizes["worlds"]
    failures: list[str] = []
    attempted = 0
    periods, readies = [], []
    speed = HostSpeed()
    started = time.perf_counter()
    if trace:
        spans_path = run_dir / "spans.json"
        periods, ready = _overhead_pairs(
            speed, ["replicate", "--seed", str(seed)],
            ["--trace", str(spans_path)], sizes["overhead_pairs"])
        readies = [ready]
    else:
        # The same ``worlds`` worlds on every run of a seed, cycled
        # while time remains: a faster program repeats them, it does
        # not reach other ones.
        while len(periods) < worlds \
                or time.perf_counter() - started < seconds:
            speed.sample()
            result, ready = run_worker(["replicate", "--seed", str(seed),
                                        "--index", str(len(periods) % worlds)])
            periods.append(result)
            readies.append(ready)
        speed.sample()
    by_world: dict[int, list[dict]] = {}
    for index, period in enumerate(periods):
        world = 0 if trace else index % worlds
        by_world.setdefault(world, []).append(period)
        attempted += period["checks"]
        failures.extend(period["failures"])
        known = _known_digest("replicate", seed, world)
        if known is not None:
            attempted += 1
            if known != period["digest"]:
                failures.append(f"world {world}: detection digest "
                                f"{period['digest']} != recorded {known}")
    for world, runs in sorted(by_world.items()):
        if len(runs) > 1:
            attempted += 1
            if len({p["digest"] for p in runs}) != 1:
                failures.append(f"world {world}: detection results differ "
                                f"between runs")
    # Per world, the median period; the run's figures sum over worlds.
    walls = [median(p["wall_s"] for p in runs) for runs in by_world.values()]
    records = sum(runs[0]["records"] for runs in by_world.values())
    out: dict[str, Any] = {
        "attempted": attempted, "failed": len(failures),
        "failures": failures,
        "periods": [{k: p[k] for k in ("wall_s", "simulate_s", "tables_s",
                                       "records", "world_seed", "digest")}
                    for p in periods],
    }
    if not trace:
        scaled: dict[int, list[float]] = {}
        for index, wall in enumerate(speed.scaled(
                [p["wall_s"] for p in periods])):
            scaled.setdefault(index % worlds, []).append(wall)
        out["workload_metrics"] = {"replicate_s": statistics.fmean(walls)}
        out["metrics"] = _at_reference_speed(out, speed, {
            "setup_s": median(readies),
            "ops_per_s": records / sum(walls),
            "peak_rss_mb": max(p["rss_mb"] for p in periods),
        }, records / sum(median(v) for v in scaled.values()))
        return out
    spans = load_spans(spans_path)
    root = next(s for s in spans if s[2] == "run")
    run_s = sum(durations(spans, "simulator.run"))
    events = tag_sum(spans, "simulator.run")
    out["metrics"] = _layers(out, spans, root[3], root[4], {
        "trace.overhead_s": _overhead(speed, [p["wall_s"] for p in periods]),
        "simulator.events": events,
        "simulator.events_per_s": events / run_s if run_s else 0.0,
        "detector.calls": count(spans, "detector.detect"),
        "state.reconstructions": count(spans, "state.reconstruct"),
    })
    return out


# -- ingest ----------------------------------------------------------------

def ingest(seed: int, seconds: int, run_dir, trace: bool) -> dict:
    sizes = SIZES["ingest"]
    failures: list[str] = []
    gen_times, shas = [], []
    info = None
    root = None
    speed = HostSpeed()
    for index in range(1 if trace else sizes["setups"]):
        if root is not None:
            shutil.rmtree(root)
        root = run_dir / f"input-{index}"
        root.mkdir()
        speed.sample()
        started = time.perf_counter()
        info = gen.write_ingest_archive(root, seed)
        gen_times.append(time.perf_counter() - started)
        shas.append(tree_sha256(root))
    attempted = 1
    if len(set(shas)) != 1:
        failures.append("archive bytes differ between set-ups of one seed")

    runs, readies = [], []
    started = time.perf_counter()
    if trace:
        spans_path = run_dir / "spans.json"
        runs, ready = _overhead_pairs(
            speed, ["ingest", "--root", str(root)],
            ["--trace", str(spans_path)], sizes["overhead_pairs"])
        readies = [ready]
    else:
        while len(runs) < sizes["min_iterations"] \
                or time.perf_counter() - started < seconds:
            speed.sample()
            result, ready = run_worker(["ingest", "--root", str(root),
                                        "--label", str(len(runs))])
            runs.append(result)
            readies.append(ready)
        speed.sample()
    missing = 0
    for run in runs:
        attempted += run["checks"] + info["records"]
        failures.extend(run["failures"])
        missing += max(0, info["records"] - run["records"])
    attempted += 1
    if len({run["store_sha256"] for run in runs}) != 1:
        failures.append("store bytes differ between ingests of one archive")
    known = _known_digest("ingest", seed, 0)
    if known is not None:
        attempted += 1
        if known != runs[0]["store_sha256"][:16]:
            failures.append(f"store sha256 {runs[0]['store_sha256'][:16]} "
                            f"!= recorded {known}")
    finishes = [run["finish_s"] for run in runs]
    out: dict[str, Any] = {
        "attempted": attempted, "failed": len(failures) + missing,
        "failures": failures,
        "archive": {k: v for k, v in info.items() if k != "truth"},
        "truth": {k: len(v) for k, v in info["truth"].items()},
        "ingests": [{k: r[k] for k in ("finish_s", "records", "dumps",
                                       "events", "store_bytes")}
                    for r in runs],
        "workload_metrics": {
            "ingest_records_per_s": info["records"] / median(finishes)},
    }
    if not trace:
        out["metrics"] = _at_reference_speed(out, speed, {
            "setup_s": median(gen_times) + median(readies),
            "ops_per_s": info["records"] / median(finishes),
            "peak_rss_mb": max(r["rss_mb"] for r in runs),
        }, info["records"] / median(speed.scaled(finishes)))
        return out
    spans = load_spans(spans_path)
    root_span = next(s for s in spans if s[2] == "run")
    traced_run = runs[-1]
    total_events = sum(traced_run["events"].values())
    out["metrics"] = _layers(out, spans, root_span[3], root_span[4], {
        "trace.overhead_s": _overhead(speed, [r["finish_s"] for r in runs]),
        "ris.records": tag_sum(spans, "ris.decode"),
        "ris.bytes": info["update_bytes"] + info["rib_bytes"],
        "ris.dumps": tag_sum(spans, "ris.rib_decode"),
        "streaming.alerts": tag_sum(spans, "streaming.observe"),
        "resurrection.alerts": tag_sum(spans, "resurrection.observe"),
        "store.appends": count(spans, "store.append"),
        "store.bytes_per_event": traced_run["store_bytes"] / total_events,
        "checkpoint.count": count(spans, "checkpoint"),
        "checkpoint.bytes": tag_sum(spans, "checkpoint"),
    })
    return out


# -- query / query_live ----------------------------------------------------

def query(seed: int, seconds: int, run_dir, trace: bool,
          workload: str = "query") -> dict:
    import serve

    result = serve.run(workload, seed, seconds, run_dir, trace)
    live = workload == "query_live"
    if not trace:
        # Set-up is raw: no host-speed samples fall between its phases,
        # and ones from the measured window tracked it worse than none.
        result["metrics"] = {
            "setup_s": result["setup_s"],
            "ops_per_s": result["max_rps_at_reference"],
            "peak_rss_mb": result["rss_mb"],
        }
        result["workload_metrics"] = {
            "query_p50_ms": result["open"]["p50"],
            "query_p99_ms": result["open"]["tail"],
            "query_p99_percentile": result["open"]["tail_percentile"],
            "query_samples": result["open"]["count"],
            "query_max_rps": result["max_rps"],
        }
        if live:
            deliver = result["deliver_ms"]
            result["workload_metrics"].update({
                "append_to_deliver_p50_ms": deliver["p50"],
                "append_to_deliver_p99_ms": deliver["tail"],
                "append_to_deliver_percentile": deliver["tail_percentile"],
                "append_to_deliver_samples": deliver["count"]})
        return result
    all_spans = result.pop("spans")
    start, end = result.pop("window")
    spans = [s for s in all_spans if start <= s[3] <= end]
    counters = result.pop("counters")
    requests = result["requests"]
    respond = [s for s in spans if s[2] == "http.respond"]
    respond_ms = [1000.0 * (s[4] - s[3]) for s in respond]
    client_ms = result.pop("client_ms")
    extra = {
        "trace.overhead_s": result["traced_s"] - result["untraced_s"],
        "startup.import_s": result["startup_s"],
        "colseg.compact_s": result["compact_s"],
        "colseg.bytes_rewritten": result["colseg_bytes"],
        "views.refreshes": counters.get("observatory_view_refreshes_total", 0),
        "views.rebuilds": counters.get("observatory_view_rebuilds_total", 0),
        "views.events_folded": counters.get(
            "observatory_view_events_folded_total", 0),
        "http.cache_hit_ratio": counters.get(
            "observatory_http_response_cache_hits_total", 0) / requests,
        "http.not_modified_ratio": counters.get(
            "observatory_http_not_modified_total", 0) / requests,
        "http.transport_ms": (statistics.fmean(client_ms)
                              - statistics.fmean(respond_ms)),
        "stream.events_sent": counters.get(
            "observatory_stream_events_sent_total", 0),
        "stream.lagged": counters.get("observatory_stream_lagged_total", 0),
        "stream.resets": counters.get("observatory_stream_resets_total", 0),
        "load.late_p99_ms": result["late_ms"]["tail"] or 0.0,
        "writer.append_s": sum(s[4] - s[3]
                               for s in result.pop("writer_spans")),
    }
    # Each route's p50 and its share of the server's respond time: the
    # client mix is assumed (see SIZES["query"]["mix"]), so a later
    # change can tell which routes a result rests on.
    respond_total = sum(respond_ms)
    for route in ROUTES:
        values = [1000.0 * (s[4] - s[3]) for s in respond
                  if s[6] and s[6][0] == route]
        extra[f"http.respond_p50_ms.{route}"] = (
            summary(values)["p50"] if values else 0.0)
        extra[f"http.respond_share.{route}"] = (
            sum(values) / respond_total if respond_total else 0.0)
    result["metrics"] = _layers(result, all_spans, start, end, extra,
                                ignore=frozenset())
    return result


#: Server routes the traced run reports on (``traced_server.route_of``).
ROUTES = ("zombie", "zombies", "outbreaks", "resurrections", "forensics",
          "not_modified")


def _overhead_pairs(speed: HostSpeed, args: list[str],
                    traced_args: list[str], pairs: int
                    ) -> tuple[list[dict], float]:
    """Alternate ``pairs`` untraced and traced workers, host speed
    sampled around each; the last traced worker's spans stay.  Returns
    the results in order and that worker's set-up time."""
    results = []
    for _ in range(pairs):
        for extra in ([], traced_args):
            speed.sample()
            result, ready = run_worker(args + extra)
            results.append(result)
    speed.sample()
    return results, ready


def _overhead(speed: HostSpeed, seconds: list[float]) -> float:
    """Median over the pairs of traced minus untraced seconds of the
    same operation, each at the reference speed: one pair is too few on
    a noisy host to resolve the tracing cost."""
    scaled = speed.scaled(seconds)
    return median(traced - plain
                  for plain, traced in zip(scaled[::2], scaled[1::2]))


def _at_reference_speed(out: dict[str, Any], speed: HostSpeed,
                        raw: dict[str, float],
                        ops_per_s: float) -> dict[str, float]:
    """End-to-end metrics at the reference host's speed (see
    :class:`common.HostSpeed`): ``ops_per_s`` comes scaled per
    operation, set-up is scaled by the run's median factor.  The raw
    values stay in the report."""
    out["host"] = {"factor": speed.factor, "calibration_s": speed.samples,
                   "raw_metrics": raw}
    return {"setup_s": raw["setup_s"] / speed.factor,
            "ops_per_s": ops_per_s,
            "peak_rss_mb": raw["peak_rss_mb"]}


#: span name -> per-layer self-time metric
SELF_TIME = {
    "topology.build": "topology.build_s",
    "simulator.run": "simulator.run_s",
    "detector.detect": "detector.detect_s",
    "state.reconstruct": "state.reconstruct_s",
    "legacy.detect": "legacy.detect_s",
    "ris.decode": "ris.decode_s",
    "ris.rib_decode": "ris.rib_decode_s",
    "streaming.observe": "streaming.observe_s",
    "resurrection.observe": "resurrection.observe_s",
    "lifespan.observe": "lifespan.observe_s",
    "forensics.ring": "forensics.ring_s",
    "store.append": "store.append_s",
    "store.scan": "store.scan_s",
    "store.position": "store.position_s",
    "checkpoint": "checkpoint.s",
    "ingest": "ingest.self_s",
    "views.refresh": "views.refresh_s",
    "http.respond": "http.respond_s",
}


def _layers(out: dict[str, Any], spans: list, start: float, end: float,
            extra: dict[str, float],
            ignore: frozenset = frozenset({"run"})) -> dict[str, float]:
    """Per-layer metrics over the traced window ``[start, end]``: each
    layer's self time and the ``unattributed`` remainder, which sum to
    the window's wall time by construction.  What can fail is checked
    (:func:`tracing.check`): spans nest, siblings do not overlap, and the
    attributed time equals the time the raw spans cover."""
    shares = attribute(spans, start, end, ignore=ignore)
    problems = check(spans, start, end, shares, ignore)
    unknown = set(shares) - set(SELF_TIME) - {"unattributed"}
    if unknown:
        problems.append(f"spans without a layer metric: {sorted(unknown)}")
    out["attempted"] += 1
    if problems:
        out["failed"] += 1
        out["failures"].extend(f"trace: {p}" for p in problems)
    metrics = {SELF_TIME[name]: value for name, value in shares.items()
               if name in SELF_TIME}
    metrics["unattributed_s"] = shares["unattributed"]
    metrics["trace.wall_s"] = end - start
    metrics.update(extra)
    return metrics


WORKLOADS = {
    "replicate": replicate,
    "ingest": ingest,
    "query": query,
    "query_live": lambda seed, seconds, run_dir, trace: query(
        seed, seconds, run_dir, trace, "query_live"),
}


def selfcheck() -> int:
    """Same seed -> same archive and store bytes; different seeds ->
    different bytes."""
    problems = []
    run_dir = make_run_dir("selfcheck", 0)
    try:
        digests: dict[tuple[str, int], set] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for attempt in range(2):
                root = run_dir / f"archive-{seed}-{attempt}"
                root.mkdir()
                gen.write_ingest_archive(root, seed)
                digests.setdefault(("archive", seed), set()).add(
                    tree_sha256(root))
                store = run_dir / f"store-{seed}-{attempt}"
                gen.write_query_store(store, seed)
                digests.setdefault(("store", seed), set()).add(
                    tree_sha256(store))
        for kind in ("archive", "store"):
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                if len(digests[(kind, seed)]) != 1:
                    problems.append(f"{kind} bytes differ for seed {seed}")
            if digests[(kind, DEFAULT_SEED)] == digests[(kind, HELD_OUT_SEED)]:
                problems.append(f"{kind} bytes equal across seeds")
        for (kind, seed), values in sorted(digests.items()):
            print(f"{kind} seed={seed}: {sorted(values)}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in problems:
        print(f"FAIL: {problem}")
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        parser.error("--workload is required")
    # A terminated run still stops the servers and workers it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    spec = json.loads(SPEC_PATH.read_text())
    seconds = args.seconds or spec["run_seconds"]
    trace = bool(args.trace)
    run_dir = make_run_dir(args.workload, args.seed)
    try:
        result = WORKLOADS[args.workload](args.seed, seconds, run_dir, trace)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUNS_DIR.rmdir()
        except OSError:
            pass  # another run is using it
    listed = spec["per_layer" if trace else "end_to_end"]
    unlisted = set(result["metrics"]) - {entry["name"] for entry in listed}
    if unlisted:
        raise SystemExit(f"perfbench: metrics missing from BENCHMARK.json: "
                         f"{sorted(unlisted)}")
    metrics = {}
    for entry in listed:
        # A layer the workload does not exercise reads 0; every
        # end-to-end metric is measured on every workload.
        value = (result["metrics"].get(entry["name"], 0.0) if trace
                 else result["metrics"][entry["name"]])
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    report = {"provenance": provenance(args.workload, args.seed, seconds,
                                       trace)}
    report.update({k: v for k, v in result.items() if k != "metrics"})
    report["error_rate"] = result["failed"] / result["attempted"]
    print(json.dumps(report, sort_keys=True, default=str))
    for problem in result["failures"]:
        print(f"FAILED CHECK: {problem}")
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    failed = int(result["failed"])
    print(json.dumps({"correct": failed == 0 and not result["failures"],
                      "attempted": int(result["attempted"]),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
