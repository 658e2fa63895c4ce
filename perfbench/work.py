"""One measured operation in a fresh interpreter.

``python3 perfbench/work.py replicate --seed S --index I [--trace F]``
runs one replication period (simulate + Tables 1-4).
``python3 perfbench/work.py ingest --root R [--trace F]`` runs one fresh
``ObservatoryIngest(...).finish()`` over the archive under ``R``.

The worker prints ``ready`` once its imports are done (the parent times
spawn-to-ready as set-up), then one JSON line with its timings, peak
RSS and correctness findings.  With ``--trace`` it records spans around
the layer objects and writes them to ``F``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import time
from dataclasses import replace
from pathlib import Path

from common import SIZES, import_repro, rss_mb_from_proc

import_repro()

from tracing import Tracer  # noqa: E402

from repro.utils.timeutil import HOUR  # noqa: E402


def _peak_rss_mb() -> float:
    return rss_mb_from_proc(os.getpid())


def sub_seed(seed: int, index: int) -> int:
    """The seed of world ``index`` of a run with ``seed``."""
    digest = hashlib.sha256(f"replicate:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _result_digest(results) -> str:
    """sha256 over every detection result, in call order."""
    digest = hashlib.sha256()
    for label, result in results:
        digest.update(label.encode())
        digest.update(str(result.visible_count).encode())
        for outbreak in sorted(result.outbreaks,
                               key=lambda o: (str(o.prefix),
                                              o.interval.announce_time)):
            routes = sorted(f"{r.peer[0]}|{r.peer[1]}|{int(r.stale)}"
                            for r in outbreak.routes)
            digest.update(f"{outbreak.prefix}@{outbreak.interval.announce_time}"
                          f":{','.join(routes)};".encode())
    return digest.hexdigest()[:16]


def replicate(args) -> dict:
    from repro.core import LegacyDetector, ZombieDetector
    from repro.experiments import (
        REPLICATION_PERIODS,
        build_table1,
        build_table2,
        build_table3,
        build_table4,
        run_replication,
    )
    from repro.experiments.replication import ReplicationRun
    import repro.core.detector as detector_module
    import repro.experiments.replication as replication_module
    from repro.simulator import BGPWorld
    print("ready", flush=True)

    sizes = SIZES["replicate"]
    world_seed = sub_seed(args.seed, args.index)
    base = REPLICATION_PERIODS[sizes["period"]]
    config = replace(base, seed=world_seed,
                     end=base.start + sizes["hours"] * HOUR)

    # Keep every detection result for the digest (hashed after timing).
    results = []
    detect, detect_legacy = ReplicationRun.detect, ReplicationRun.detect_legacy

    def keep_detect(run, *a, **k):
        result = detect(run, *a, **k)
        results.append((f"detect{a}{sorted(k.items())}", result))
        return result

    def keep_legacy(run, *a, **k):
        result = detect_legacy(run, *a, **k)
        results.append(("legacy", result))
        return result

    ReplicationRun.detect = keep_detect
    ReplicationRun.detect_legacy = keep_legacy

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.patch(replication_module, "build_internet", "topology.build")
        tracer.patch(BGPWorld, "run_until", "simulator.run",
                     tag=lambda a, r: r)
        tracer.patch(ZombieDetector, "detect", "detector.detect")
        tracer.patch(LegacyDetector, "detect", "legacy.detect")
        tracer.patch(detector_module, "StateReconstructor",
                     "state.reconstruct")

    started = time.perf_counter()
    if tracer is not None:
        with tracer.root():
            run = run_replication(config)
            simulated = time.perf_counter()
            tables = (build_table1([run]), build_table2([run]),
                      build_table3([run]), build_table4(run))
    else:
        run = run_replication(config)
        simulated = time.perf_counter()
        tables = (build_table1([run]), build_table2([run]),
                  build_table3([run]), build_table4(run))
    finished = time.perf_counter()

    # Invariants that hold by construction.  (Legacy >= revised is the
    # paper's finding, not an invariant: the legacy pipeline's modelled
    # looking-glass misses can put it below on a short period.)
    checks = []
    (t1,), (t2,), t3, t4 = tables
    for family in ("v4", "v6"):
        checks.append((getattr(t1, f"without_dc_{family}")
                       <= getattr(t1, f"with_dc_{family}"),
                       f"table1 {family}: dedup count above no-dedup"))
        checks.append((getattr(t4, f"without_dc_mean_{family}")
                       <= getattr(t4, f"with_dc_mean_{family}") + 1e-12,
                       f"table4 {family}: dedup likelihood above no-dedup"))
        checks.append(((getattr(t2, f"with_dc_{family}"),
                        getattr(t2, f"without_dc_{family}"))
                       == (getattr(t1, f"with_dc_{family}"),
                           getattr(t1, f"without_dc_{family}")),
                       f"tables 1 and 2 disagree on {family} counts"))
    checks.append((len(results) == 9,
                   f"expected 9 detection calls, saw {len(results)}"))
    failures = [reason for ok, reason in checks if not ok]
    if tracer is not None:
        tracer.dump(Path(args.trace))
    return {"wall_s": finished - started, "simulate_s": simulated - started,
            "tables_s": finished - simulated, "records": len(run.records),
            "world_seed": world_seed, "digest": _result_digest(results),
            "checks": len(checks), "failures": failures,
            "rss_mb": _peak_rss_mb()}


def ingest(args) -> dict:
    from repro.observatory import EventStore, ObservatoryIngest, load_scenario
    from repro.ris import Archive
    print("ready", flush=True)

    root = Path(args.root)
    archive_root = root / "archive"
    truth = json.loads((root / "truth.json").read_text())
    scenario = load_scenario(archive_root / "scenario.json")
    store_root = root / f"store-{args.label}"
    if store_root.exists():
        shutil.rmtree(store_root)
    tracer = Tracer() if args.trace else None

    def build():
        # What ``observatory ingest`` builds with its default settings.
        store = EventStore(store_root)
        ingest = ObservatoryIngest(
            Archive(archive_root), store, store_root / "checkpoint.json",
            scenario["intervals"], scenario["start"], scenario["end"],
            threshold=scenario["threshold"], quiet=scenario["quiet"],
            excluded_peers=scenario["excluded_peers"],
            checkpoint_every=SIZES["ingest"]["checkpoint_every"])
        return store, ingest

    if tracer is None:
        store, engine = build()
        started = time.perf_counter()
        engine.finish()
        finished = time.perf_counter()
        store.close()
    else:
        with tracer.root():
            store, engine = build()
            checkpoint_path = engine.checkpoint_path
            tracer.patch(engine.archive, "iter_updates", "ris.decode",
                         iterator=True)
            tracer.patch(engine.archive, "iter_ribs", "ris.rib_decode",
                         iterator=True)
            tracer.patch(engine.detector, "observe", "streaming.observe")
            tracer.patch(engine.detector, "advance", "streaming.observe",
                         tag=lambda a, r: len(r))
            tracer.patch(engine.monitor, "observe", "resurrection.observe",
                         tag=lambda a, r: int(r is not None))
            tracer.patch(engine.session, "observe", "lifespan.observe")
            tracer.patch(engine.session, "finalize", "lifespan.observe")
            tracer.patch(engine.ring, "observe", "forensics.ring")
            tracer.patch(store, "append", "store.append")
            tracer.patch(engine, "checkpoint", "checkpoint",
                         tag=lambda a, r: checkpoint_path.stat().st_size)
            tracer.patch(engine, "finish", "ingest")
            started = time.perf_counter()
            engine.finish()
            finished = time.perf_counter()
            store.close()
        tracer.dump(Path(args.trace))

    events: dict[str, list] = {}
    for event in EventStore(store_root, readonly=True).events():
        events.setdefault(event["kind"], []).append(event)
    outbreaks = {(e["prefix"], e["collector"], e["peer_address"])
                 for e in events.get("outbreak", ())}
    resurrections = {(e["prefix"], e["collector"], e["peer_address"])
                     for e in events.get("resurrection", ())}
    rib = {e["prefix"] for e in events.get("lifespan", ()) if e["resurrection"]}
    failures = []
    expected = truth["truth"]
    for name, seen, want in (
            ("outbreaks", outbreaks, {tuple(t) for t in expected["outbreaks"]}),
            ("resurrections", resurrections,
             {tuple(t) for t in expected["resurrections"]}),
            ("rib resurrections", rib, set(expected["rib_resurrections"]))):
        if seen != want:
            failures.append(f"{name}: {len(want - seen)} scripted missing, "
                            f"{len(seen - want)} unscripted reported")
    if engine.records_ingested != truth["records"]:
        failures.append(f"ingested {engine.records_ingested} records, "
                        f"archive holds {truth['records']}")
    store_bytes = b"".join(
        path.read_bytes() for path in sorted(store_root.iterdir())
        if path.name != "checkpoint.json")
    sha = hashlib.sha256(store_bytes).hexdigest()
    counts = {kind: len(items) for kind, items in sorted(events.items())}
    shutil.rmtree(store_root)
    return {"finish_s": finished - started, "records": engine.records_ingested,
            "dumps": engine.dumps_ingested, "events": counts,
            "store_sha256": sha, "store_bytes": len(store_bytes),
            "checks": 4, "failures": failures, "rss_mb": _peak_rss_mb()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("what", choices=["replicate", "ingest"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--root", default=None)
    parser.add_argument("--label", default="0")
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()
    result = replicate(args) if args.what == "replicate" else ingest(args)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
