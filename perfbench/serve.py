"""The ``query`` and ``query_live`` workloads.

Set-up (repeated, median reported): generate the store, compact it,
start ``python -m repro observatory serve`` on it, wait for ``/healthz``,
warm up.  Measure: an open-loop window at the fixed rate, then a
closed-loop window at saturation, from one load-generator process with
at most ``nproc`` connections.  ``query_live`` adds a writer appending
to the store at a fixed rate and an SSE subscriber on one of those
connections.  Check: status codes on every request; for ``query`` a
sample of responses byte-compared to an in-process
``ObservatoryApp(store, use_view=False)`` at the same store position;
for ``query_live`` exactly-once, in-order delivery of every append.
"""

from __future__ import annotations

import asyncio
import http.client
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, Optional
from urllib.parse import parse_qs, urlsplit

from common import (
    BENCH_DIR,
    HostSpeed,
    OPEN_LOOP_RATE,
    ROOT,
    SIZES,
    child_env,
    nproc,
    rss_mb_from_proc,
    tree_sha256,
)
from gen import write_query_store
from loadgen import (
    Connection,
    Mix,
    Recorder,
    Subscriber,
    Writer,
    closed_loop,
    latency_ms,
    open_loop,
    scrape,
    summarize_deliveries,
)
from stats import summary
from tracing import Tracer, load_spans

from repro.observatory import EventStore, ObservatoryApp

HOST = "127.0.0.1"


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


class Server:
    """One server process on the store: the CLI, or the traced entry."""

    def __init__(self, store: Path, traced: bool, spans: Optional[Path]):
        self.port = _free_port()
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "traced_server.py"),
                    str(store), "--port", str(self.port),
                    "--spans", str(spans)]
        else:
            argv = [sys.executable, "-m", "repro", "observatory", "serve",
                    str(store), "--host", HOST, "--port", str(self.port)]
        # The log goes to a file: a pipe nobody reads could fill and
        # stall the server.
        self.log_path = store.parent / f"server-{self.port}.log"
        self.log = open(self.log_path, "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=str(ROOT), env=child_env(),
                                     stdout=subprocess.DEVNULL,
                                     stderr=self.log)
        self.startup_s = self._wait_healthy(started)

    def _wait_healthy(self, started: float, timeout: float = 60.0) -> float:
        while time.perf_counter() - started < timeout:
            if self.proc.poll() is not None:
                self.stop()
                raise RuntimeError("server exited during start: "
                                   + self.log_path.read_text()[-2000:])
            try:
                conn = http.client.HTTPConnection(HOST, self.port, timeout=5)
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    conn.close()
                    return time.perf_counter() - started
                conn.close()
            except OSError:
                pass
            time.sleep(0.01)
        self.stop()
        raise RuntimeError("server did not answer /healthz within 60 s")

    def peak_rss_mb(self) -> Optional[float]:
        return rss_mb_from_proc(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def _connections(port: int, count: int) -> list[Connection]:
    return [Connection(HOST, port, SIZES["query"]["request_timeout"])
            for _ in range(count)]


async def _close_all(conns) -> None:
    for conn in conns:
        await conn.close()


def _setup(run_dir: Path, seed: int, index: int) -> dict[str, Any]:
    """Generate + compact the store; returns its catalog and timings."""
    store = run_dir / f"store-{index}"
    if store.exists():
        shutil.rmtree(store)
    timings: dict[str, float] = {}
    catalog, world = write_query_store(store, seed, timings)
    return {"store": store, "catalog": catalog, "world": world,
            "timings": timings, "sha256": tree_sha256(store)}


async def _warm(mix: Mix, conns: list[Connection]) -> None:
    """Fold the views and fill the caches; nothing here is timed.  A
    fixed number of requests, so every warmed server is in one state."""
    await closed_loop(conns, mix, None,
                      requests=SIZES["query"]["warmup_requests"])


def _oracle_check(store_root: Path, samples: list[tuple]) -> list[str]:
    """Byte-compare sampled responses to a full-scan app at the same
    (unchanged) store position."""
    oracle = ObservatoryApp(EventStore(store_root, readonly=True),
                            use_view=False)
    problems = []
    for target, if_none_match, status, etag, body in samples:
        url = urlsplit(target)
        want_status, headers, want_body = oracle.respond(
            url.path, parse_qs(url.query), if_none_match)
        want_etag = dict(headers).get("ETag")
        if status != want_status or etag != want_etag \
                or (status == 200 and body != want_body):
            problems.append(f"oracle mismatch on {target}: status "
                            f"{status}/{want_status}")
    return problems


def _time_share(samples) -> dict[str, float]:
    times: dict[str, float] = {}
    for sample, ms in zip(samples, latency_ms(samples, since_due=False)):
        times[sample.kind] = times.get(sample.kind, 0.0) + ms
    total = sum(times.values()) or 1.0
    return {kind: value / total for kind, value in sorted(times.items())}


def _counter_deltas(before: dict, after: dict) -> dict[str, float]:
    return {name: after.get(name, 0.0) - before.get(name, 0.0)
            for name in after}


def run(workload: str, seed: int, seconds: int, run_dir: Path,
        trace: bool) -> dict[str, Any]:
    return asyncio.run(_run(workload, seed, seconds, run_dir, trace))


async def _run(workload: str, seed: int, seconds: int, run_dir: Path,
               trace: bool) -> dict[str, Any]:
    cfg = SIZES["query"]
    live = workload == "query_live"
    n_conns = max(1, nproc() - 1) if live else nproc()
    setups = 1 if trace else cfg["setups"]
    checks = Checks()

    # -- set-up, several times; the last one is kept ----------------------
    setup_times, startups, shas = [], [], []
    for index in range(setups):
        started = time.perf_counter()
        prepared = _setup(run_dir, seed, index)
        server = Server(prepared["store"], traced=False, spans=None)
        try:
            startups.append(server.startup_s)
            mix = Mix(prepared["catalog"], seed, cfg)
            conns = _connections(server.port, n_conns)
            await _warm(mix, conns)
            setup_times.append(time.perf_counter() - started)
            shas.append(prepared["sha256"])
        except BaseException:
            server.stop()
            raise
        if index < setups - 1:
            await _close_all(conns)
            server.stop()
            shutil.rmtree(prepared["store"])
    checks.add(len(set(shas)) == 1,
               "store bytes differ between set-ups of one seed")

    live_side = Live(prepared, cfg, checks, trace) if live else None
    result: dict[str, Any] = {
        "setup_s": median(setup_times), "setup_runs": setup_times,
        "startup_s": median(startups), "rate": OPEN_LOOP_RATE[workload],
        "events": prepared["catalog"].events, "connections": n_conns}
    try:
        if trace:
            result.update(await _traced(seed, seconds, run_dir, server,
                                        prepared, conns, result["rate"],
                                        live_side, checks))
        else:
            result.update(await _measured(seconds, server, prepared, mix,
                                          conns, result["rate"], live_side,
                                          checks))
    finally:
        if live_side is not None:
            live_side.close()
        server.stop()
    result.update(checks.totals())
    return result


class Checks:
    """Correctness checks: each attempted, each failure kept with its
    reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(reason)

    def requests(self, recorder: Recorder) -> None:
        self.attempted += len(recorder.samples)
        self.failed += sum(1 for s in recorder.samples if not s.ok)
        self.failures.extend(recorder.failures)

    def totals(self) -> dict[str, Any]:
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": self.failures}


class Live:
    """The ``query_live`` writer and SSE subscriber."""

    def __init__(self, prepared: dict, cfg: dict, checks: Checks,
                 traced: bool):
        self.cfg, self.checks = cfg, checks
        self.store = EventStore(prepared["store"])
        self.events = prepared["world"].more()
        self.tracer = Tracer() if traced else None

    async def start(self, port: int) -> None:
        self.subscriber = Subscriber(HOST, port)
        self.stream_task = asyncio.create_task(self.subscriber.run())
        await asyncio.wait_for(self.subscriber.ready.wait(), 30)
        self.writer = Writer(self.store, self.events,
                             self.cfg["append_rate"], self.cfg["sync_every"],
                             self.tracer)
        self.writer_task = asyncio.create_task(self.writer.run())

    async def stop(self) -> list[float]:
        """Stop appending, let the stream catch up, check exactly-once
        delivery; returns the append-to-deliver latencies (ms)."""
        self.writer.stop()
        await self.writer_task
        appended = self.writer.appended
        deadline = time.perf_counter() + 10
        while time.perf_counter() < deadline and \
                len(self.subscriber.delivered) < len(appended):
            await asyncio.sleep(0.02)
        await self.subscriber.close()
        self.stream_task.cancel()
        await asyncio.gather(self.stream_task, return_exceptions=True)
        latencies, bad, problems = summarize_deliveries(
            appended, self.subscriber.delivered)
        self.checks.attempted += len(appended)
        self.checks.failed += bad + len(self.subscriber.errors)
        self.checks.failures.extend(problems + self.subscriber.errors)
        self.checks.add(self.subscriber.resets == 0,
                        f"stream sent {self.subscriber.resets} reset frames")
        return latencies

    def close(self) -> None:
        self.store.close()


async def _measured(seconds, server, prepared, mix, conns, rate, live_side,
                    checks) -> dict[str, Any]:
    cfg = SIZES["query"]
    before = await scrape(HOST, server.port, cfg["request_timeout"])
    recorder = Recorder(live=live_side is not None)
    if live_side is None:
        recorder.oracle_every = max(1, int(rate * seconds / 2
                                           / cfg["oracle_samples"]))
    else:
        await live_side.start(server.port)
    window_start = time.perf_counter()
    schedule = await open_loop(conns, mix, recorder, rate, seconds / 2)
    open_count = len(recorder.samples)
    # The closed loop runs in chunks with the host's speed sampled
    # between them, as the replicate and ingest workloads sample it
    # between operations; each chunk is scaled by the samples around it.
    # A sample runs in a thread, so the writer and the SSE subscriber
    # keep going meanwhile.
    speed = HostSpeed()
    chunks = []
    for _ in range(cfg["closed_chunks"]):
        await asyncio.to_thread(speed.sample)
        issued = len(recorder.samples)
        elapsed = await closed_loop(conns, mix, recorder,
                                    seconds=seconds / 2 / cfg["closed_chunks"])
        chunks.append((len(recorder.samples) - issued, elapsed))
    await asyncio.to_thread(speed.sample)
    closed_samples = recorder.samples[open_count:]
    open_samples = recorder.samples[:open_count]
    window = time.perf_counter() - window_start
    deliveries = await live_side.stop() if live_side is not None else []
    after = await scrape(HOST, server.port, cfg["request_timeout"])
    rss = server.peak_rss_mb()
    await _close_all(conns)
    checks.requests(recorder)
    if live_side is None:
        problems = _oracle_check(prepared["store"], recorder.oracle)
        checks.attempted += len(recorder.oracle)
        checks.failed += len(problems)
        checks.failures.extend(problems)
    return {
        "open": summary(latency_ms(open_samples)),
        "open_by_kind": {kind: summary(latency_ms(
            [s for s in open_samples if s.kind == kind]))
            for kind in sorted({s.kind for s in open_samples})},
        "max_rps": (sum(n for n, _ in chunks)
                    / sum(t for _, t in chunks)),
        "max_rps_at_reference": speed.scaled_rate(chunks),
        "closed": summary(latency_ms(closed_samples, since_due=False)),
        # Each request kind's share of the closed loop's client time
        # (the mix is assumed; see SIZES["query"]["mix"]).
        "closed_time_share": _time_share(closed_samples),
        "late_ms": summary([1000.0 * x for x in schedule.lateness]),
        "deliver_ms": summary(deliveries) if live_side else None,
        "rss_mb": rss,
        "counters": _counter_deltas(before, after),
        "window_s": window, "closed_chunks": chunks,
        "calibration_s": speed.samples,
        "oracle_samples": len(recorder.oracle),
    }


async def _traced(seed, seconds, run_dir, server, prepared, conns, rate,
                  live_side, checks) -> dict[str, Any]:
    """Untraced then traced server on the same store: the overhead pair
    (the same warm-up, then the same closed-loop requests on each), then
    an open-loop window; the per-layer metrics come from the traced
    server over both of its windows."""
    cfg = SIZES["query"]
    overhead_n = cfg["overhead_requests"][
        "query" if live_side is None else "query_live"]
    catalog = prepared["catalog"]
    if live_side is not None:
        await live_side.start(server.port)
    untraced_s = await closed_loop(conns, Mix(catalog, seed, cfg, "overhead"),
                                   None, requests=overhead_n)
    if live_side is not None:
        await live_side.stop()
    await _close_all(conns)
    server.stop()

    spans_path = run_dir / "server-spans.json"
    traced = Server(prepared["store"], traced=True, spans=spans_path)
    try:
        conns = _connections(traced.port, len(conns))
        # The same warm-up as the untraced server had, then the same
        # overhead requests: both legs start from one server state.
        await _warm(Mix(catalog, seed, cfg), conns)
        before = await scrape(HOST, traced.port, cfg["request_timeout"])
        if live_side is not None:
            await live_side.start(traced.port)
        recorder = Recorder(live=live_side is not None)
        mix = Mix(catalog, seed, cfg, "overhead")
        window_start = time.perf_counter()
        traced_s = await closed_loop(conns, mix, recorder,
                                     requests=overhead_n)
        schedule = await open_loop(conns, mix, recorder, rate, seconds / 2)
        window_end = time.perf_counter()
        if live_side is not None:
            await live_side.stop()
        after = await scrape(HOST, traced.port, cfg["request_timeout"])
        await _close_all(conns)
    finally:
        traced.stop()
    checks.requests(recorder)
    spans = load_spans(spans_path)
    writer_spans = live_side.tracer.spans if live_side is not None else []
    return {
        "window": (window_start, window_end),
        "spans": spans,
        "client_ms": latency_ms(recorder.samples, since_due=False),
        "late_ms": summary([1000.0 * x for x in schedule.lateness]),
        "counters": _counter_deltas(before, after),
        "requests": len(recorder.samples),
        "untraced_s": untraced_s, "traced_s": traced_s,
        "compact_s": prepared["timings"]["colseg.compact_s"],
        "colseg_bytes": prepared["catalog"].colseg_bytes,
        "writer_spans": [s for s in writer_spans
                         if window_start <= s[3] <= window_end],
    }
