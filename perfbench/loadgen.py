"""The load generator: one process, one asyncio loop, keep-alive
connections, a skewed client mix, an optional writer and SSE reader.

Latency is timed with :class:`stats.OpenLoop` from each request's due
time in open loop, and from send time in closed loop.  A request that
fails (transport error, timeout, unexpected status) is kept as a sample
at the request timeout, so it counts as missing any latency limit
instead of vanishing from the percentiles.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import random
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Optional
from urllib.parse import quote

from stats import OpenLoop

class Zipf:
    """Seeded Zipf(s) choice over a list shuffled once by the seed."""

    def __init__(self, items: list, s: float, rng: random.Random):
        self.items = list(items)
        rng.shuffle(self.items)
        total, self.cumulative = 0.0, []
        for rank in range(1, len(self.items) + 1):
            total += 1.0 / rank ** s
            self.cumulative.append(total)
        self.total = total

    def pick(self, rng: random.Random):
        at = rng.random() * self.total
        return self.items[min(bisect.bisect_left(self.cumulative, at),
                              len(self.items) - 1)]


@dataclass
class Request:
    kind: str
    target: str
    if_none_match: Optional[str] = None
    walk: Optional[tuple[str, int]] = None  # (walk kind, pages so far)


@dataclass
class Sample:
    kind: str
    status: int
    due: float
    sent: float
    done: float
    ok: bool


class Mix:
    """Draws the next request of the skewed client mix
    (``cfg["mix"]``); ``stream`` names one of several independent
    request sequences of a seed."""

    def __init__(self, catalog, seed: int, cfg: dict, stream: str = "main"):
        self.rng = random.Random(f"mix:{seed}:{stream}")
        self.cfg = cfg
        s = cfg["zipf_s"]
        self.prefixes = Zipf(catalog.prefixes, s, self.rng)
        self.outbreak_prefixes = Zipf(catalog.outbreak_prefixes, s, self.rng)
        self.outbreak_ids = Zipf(catalog.outbreak_ids, s, self.rng)
        self.walk_starts = catalog.prefixes
        self.resurrection_keys = catalog.resurrection_keys
        self.kinds = [kind for kind, _ in cfg["mix"]]
        self.weights = [weight for _, weight in cfg["mix"]]
        #: target -> ETag of recent 200s (for revalidations).
        self.etags: "OrderedDict[str, str]" = OrderedDict()
        self.walks: deque[Request] = deque()

    def next(self) -> Request:
        rng = self.rng
        kind = rng.choices(self.kinds, self.weights)[0]
        limit = self.cfg["page_limit"]
        if kind == "revalidate" and self.etags:
            recent = list(self.etags.items())[-64:]
            target, etag = recent[int(rng.random() ** 2 * len(recent))]
            return Request("revalidate", target, if_none_match=etag)
        if kind.endswith("_walk"):
            if self.walks and rng.random() < 0.75:
                return self.walks.popleft()
            if kind == "zombies_walk":
                cursor = quote(rng.choice(self.walk_starts), safe="")
                return Request(kind, f"/zombies?limit={limit}&cursor={cursor}",
                               walk=("zombies", 1))
            cursor = rng.choice(self.resurrection_keys)
            return Request(kind, f"/resurrections?limit={limit}&cursor={cursor}",
                           walk=("resurrections", 1))
        if kind == "outbreaks":
            prefix = quote(self.outbreak_prefixes.pick(rng), safe="")
            return Request(kind, f"/outbreaks?prefix={prefix}")
        if kind == "forensics":
            identifier = quote(self.outbreak_ids.pick(rng), safe="")
            return Request(kind, f"/outbreaks/{identifier}/forensics")
        if kind == "zombies":
            return Request(kind, "/zombies")
        return Request("zombie",
                       "/zombies/" + quote(self.prefixes.pick(rng), safe=""))

    def answered(self, request: Request, status: int,
                 headers: dict[str, str], body: bytes) -> None:
        """Learn ETags and follow walk cursors from a response."""
        if status != 200:
            return
        etag = headers.get("etag")
        if etag is not None:
            self.etags.pop(request.target, None)
            self.etags[request.target] = etag
            while len(self.etags) > 256:
                self.etags.popitem(last=False)
        if request.walk is not None:
            walk, pages = request.walk
            if pages >= self.cfg["walk_pages"]:
                return
            cursor = json.loads(body).get("next_cursor")
            if cursor is None:
                return
            limit = self.cfg["page_limit"]
            self.walks.append(Request(
                f"{walk}_walk",
                f"/{walk}?limit={limit}&cursor={quote(str(cursor), safe='')}",
                walk=(walk, pages + 1)))


class Connection:
    """One HTTP/1.1 keep-alive connection (GET only)."""

    def __init__(self, host: str, port: int, timeout: float):
        self.host, self.port, self.timeout = host, port, timeout
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def _open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port)

    async def get(self, target: str, if_none_match: Optional[str] = None
                  ) -> tuple[int, dict[str, str], bytes]:
        return await asyncio.wait_for(self._get(target, if_none_match),
                                      self.timeout)

    async def _get(self, target, if_none_match):
        if self.writer is None:
            await self._open()
        head = f"GET {target} HTTP/1.1\r\nHost: {self.host}\r\n"
        if if_none_match:
            head += f"If-None-Match: {if_none_match}\r\n"
        self.writer.write((head + "\r\n").encode("latin-1"))
        raw = await self.reader.readuntil(b"\r\n\r\n")
        lines = raw.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        headers = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        body = await self.reader.readexactly(
            int(headers.get("content-length", "0")))
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, headers, body

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
        self.reader = self.writer = None


@dataclass
class Recorder:
    """Everything a timed phase observed."""

    samples: list[Sample] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    oracle: list[tuple] = field(default_factory=list)
    oracle_every: int = 0
    live: bool = False

    def expect(self, request: Request, status: int) -> Optional[str]:
        if request.kind == "revalidate":
            allowed = (200, 304) if self.live else (304,)
        else:
            allowed = (200,)
        if status not in allowed:
            return f"{request.target}: status {status}, expected {allowed}"
        return None


async def _issue(conn: Connection, mix: Mix, recorder: Optional[Recorder],
                 request: Request, due: float) -> None:
    sent = time.perf_counter()
    try:
        status, headers, body = await conn.get(request.target,
                                               request.if_none_match)
    except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError,
            ValueError) as exc:
        await conn.close()
        if recorder is not None:
            recorder.failures.append(f"{request.target}: {type(exc).__name__}")
            recorder.samples.append(Sample(request.kind, 0, due, sent,
                                           due + conn.timeout, False))
        return
    done = time.perf_counter()
    mix.answered(request, status, headers, body)
    if recorder is None:
        return
    problem = recorder.expect(request, status)
    if problem is not None:
        recorder.failures.append(problem)
    recorder.samples.append(Sample(
        "not_modified" if status == 304 else request.kind, status, due, sent,
        done if problem is None else due + conn.timeout, problem is None))
    index = len(recorder.samples)
    if recorder.oracle_every and index % recorder.oracle_every == 0:
        recorder.oracle.append((request.target, request.if_none_match,
                                status, headers.get("etag"), body))


async def closed_loop(conns: list[Connection], mix: Mix,
                      recorder: Optional[Recorder], seconds: float = 0.0,
                      requests: int = 0) -> float:
    """Each connection sends its next request when the previous one is
    answered, until ``seconds`` pass or ``requests`` are issued; returns
    the elapsed wall time."""
    started = time.perf_counter()
    deadline = started + seconds
    issued = 0

    async def client(conn: Connection) -> None:
        nonlocal issued
        while True:
            if requests:
                if issued >= requests:
                    return
                issued += 1
            elif time.perf_counter() >= deadline:
                return
            await _issue(conn, mix, recorder, mix.next(), time.perf_counter())

    await asyncio.gather(*(client(conn) for conn in conns))
    return time.perf_counter() - started


async def open_loop(conns: list[Connection], mix: Mix, recorder: Recorder,
                    rate: float, seconds: float) -> OpenLoop:
    """Requests due at a fixed rate, handed to whichever connection is
    free; latency counts from the due time."""
    schedule = OpenLoop(rate, time.perf_counter() + 0.05, seconds)
    queue: asyncio.Queue = asyncio.Queue()

    async def dispatcher() -> None:
        for index in range(schedule.count):
            due = schedule.due(index)
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            schedule.sent(index, time.perf_counter())
            queue.put_nowait(due)
        for _ in conns:
            queue.put_nowait(None)

    async def client(conn: Connection) -> None:
        while True:
            due = await queue.get()
            if due is None:
                return
            await _issue(conn, mix, recorder, mix.next(), due)

    await asyncio.gather(dispatcher(), *(client(conn) for conn in conns))
    return schedule


class Subscriber:
    """An SSE ``/stream/events`` subscriber that timestamps every event
    frame on arrival."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.delivered: list[tuple[int, float]] = []
        self.resets = 0
        self.errors: list[str] = []
        self.ready = asyncio.Event()
        self._writer: Optional[asyncio.StreamWriter] = None

    async def run(self) -> None:
        try:
            reader, self._writer = await asyncio.open_connection(
                self.host, self.port)
            self._writer.write(f"GET /stream/events HTTP/1.1\r\nHost: "
                               f"{self.host}\r\n\r\n".encode("latin-1"))
            head = await reader.readuntil(b"\r\n\r\n")
            if b" 200 " not in head.split(b"\r\n", 1)[0]:
                self.errors.append(f"stream refused: {head[:80]!r}")
                return
            self.ready.set()
            event, data = None, None
            while True:
                line = await reader.readline()
                if not line:
                    return
                line = line.rstrip(b"\n")
                if line.startswith(b"event: "):
                    event = line[7:].decode()
                elif line.startswith(b"data: "):
                    data = line[6:]
                elif not line:
                    if event == "reset":
                        self.resets += 1
                    elif event is not None and data is not None:
                        self.delivered.append((json.loads(data)["seq"],
                                               time.perf_counter()))
                    event, data = None, None
        except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
            self.errors.append(f"stream: {type(exc).__name__}: {exc}")
        finally:
            self.ready.set()

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except OSError:
                pass


class Writer:
    """Appends the world's next events at a fixed rate, syncing the
    manifest every few appends; keeps each seq's append-return time."""

    def __init__(self, store, events, rate: float, sync_every: int,
                 tracer=None):
        self.store, self.events = store, events
        self.rate, self.sync_every = rate, sync_every
        self.appended: list[tuple[int, float]] = []
        self.append = store.append if tracer is None else tracer.wrap(
            store.append, "writer.append")
        self._stop = False

    def stop(self) -> None:
        self._stop = True

    async def run(self) -> None:
        started = time.perf_counter()
        index = 0
        while not self._stop:
            delay = started + index / self.rate - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
                if self._stop:
                    break
            kind, when, payload = next(self.events)
            seq = self.append(kind, when, payload)
            self.appended.append((seq, time.perf_counter()))
            index += 1
            if index % self.sync_every == 0:
                self.store.sync()
        self.store.sync()


def parse_metrics(text: str) -> dict[str, float]:
    """Prometheus text exposition -> {series: value}."""
    values: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            values[name] = float(value)
        except ValueError:
            continue
    return values


async def scrape(host: str, port: int, timeout: float) -> dict[str, float]:
    conn = Connection(host, port, timeout)
    try:
        status, _, body = await conn.get("/metrics")
    finally:
        await conn.close()
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return parse_metrics(body.decode("utf-8"))


def latency_ms(samples: list[Sample], since_due: bool = True) -> list[float]:
    return [1000.0 * (s.done - (s.due if since_due else s.sent))
            for s in samples]


def summarize_deliveries(appended: list[tuple[int, float]],
                         delivered: list[tuple[int, float]]
                         ) -> tuple[list[float], int, list[str]]:
    """Append-to-deliver latencies (ms), the number of appended seqs not
    delivered exactly once in order, and the reasons."""
    sent = [seq for seq, _ in appended]
    got = [seq for seq, _ in delivered]
    bad, problems = 0, []
    if got != sent:
        missing = set(sent) - set(got)
        duplicates = len(got) - len(set(got))
        disordered = got != sorted(got)
        bad = max(1, len(missing) + duplicates)
        problems.append(f"stream: {len(missing)} appended seqs not "
                        f"delivered, {duplicates} delivered twice, "
                        f"out of order: {disordered}")
    at = dict(delivered)
    latencies = [1000.0 * (at[seq] - when) for seq, when in appended
                 if seq in at]
    return latencies, bad, problems
