"""Shared plumbing: checkout paths, workload sizes, provenance, workers.

Every size the benchmark uses is set in :data:`SIZES`, so a reader (and
a later change that re-baselines) finds them in one place.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Working space for generated inputs; one subdirectory per run.
RUNS_DIR = ROOT / ".perfbench_runs"
BASELINE_PATH = BENCH_DIR / "baseline.json"

#: Seed used when none is given, and the held-out seed a claimed gain
#: must also hold on.  Recorded digests exist for both.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7

SIZES: dict[str, dict[str, Any]] = {
    # One replication period of the paper's 2018 study (§3), truncated
    # to its first ``hours``.  A run covers ``worlds`` worlds (sub-seeds
    # of the run's seed), each period in a fresh interpreter, because
    # back-to-back simulations in one process drift; while ``--seconds``
    # have not passed it starts the same worlds again, so the inputs do
    # not depend on how fast the program is.
    # Traced runs alternate this many untraced and traced periods (or
    # ingests) and report the median difference as the tracing overhead.
    "replicate": {"period": "2018", "hours": 12, "worlds": 4,
                  "overhead_pairs": 3},
    # The paper's 15-minute beacon methodology: ``slots_per_day`` /48s
    # a day, each announced for ``beacon_minutes``; stuck withdrawals at
    # the paper's ~1.6 % average, one noisy IPv6 peer dropping ~43 % of
    # its withdrawals, session resets and scripted resurrections.
    "ingest": {
        "collectors": ("rrc00", "rrc01", "rrc03", "rrc04"),
        "peers_per_collector": 10,
        "beacon_days": 1,
        "tail_days": 2,
        "slots_per_day": 96,
        "beacon_minutes": 15,
        "stuck_rate": 0.016,
        "noisy_drop": 0.43,
        "path_hunting": 0.3,
        "session_resets": 6,
        "update_resurrections": 8,
        "dump_resurrections": 4,
        "checkpoint_every": 1000,  # the CLI default
        "min_iterations": 3,
        "setups": 3,
        "overhead_pairs": 3,
    },
    # An event store with far more distinct queries than the server's
    # 128-entry response cache; sealed history compacted to columnar
    # segments, plus a JSONL active tail.
    "query": {
        "prefixes": 2500,
        "lifespans_per_prefix": 3,
        "outbreaks": 1000,
        "forensics_peers": 6,
        "resurrections": 800,
        "tail_events": 400,
        # The client mix.  No traffic record exists to derive it from, so
        # the values below are assumed: shares per request kind (point
        # /zombies/<prefix> look-ups dominate, as for an operator
        # checking prefixes; ``revalidate`` replays a fetched URL with
        # its ETag in If-None-Match), Zipf skew over prefixes and
        # outbreak ids, and pages per cursor walk.  The traced run
        # reports each route's share of the server's respond time
        # (``http.respond_share.<route>``), so a result that rests on
        # one route shows.
        "mix": (("zombie", 0.55), ("outbreaks", 0.15), ("forensics", 0.08),
                ("zombies_walk", 0.06), ("resurrections_walk", 0.06),
                ("zombies", 0.02), ("revalidate", 0.08)),
        "zipf_s": 0.8,
        "page_limit": 50,
        "walk_pages": 4,
        "warmup_requests": 100,
        "setups": 3,
        "request_timeout": 10.0,
        # The closed loop is cut in this many chunks, host speed sampled
        # between them (see serve._measured).
        "closed_chunks": 3,
        # Requests whose full responses are byte-compared to the oracle.
        "oracle_samples": 120,
        # query_live: the writer's append rate and sync cadence, also
        # assumed.  20 events/s is about a fifth of the rate the
        # ``ingest`` workload's ObservatoryIngest appends at when it
        # replays its archive flat out (~360 events in ~3.4 s); that
        # ingest syncs once per checkpoint (~36 appends), the writer
        # every 5, so each sync moves the served position.
        "append_rate": 20.0,
        "sync_every": 5,
        # Traced runs time this many closed-loop requests on the
        # untraced and the traced server: the overhead pair.
        "overhead_requests": {"query": 600, "query_live": 200},
    },
}

#: Fixed open-loop request rates (req/s), set below the capacity the
#: seed commit measured on a 2-CPU host (see baseline.json).
OPEN_LOOP_RATE = {"query": 50.0, "query_live": 15.0}


#: Seconds :func:`calibrate` takes on the reference host (the 2-CPU host
#: the baseline was measured on, in a quiet spell).  Timing metrics are
#: reported at that host speed; see :class:`HostSpeed`.
CALIBRATION_REF_S = 0.30


#: A fixed pure-Python workload: dicts, strings, JSON and sorting, the
#: operations the program spends its time in, on the standard library
#: only, so that no change to the program can move its timing.
CALIBRATION = """
import json, time
started = time.perf_counter()
table = {}
for i in range(40000):
    table[f"2a0d:{i:x}::/48"] = {"seq": i, "path": [i, i + 1, i + 2]}
json.loads(json.dumps(table, sort_keys=True))
sorted(table, key=lambda key: table[key]["seq"] % 97)
print(time.perf_counter() - started)
"""


def calibrate() -> float:
    """Seconds :data:`CALIBRATION` takes right now, in a fresh
    interpreter (so the benchmark's own heap cannot slow it)."""
    out = subprocess.run([sys.executable, "-c", CALIBRATION],
                         capture_output=True, text=True, check=True,
                         env=child_env(), timeout=60)
    return float(out.stdout)


class HostSpeed:
    """How fast this host runs right now, relative to the reference.

    On a shared host the CPU speed drifts by tens of percent within
    minutes (other tenants), which would swamp any change to the
    program.  A run therefore samples :func:`calibrate` between its
    measured operations, and reports each operation's time divided by
    the factor ``sample / CALIBRATION_REF_S`` of the samples around it
    (:meth:`scaled`), and a set-up time divided by the run's median
    factor: seconds at the reference host's speed.  The raw values go
    into the report line next to the factor.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(calibrate())

    @property
    def factor(self) -> float:
        return statistics.median(self.samples) / CALIBRATION_REF_S

    def scaled(self, seconds: list[float]) -> list[float]:
        """Durations of consecutive operations at the reference speed.
        The last ``len(seconds) + 1`` samples were taken one before each
        operation and one after the last; each duration is divided by
        the factor of the two samples around it, which tracks the drift
        better than the run's median factor."""
        around = self.samples[len(self.samples) - len(seconds) - 1:]
        return [elapsed * 2 * CALIBRATION_REF_S / (around[i] + around[i + 1])
                for i, elapsed in enumerate(seconds)]

    def scaled_rate(self, chunks: list[tuple[int, float]]) -> float:
        """Operations per second at the reference speed over consecutive
        ``chunks`` of ``(operations, seconds)`` (see :meth:`scaled`)."""
        return (sum(n for n, _ in chunks)
                / sum(self.scaled([elapsed for _, elapsed in chunks])))


def import_repro():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro
    origin = Path(repro.__file__).resolve().parent.parent
    if origin != SRC:
        raise SystemExit(f"perfbench: imported repro from {origin}, "
                         f"expected {SRC}")
    return repro


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts: this
    checkout's sources first, and one fixed hash seed so set and dict
    orders (and with them timings) do not vary between runs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'
    (read from the files; no git process is started)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def source_digest() -> str:
    """sha256 over the program's sources: names the code measured even
    where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(workload: str, seed: int, seconds: int, trace: bool
               ) -> dict[str, Any]:
    return {
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "trace": trace,
        "nproc": nproc(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "sizes": SIZES["replicate" if workload == "replicate"
                       else "ingest" if workload == "ingest" else "query"],
    }


def load_baseline() -> dict[str, Any]:
    with open(BASELINE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def make_run_dir(workload: str, seed: int) -> Path:
    path = RUNS_DIR / f"{workload}-{seed}-{os.getpid()}"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def tree_sha256(root: Path) -> str:
    """sha256 over every regular file under ``root`` (names + bytes),
    leaving out ``.idx`` sidecars: they record their data file's mtime,
    so they differ between two writes of the same bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*")
                       if p.is_file() and p.suffix != ".idx"):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def tree_bytes(root: Path, pattern: str = "*") -> int:
    return sum(p.stat().st_size for p in root.rglob(pattern) if p.is_file())


def run_worker(args: list[str], timeout: float = 170.0
               ) -> tuple[dict[str, Any], float]:
    """Run ``perfbench/work.py`` in a fresh interpreter.

    Returns the worker's JSON result and the seconds from spawn until
    the worker reported it had finished importing (its set-up time).
    The worker prints ``ready`` once imported, then one JSON line.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "work.py"), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
        cwd=str(ROOT), text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - started
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if first.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} failed (exit "
                           f"{proc.returncode}): {(first + out + err)[-2000:]}")
    return json.loads(out.strip().splitlines()[-1]), ready


def rss_mb_from_proc(pid: int) -> Optional[float]:
    """Peak resident set (VmHWM) of a live process, in MiB.  Unlike
    ``ru_maxrss``, it starts afresh at ``exec``, so a worker does not
    inherit the high-water mark of the process that forked it."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None
