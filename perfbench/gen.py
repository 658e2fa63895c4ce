"""Seeded input generators with ground truth, built on public APIs only.

* :func:`write_ingest_archive` writes a multi-collector RIS archive
  (5-minute update files plus 8-hourly bview dumps) and the
  ``scenario.json`` the observatory ingest reads, and returns what the
  archive must make the ingest report: which stuck routes become
  outbreaks, which re-announcements are resurrections.
* :func:`write_query_store` writes an event store of lifespan,
  outbreak + ``forensics`` and resurrection events, compacts its sealed
  history to columnar segments and leaves a JSONL active tail.  The
  world it returns continues the timeline for the writer of the
  ``query_live`` workload.

The same seed always produces the same bytes; ``run.py --selfcheck``
asserts it, and that different seeds differ.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from common import SIZES, tree_bytes

from repro.beacons.aggregator import AggregatorClock
from repro.beacons.schedule import BeaconInterval
from repro.bgp.attributes import Aggregator, ASPath, PathAttributes
from repro.bgp.messages import (
    Announcement,
    PeerState,
    StateRecord,
    UpdateRecord,
    Withdrawal,
)
from repro.net.prefix import Prefix
from repro.observatory import EventStore, LastAnnouncementRing
from repro.observatory.forensics import forensics_payload
from repro.realtime.sinks import serialise_alert
from repro.realtime.streaming import ResurrectionAlert, ZombieAlert
from repro.ris.archive import RIB_DUMP_SECONDS, ArchiveWriter
from repro.simulator.ribgen import dump_times, generate_rib_dumps
from repro.utils.timeutil import DAY, HOUR, MINUTE, ts

ORIGIN_ASN = 210312
THRESHOLD = 90 * MINUTE
QUIET = 120 * MINUTE
#: Transit networks the synthetic AS paths run through.
TRANSIT = (3356, 1299, 2914, 6939, 174, 3257, 6453, 6762, 8298, 1273,
           3491, 5511, 6830, 9002, 20473, 34549, 24482, 37100)
#: The noisy IPv6 peer (the paper's AS16347 at rrc21 misbehaved this way).
NOISY_PEER = ("rrc00", "2001:db8:3fdb::1", 16347)


@dataclass(frozen=True)
class Peer:
    collector: str
    address: str
    asn: int
    path: tuple[int, ...]

    @property
    def key(self) -> tuple[str, str]:
        return (self.collector, self.address)


@dataclass
class IngestTruth:
    """What a correct ingest of the archive reports."""

    outbreaks: set = field(default_factory=set)       # (prefix, coll, addr)
    resurrections: set = field(default_factory=set)   # (prefix, coll, addr)
    rib_resurrections: set = field(default_factory=set)  # prefix

    def to_json(self) -> dict[str, Any]:
        return {"outbreaks": sorted(map(list, self.outbreaks)),
                "resurrections": sorted(map(list, self.resurrections)),
                "rib_resurrections": sorted(self.rib_resurrections)}


def _peers(rng: random.Random, cfg: dict) -> list[Peer]:
    count = len(cfg["collectors"]) * cfg["peers_per_collector"]
    asns = rng.sample(range(1000, 60000), count)
    peers = []
    for c_index, collector in enumerate(cfg["collectors"]):
        for p_index in range(cfg["peers_per_collector"]):
            asn = asns[c_index * cfg["peers_per_collector"] + p_index]
            hops = rng.choice((1, 1, 2, 2, 2, 3, 4))
            path = (asn, *rng.sample(TRANSIT, hops), ORIGIN_ASN)
            peers.append(Peer(collector, f"2001:db8:{c_index + 1:x}:{p_index + 1:x}::1",
                              asn, path))
    return peers


def _attrs(peer: Peer, path: tuple[int, ...], announce: int) -> PathAttributes:
    return PathAttributes(
        as_path=ASPath.of(*path), next_hop=peer.address,
        aggregator=Aggregator(ORIGIN_ASN, AggregatorClock.encode(announce)),
        communities=((peer.asn & 0xFFFF, 100),))


def ingest_records(seed: int):
    """The ingest workload's records, beacon intervals, window and truth."""
    cfg = SIZES["ingest"]
    rng = random.Random(f"ingest:{seed}")
    start = ts(2024, 6, 1)
    end = start + (cfg["beacon_days"] + cfg["tail_days"]) * DAY
    slot = cfg["beacon_minutes"] * MINUTE
    peers = _peers(rng, cfg)
    noisy = Peer(*NOISY_PEER, (NOISY_PEER[2], 2914, 3356, ORIGIN_ASN))
    everyone = peers + [noisy]

    intervals = []
    for day in range(cfg["beacon_days"]):
        for index in range(cfg["slots_per_day"]):
            number = day * cfg["slots_per_day"] + index
            announce = start + day * DAY + index * slot
            intervals.append(BeaconInterval(
                prefix=Prefix(f"2a0d:3dc1:{0x1000 + number:x}::/48"),
                announce_time=announce, withdraw_time=announce + slot,
                origin_asn=ORIGIN_ASN))

    # Scripted phenomena first, on prefixes nothing else touches, so
    # each is unambiguous at the prefix level.
    picks = rng.sample(range(len(intervals)), cfg["update_resurrections"]
                       + cfg["dump_resurrections"])
    update_res = {i: rng.choice(peers) for i in picks[:cfg["update_resurrections"]]}
    dump_res = {i: rng.choice(peers) for i in picks[cfg["update_resurrections"]:]}
    scripted_peers = {p.key for p in (*update_res.values(), *dump_res.values())}

    # Session resets: a quiet moment inside a slot, on peers that carry
    # no scripted resurrection.
    resets: dict[tuple[str, str], list[tuple[int, int, int]]] = {}
    candidates = [p for p in peers if p.key not in scripted_peers]
    for _ in range(cfg["session_resets"]):
        peer = rng.choice(candidates)
        index = rng.randrange(len(intervals))
        down = intervals[index].announce_time + 4 * MINUTE + rng.randrange(60)
        up = down + 60 + rng.randrange(180)
        resets.setdefault(peer.key, []).append((down, up, index))

    records = []
    truth = IngestTruth()

    def announce(peer: Peer, when: int, prefix: Prefix, path, origin_time):
        records.append(UpdateRecord(when, peer.collector, peer.address,
                                    peer.asn, Announcement(
                                        prefix, _attrs(peer, path, origin_time))))

    def withdraw(peer: Peer, when: int, prefix: Prefix):
        records.append(UpdateRecord(when, peer.collector, peer.address,
                                    peer.asn, Withdrawal(prefix)))

    def reset_between(peer: Peer, lo: int, hi: int):
        """The first reset of ``peer`` going down in ``[lo, hi)``."""
        downs = [d for d, _, _ in resets.get(peer.key, ()) if lo <= d < hi]
        return min(downs) if downs else None

    dumps = dump_times(start, end, RIB_DUMP_SECONDS)
    for number, interval in enumerate(intervals):
        prefix, t_ann, t_wd = (interval.prefix, interval.announce_time,
                               interval.withdraw_time)
        scripted = number in update_res or number in dump_res
        for peer in everyone:
            seen = t_ann + 5 + rng.randrange(56)
            announce(peer, seen, prefix, peer.path, t_ann)
            path = peer.path
            last = t_wd + 5 + rng.randrange(116)
            if rng.random() < cfg["path_hunting"]:
                # Path exploration on withdrawal: a longer backup path
                # first, the withdrawal a little later.
                hunt = t_wd + 2 + rng.randrange(20)
                path = (peer.asn, *rng.sample(TRANSIT, 3), ORIGIN_ASN)
                announce(peer, hunt, prefix, path, t_ann)
                last = hunt + 25 + rng.randrange(65)
            if peer is noisy:
                stuck = not scripted and rng.random() < cfg["noisy_drop"]
                cure = t_wd + 2 * HOUR + rng.randrange(6 * HOUR)
            else:
                stuck = not scripted and rng.random() < cfg["stuck_rate"]
                cure = t_wd + 3 * HOUR + rng.randrange(17 * HOUR)
            if dump_res.get(number) is peer:
                stuck = True
                first = next(d for d in dumps if d >= t_wd + THRESHOLD)
                cure = first + HOUR + rng.randrange(5 * HOUR)
                back = first + RIB_DUMP_SECONDS + HOUR + rng.randrange(5 * HOUR)
                gone = first + 2 * RIB_DUMP_SECONDS + HOUR + rng.randrange(5 * HOUR)
                announce(peer, back, prefix, path, t_ann)
                withdraw(peer, gone, prefix)
                truth.resurrections.add((str(prefix), *peer.key))
                truth.rib_resurrections.add(str(prefix))
            if not stuck:
                withdraw(peer, last, prefix)
                if update_res.get(number) is peer:
                    back = last + 150 * MINUTE + rng.randrange(150 * MINUTE)
                    announce(peer, back, prefix, path, t_ann)
                    withdraw(peer, back + 30 * MINUTE + rng.randrange(30 * MINUTE),
                             prefix)
                    truth.resurrections.add((str(prefix), *peer.key))
                continue
            # A stuck route: the peer never hears the withdrawal.  A
            # session reset clears it; otherwise a late withdrawal cures
            # it.  It is an outbreak unless cleared before evaluation.
            cleared = reset_between(peer, t_wd, cure)
            if cleared is None:
                withdraw(peer, cure, prefix)
            if cleared is None or cleared >= t_wd + THRESHOLD:
                truth.outbreaks.add((str(prefix), *peer.key))

    for peer in peers:
        for down, up, index in resets.get(peer.key, ()):
            interval = intervals[index]
            records.append(StateRecord(down, peer.collector, peer.address,
                                       peer.asn, PeerState.ESTABLISHED,
                                       PeerState.IDLE))
            records.append(StateRecord(up, peer.collector, peer.address,
                                       peer.asn, PeerState.IDLE,
                                       PeerState.ESTABLISHED))
            # Back up: the peer re-sends the beacon that is live now.
            announce(peer, up + 2, interval.prefix, peer.path,
                     interval.announce_time)

    records.sort(key=lambda r: (r.timestamp, r.collector, r.peer_address))
    return records, intervals, start, end, truth


def write_ingest_archive(root: Path, seed: int) -> dict[str, Any]:
    """Write the archive + ``scenario.json`` under ``root``; returns the
    truth and sizes (also saved as ``truth.json`` beside the archive)."""
    records, intervals, start, end, truth = ingest_records(seed)
    archive = root / "archive"
    writer = ArchiveWriter(archive)
    by_collector: dict[str, list] = {}
    for record in records:
        by_collector.setdefault(record.collector, []).append(record)
    for collector, items in sorted(by_collector.items()):
        writer.write_updates(collector, items)
    dumps = 0
    for dump in generate_rib_dumps(records, start, end):
        writer.write_rib(dump)
        dumps += 1
    with open(archive / "scenario.json", "w", encoding="utf-8") as handle:
        json.dump({
            "version": 1, "start": start, "end": end,
            "threshold": THRESHOLD, "quiet": QUIET, "excluded_peers": [],
            "intervals": [{"prefix": str(i.prefix),
                           "announce_time": i.announce_time,
                           "withdraw_time": i.withdraw_time,
                           "origin_asn": i.origin_asn,
                           "discarded": i.discarded} for i in intervals],
        }, handle, indent=1, sort_keys=True)
    info = {"records": len(records), "intervals": len(intervals),
            "dumps": dumps, "update_bytes": tree_bytes(archive, "updates.*.gz"),
            "rib_bytes": tree_bytes(archive, "bview.*.gz"),
            "truth": truth.to_json()}
    with open(root / "truth.json", "w", encoding="utf-8") as handle:
        json.dump(info, handle, sort_keys=True)
    return info


# -- the query store -------------------------------------------------------

QUERY_START = ts(2024, 6, 1)
QUERY_COLLECTORS = ("rrc00", "rrc01", "rrc03", "rrc04", "rrc21")


def _query_prefix(number: int) -> str:
    if number % 10 < 7:
        return f"2a0d:{0x3d00 + (number >> 16):x}:{number & 0xffff:x}::/48"
    return f"{20 + number // 65536}.{(number // 256) % 256}.{number % 256}.0/24"


class _QueryWorld:
    """Deterministic source of query-store events for one seed."""

    def __init__(self, seed: int):
        cfg = SIZES["query"]
        self.cfg = cfg
        self.rng = random.Random(f"query:{seed}")
        numbers = self.rng.sample(range(1, 1 << 20), cfg["prefixes"])
        self.prefixes = [_query_prefix(n) for n in numbers]
        self.peers = [(collector, f"2001:db8:{c + 1:x}:{p + 1:x}::1",
                       self.rng.randrange(1000, 60000))
                      for c, collector in enumerate(QUERY_COLLECTORS)
                      for p in range(8)]
        #: prefix -> cumulative lifespan state.
        self.progress: dict[str, dict[str, Any]] = {}
        self.minted: set[str] = set()
        self.parsed: dict[str, Prefix] = {}

    def path(self, peer_asn: int) -> ASPath:
        hops = self.rng.sample(TRANSIT, self.rng.choice((1, 2, 2, 3)))
        return ASPath.of(peer_asn, *hops, ORIGIN_ASN)

    def lifespan(self, prefix: str, instant: int) -> tuple[str, int, dict]:
        state = self.progress.get(prefix)
        rng = self.rng
        if state is None:
            withdraw = instant - THRESHOLD - rng.randrange(8 * HOUR)
            state = self.progress[prefix] = {
                "withdraw_time": withdraw, "first_seen": instant,
                "segments": 1, "resurrections": 0, "open": True}
            started = True
            resurrection = False
        else:
            resurrection = not state["open"] and rng.random() < 0.5
            started = resurrection
            if resurrection:
                state["segments"] += 1
                state["resurrections"] += 1
            state["open"] = rng.random() < 0.8
        visible = state["open"] or started
        peers = sorted([c, a] for c, a, _ in
                       rng.sample(self.peers, rng.choice((1, 1, 2, 3))))
        payload = {
            "prefix": prefix, "visible": visible,
            "started_segment": started, "resurrection": resurrection,
            "peers": peers, "withdraw_time": state["withdraw_time"],
            "first_seen": state["first_seen"], "last_seen": instant,
            "duration_seconds": instant - state["first_seen"],
            "segment_count": state["segments"] if visible or rng.random() < 0.9
            else 0,
            "resurrection_count": state["resurrections"],
        }
        return "lifespan", instant, payload

    def prefix(self, text: str) -> Prefix:
        parsed = self.parsed.get(text)
        if parsed is None:
            parsed = self.parsed[text] = Prefix(text)
        return parsed

    def outbreak_pair(self, prefix: str, detected: int) -> list[tuple]:
        rng = self.rng
        collector, address, asn = rng.choice(self.peers)
        announce = detected - THRESHOLD - 15 * MINUTE - rng.randrange(60)
        parsed = self.prefix(prefix)
        interval = BeaconInterval(parsed, announce,
                                  announce + 15 * MINUTE, ORIGIN_ASN)
        alert = ZombieAlert(prefix=parsed, peer=(collector, address),
                            peer_asn=asn, interval=interval,
                            detected_at=detected, path=self.path(asn),
                            stale=rng.random() < 0.1)
        payload = serialise_alert(alert)
        if payload["id"] in self.minted:
            return []
        self.minted.add(payload["id"])
        ring = LastAnnouncementRing(64, prefixes={prefix})
        for p_collector, p_address, p_asn in rng.sample(
                self.peers, self.cfg["forensics_peers"]):
            seen = announce + 5 + rng.randrange(55)
            attrs = PathAttributes(
                as_path=self.path(p_asn), next_hop=p_address,
                aggregator=Aggregator(ORIGIN_ASN,
                                      AggregatorClock.encode(announce)))
            ring.observe(UpdateRecord(seen, p_collector, p_address, p_asn,
                                      Announcement(parsed, attrs)))
            if (p_collector, p_address) != (collector, address) \
                    and rng.random() < 0.7:
                ring.observe(UpdateRecord(
                    announce + 15 * MINUTE + rng.randrange(120), p_collector,
                    p_address, p_asn, Withdrawal(parsed)))
        return [("outbreak", detected, payload),
                ("forensics", detected,
                 forensics_payload(payload, ORIGIN_ASN, ring))]

    def resurrection(self, prefix: str, when: int) -> tuple[str, int, dict]:
        collector, address, asn = self.rng.choice(self.peers)
        alert = ResurrectionAlert(
            prefix=self.prefix(prefix), peer=(collector, address), peer_asn=asn,
            withdrawn_at=when - QUIET - self.rng.randrange(10 * HOUR),
            resurrected_at=when, path=self.path(asn))
        return "resurrection", when, serialise_alert(alert)

    def history(self) -> list[tuple[str, int, dict]]:
        cfg, rng = self.cfg, self.rng
        events: list[tuple[int, int, tuple]] = []
        order = 0
        for prefix in self.prefixes:
            instant = QUERY_START + rng.randrange(40) * RIB_DUMP_SECONDS
            for _ in range(rng.randrange(1, 2 * cfg["lifespans_per_prefix"])):
                events.append((instant, order, self.lifespan(prefix, instant)))
                order += 1
                instant += RIB_DUMP_SECONDS * rng.choice((1, 1, 2, 3))
        horizon = QUERY_START + 40 * RIB_DUMP_SECONDS
        for _ in range(cfg["outbreaks"]):
            prefix = rng.choice(self.prefixes)
            for event in self.outbreak_pair(
                    prefix, QUERY_START + rng.randrange(horizon - QUERY_START)):
                events.append((event[1], order, event))
                order += 1
        for _ in range(cfg["resurrections"]):
            prefix = rng.choice(self.prefixes)
            event = self.resurrection(
                prefix, QUERY_START + HOUR * 12
                + rng.randrange(horizon - QUERY_START))
            events.append((event[1], order, event))
            order += 1
        events.sort(key=lambda item: (item[0], item[1]))
        self.clock = max(item[0] for item in events)
        return [item[2] for item in events]

    def more(self) -> Iterator[tuple[str, int, dict]]:
        """Events after the history, forever: mostly lifespan updates,
        some outbreak + forensics pairs and resurrections."""
        rng = self.rng
        while True:
            self.clock += 1 + rng.randrange(60)
            prefix = rng.choice(self.prefixes)
            roll = rng.random()
            if roll < 0.6:
                yield self.lifespan(prefix, self.clock)
            elif roll < 0.85:
                yield from self.outbreak_pair(prefix, self.clock)
            else:
                yield self.resurrection(prefix, self.clock)


@dataclass
class QueryCatalog:
    """What the load generator may ask for."""

    prefixes: list[str]
    outbreak_prefixes: list[str]
    outbreak_ids: list[str]
    resurrection_keys: list[str]
    events: int
    colseg_bytes: int


def write_query_store(root: Path, seed: int, timings: dict | None = None
                      ) -> tuple[QueryCatalog, "_QueryWorld"]:
    """Write the query store under ``root``.  Returns the catalog and
    the world, whose :meth:`_QueryWorld.more` continues the timeline."""
    import time

    world = _QueryWorld(seed)
    store = EventStore(root)
    outbreak_prefixes, outbreak_ids, resurrection_keys = set(), [], []

    def append(kind: str, when: int, payload: dict) -> None:
        seq = store.append(kind, when, payload)
        if kind == "forensics":
            outbreak_ids.append(payload["outbreak_id"])
            outbreak_prefixes.add(payload["prefix"])
        elif kind == "resurrection":
            resurrection_keys.append(f"{when}:{seq}")

    for kind, when, payload in world.history():
        append(kind, when, payload)
    store.sync()
    started = time.perf_counter()
    store.compact(fmt="columnar")
    if timings is not None:
        timings["colseg.compact_s"] = time.perf_counter() - started
    colseg_bytes = tree_bytes(root, "*.colseg")
    more = world.more()
    for _ in range(world.cfg["tail_events"]):
        append(*next(more))
    store.sync()
    events = store.next_seq
    store.close()
    return QueryCatalog(
        prefixes=list(world.prefixes),
        outbreak_prefixes=sorted(outbreak_prefixes),
        outbreak_ids=outbreak_ids, resurrection_keys=resurrection_keys,
        events=events, colseg_bytes=colseg_bytes), world
