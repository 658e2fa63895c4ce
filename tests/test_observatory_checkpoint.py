"""Kill-resume determinism: a checkpointed ingest that is killed at an
arbitrary record boundary and restarted produces an event store that is
byte-identical to an uninterrupted run — including kills landing
mid-outbreak and mid-resurrection (state buffered, event not yet due)."""

import io
import json

import pytest

import repro.observatory.ingest as ingest_module
from repro.observatory import (
    CHECKPOINT_VERSION,
    CheckpointError,
    EventStore,
    ObservatoryIngest,
    build_synthetic_archive,
    load_checkpoint,
    load_scenario,
    save_checkpoint,
)
from repro.ris import Archive
from repro.utils.timeutil import MINUTE


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    root = tmp_path_factory.mktemp("obs-archive")
    built = build_synthetic_archive(root / "archive")
    return built, load_scenario(built.scenario_path)


def make_ingest(scenario, store_dir, checkpoint, checkpoint_every=7):
    built, config = scenario
    return ObservatoryIngest(
        Archive(built.root), EventStore(store_dir), checkpoint,
        config["intervals"], config["start"], config["end"],
        checkpoint_every=checkpoint_every)


def uninterrupted(scenario, tmp_path):
    ingest = make_ingest(scenario, tmp_path / "ref-store",
                         tmp_path / "ref-ckpt.json")
    ingest.run()
    ingest.finish()
    ingest.store.close()
    return ingest


def killed_and_resumed(scenario, tmp_path, kill_at, checkpoint_every=7):
    first = make_ingest(scenario, tmp_path / "store", tmp_path / "ckpt.json",
                        checkpoint_every)
    first.run(max_records=kill_at)
    first.store.close()  # simulated kill: no final checkpoint written
    resumed = make_ingest(scenario, tmp_path / "store",
                          tmp_path / "ckpt.json", checkpoint_every)
    resumed.run()
    resumed.finish()
    resumed.store.close()
    return resumed


class TestKillResume:
    def test_scenario_produces_every_event_kind(self, scenario, tmp_path):
        ingest = uninterrupted(scenario, tmp_path)
        by_kind = ingest.store.stats()["by_kind"]
        assert by_kind["outbreak"] == 2
        assert by_kind["resurrection"] == 2
        assert by_kind["lifespan"] > 0
        assert ingest.counters["rib_resurrection_events"] == 1

    @pytest.mark.parametrize("kill_at", [1, 5, 13, 42, 57, 99])
    def test_byte_identical_store(self, scenario, tmp_path, kill_at):
        reference = uninterrupted(scenario, tmp_path)
        resumed = killed_and_resumed(scenario, tmp_path, kill_at)
        assert resumed.store.raw_bytes() == reference.store.raw_bytes()
        assert resumed.records_ingested == reference.records_ingested
        assert resumed.dumps_ingested == reference.dumps_ingested

    def test_kill_mid_outbreak(self, scenario, tmp_path):
        """Kill between the final withdrawal and the evaluation deadline:
        the zombie is live detector state, not yet an event."""
        built, config = scenario
        reference = uninterrupted(scenario, tmp_path)
        stuck_withdraw = max(
            i.withdraw_time for i in config["intervals"]
            if str(i.prefix) == built.scripted["stuck"])
        probe = make_ingest(scenario, tmp_path / "probe",
                            tmp_path / "probe.json")
        count = 0
        record = None
        stream = probe._update_stream()
        for record in stream:
            count += 1
            if stuck_withdraw < record.timestamp \
                    < stuck_withdraw + 90 * MINUTE:
                break
        assert record is not None and count < 100, \
            "scenario must have a record inside the outbreak window"
        resumed = killed_and_resumed(scenario, tmp_path, count)
        assert resumed.store.raw_bytes() == reference.store.raw_bytes()

    def test_kill_mid_resurrection(self, scenario, tmp_path):
        """Kill between a withdrawal and its quiet-period re-announcement:
        the open withdrawal window lives only in the monitor snapshot."""
        built, config = scenario
        reference = uninterrupted(scenario, tmp_path)
        resur_withdraw = max(
            i.withdraw_time for i in config["intervals"]
            if str(i.prefix) == built.scripted["resurrection_updates"])
        probe = make_ingest(scenario, tmp_path / "probe",
                            tmp_path / "probe.json")
        count = 0
        for record in probe._update_stream():
            count += 1
            if record.timestamp > resur_withdraw + 30 * MINUTE:
                break
        resumed = killed_and_resumed(scenario, tmp_path, count)
        assert resumed.store.raw_bytes() == reference.store.raw_bytes()

    def test_double_kill(self, scenario, tmp_path):
        reference = uninterrupted(scenario, tmp_path)
        first = make_ingest(scenario, tmp_path / "store",
                            tmp_path / "ckpt.json", checkpoint_every=5)
        first.run(max_records=23)
        first.store.close()
        second = make_ingest(scenario, tmp_path / "store",
                             tmp_path / "ckpt.json", checkpoint_every=5)
        second.run(max_records=31)
        second.store.close()
        third = make_ingest(scenario, tmp_path / "store",
                            tmp_path / "ckpt.json", checkpoint_every=5)
        third.run()
        third.finish()
        third.store.close()
        assert third.store.raw_bytes() == reference.store.raw_bytes()

    def test_resume_after_finish_is_noop(self, scenario, tmp_path):
        reference = uninterrupted(scenario, tmp_path)
        again = make_ingest(scenario, tmp_path / "ref-store",
                            tmp_path / "ref-ckpt.json")
        assert again.finished
        assert again.run() == 0
        again.finish()
        assert again.store.raw_bytes() == reference.store.raw_bytes()


class TestCheckpointDocument:
    def test_atomic_write_and_round_trip(self, tmp_path):
        path = tmp_path / "nested" / "ckpt.json"
        save_checkpoint(path, {"window": [0, 10], "answer": 42})
        document = load_checkpoint(path)
        assert document["answer"] == 42
        assert document["version"] == 1
        assert not path.with_name(path.name + ".tmp").exists()

    def test_missing_checkpoint_is_none(self, tmp_path):
        assert load_checkpoint(tmp_path / "absent.json") is None

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_version_mismatch_is_checkpoint_error(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(CheckpointError, match="version: 99") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("body", [b"[]", b"null", b"42", b'"text"'])
    def test_non_object_top_level_rejected(self, tmp_path, body):
        path = tmp_path / "ckpt.json"
        path.write_bytes(body)
        with pytest.raises(CheckpointError, match="not an object") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("body", [b"", b"{", b'{"version": 1,}',
                                      b'{"version": 1} trailing'])
    def test_invalid_json_rejected(self, tmp_path, body):
        path = tmp_path / "ckpt.json"
        path.write_bytes(body)
        with pytest.raises(CheckpointError, match="not JSON") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_undecodable_bytes_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_bytes(b'{"version": 1, "x": "\xff\xfe"}')
        with pytest.raises(CheckpointError, match="not UTF-8") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_window_mismatch_rejected(self, scenario, tmp_path):
        built, config = scenario
        ingest = make_ingest(scenario, tmp_path / "store",
                             tmp_path / "ckpt.json")
        ingest.run(max_records=10)
        ingest.checkpoint()
        ingest.store.close()
        with pytest.raises(ValueError, match="window"):
            ObservatoryIngest(
                Archive(built.root), EventStore(tmp_path / "store"),
                tmp_path / "ckpt.json", config["intervals"],
                config["start"], config["end"] + 1)

    def test_checkpoint_truncates_uncheckpointed_suffix(self, scenario,
                                                        tmp_path):
        """Events appended after the last checkpoint are rolled back on
        restart, then re-emitted identically."""
        ingest = make_ingest(scenario, tmp_path / "store",
                             tmp_path / "ckpt.json", checkpoint_every=1000)
        ingest.run(max_records=50)
        ingest.checkpoint()
        checkpointed = ingest.store.next_seq
        ingest.run(max_records=30)  # appended, never checkpointed
        past = ingest.store.next_seq
        ingest.store.close()
        resumed = make_ingest(scenario, tmp_path / "store",
                              tmp_path / "ckpt.json", checkpoint_every=1000)
        assert resumed.store.next_seq == checkpointed
        assert resumed.records_ingested == 50
        resumed.run()
        resumed.finish()
        assert resumed.store.next_seq >= past


def reference_encoding(document):
    """What ``json.dump(payload, handle, sort_keys=True)`` writes."""
    payload = dict(document)
    payload["version"] = CHECKPOINT_VERSION
    text = json.dumps(payload, sort_keys=True)
    handle = io.StringIO()
    json.dump(payload, handle, sort_keys=True)
    assert handle.getvalue() == text
    return text.encode("utf-8")


class TestCheckpointEncoding:
    """``save_checkpoint`` encodes one section at a time; the file must
    still be byte-for-byte the single-document encoding."""

    def test_edge_values_match_reference(self, tmp_path):
        document = {
            "zeta": None, "alpha": [], "empty": {}, "text": "Zürich → 東京",
            "nested": {"b": [None, {}, []], "a": {"\u00e9": 1.5e-7}},
            "numbers": [0, -1, 2**70, 0.1, 1e300], "flag": False,
        }
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, document)
        assert path.read_bytes() == reference_encoding(document)
        assert load_checkpoint(path) == {**document,
                                         "version": CHECKPOINT_VERSION}

    def test_mid_ingest_document_matches_reference(self, scenario, tmp_path,
                                                   monkeypatch):
        documents = []

        def capture(path, document):
            documents.append(document)
            save_checkpoint(path, document)

        monkeypatch.setattr(ingest_module, "save_checkpoint", capture)
        ingest = make_ingest(scenario, tmp_path / "store",
                             tmp_path / "ckpt.json", checkpoint_every=1000)
        ingest.run(max_records=50)
        ingest.checkpoint()
        ingest.store.close()
        (document,) = documents
        assert document["detector"] and document["ring"]
        assert (tmp_path / "ckpt.json").read_bytes() \
            == reference_encoding(document)

    def test_every_periodic_checkpoint_matches_reference(
            self, scenario, tmp_path, monkeypatch):
        written = []

        def capture(path, document):
            save_checkpoint(path, document)
            written.append((path.read_bytes(), reference_encoding(document)))

        monkeypatch.setattr(ingest_module, "save_checkpoint", capture)
        ingest = make_ingest(scenario, tmp_path / "store",
                             tmp_path / "ckpt.json", checkpoint_every=7)
        ingest.run()
        ingest.finish()
        ingest.store.close()
        assert len(written) == ingest.records_ingested // 7 + 1
        for index, (actual, expected) in enumerate(written):
            assert actual == expected, f"checkpoint {index} differs"
