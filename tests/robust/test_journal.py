"""Unit tests for the JSONL run journal (repro.robust.journal)."""

import json

import pytest

from repro.robust import ArtifactError, RunJournal


def test_record_and_read_back(tmp_path):
    journal = RunJournal(tmp_path / "run.jsonl")
    journal.record("fig5", "ok", elapsed_s=1.5, attempts=1)
    journal.record("fig6", "failed", error={"type": "SimulationError", "message": "x"})
    entries = journal.entries()
    assert [e.exp_id for e in entries] == ["fig5", "fig6"]
    assert entries[0].status == "ok"
    assert entries[1].error["type"] == "SimulationError"


def test_completed_uses_latest_status(tmp_path):
    journal = RunJournal(tmp_path / "run.jsonl")
    journal.record("fig5", "failed")
    journal.record("fig5", "ok")
    journal.record("fig6", "ok")
    journal.record("fig6", "failed")  # later failure invalidates
    assert journal.completed() == {"fig5"}


def test_missing_journal_is_empty(tmp_path):
    journal = RunJournal(tmp_path / "absent.jsonl")
    assert journal.entries() == []
    assert journal.completed() == set()


def test_rejects_bad_status(tmp_path):
    journal = RunJournal(tmp_path / "run.jsonl")
    with pytest.raises(ValueError, match="status"):
        journal.record("fig5", "exploded")


def test_torn_final_line_is_dropped(tmp_path):
    """A crash mid-append leaves a truncated last line; reading must shrug
    it off, not die."""
    path = tmp_path / "run.jsonl"
    journal = RunJournal(path)
    journal.record("fig5", "ok")
    journal.record("fig6", "ok")
    with path.open("a") as fh:
        fh.write('{"exp_id": "fig7", "sta')  # torn mid-crash
    entries = journal.entries()
    assert [e.exp_id for e in entries] == ["fig5", "fig6"]
    assert journal.completed() == {"fig5", "fig6"}


def test_garbled_interior_line_is_a_real_corruption(tmp_path):
    path = tmp_path / "run.jsonl"
    journal = RunJournal(path)
    journal.record("fig5", "ok")
    with path.open("a") as fh:
        fh.write("NOT JSON\n")
    journal.record("fig6", "ok")
    with pytest.raises(ArtifactError) as exc:
        journal.entries()
    assert exc.value.path == str(path)
    assert "line 2" in str(exc.value)


def test_lines_are_valid_json_objects(tmp_path):
    path = tmp_path / "run.jsonl"
    RunJournal(path).record("table1", "skipped", attempts=0)
    raw = json.loads(path.read_text().strip())
    assert raw["exp_id"] == "table1"
    assert raw["status"] == "skipped"
    assert raw["error"] is None


def test_append_after_hard_kill_repairs_torn_tail(tmp_path):
    """Recording after a kill mid-append must truncate the torn line first.

    Without the write-time repair, the new record would be appended onto
    the torn fragment, merging both into one garbled *interior* line —
    turning a survivable crash signature into a resume-blocking
    corruption.  This is the regression the fix pins down.
    """
    path = tmp_path / "run.jsonl"
    journal = RunJournal(path)
    journal.record("fig5", "ok")
    with path.open("a") as fh:
        fh.write('{"exp_id": "fig6", "sta')  # hard kill mid-append
    journal.record("fig7", "ok")  # resume appends after the kill
    entries = journal.entries()  # no ArtifactError: tail was repaired
    assert [e.exp_id for e in entries] == ["fig5", "fig7"]
    assert journal.completed() == {"fig5", "fig7"}


def test_silent_interior_corruption_is_detected_by_checksum(tmp_path):
    """A bit flip that keeps the line valid JSON must still be caught."""
    path = tmp_path / "run.jsonl"
    journal = RunJournal(path)
    journal.record("fig5", "ok")
    journal.record("fig6", "ok")
    lines = path.read_text().splitlines()
    # Flip an outcome without touching the stored checksum: still
    # perfectly parseable JSON, just silently wrong.
    lines[0] = lines[0].replace('"ok"', '"failed"')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ArtifactError) as exc:
        journal.entries()
    assert "line 1" in str(exc.value)
    assert "checksum" in str(exc.value)


def test_corrupt_final_checksum_is_dropped_like_a_torn_tail(tmp_path):
    path = tmp_path / "run.jsonl"
    journal = RunJournal(path)
    journal.record("fig5", "ok")
    journal.record("fig6", "ok")
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1].replace('"ok"', '"failed"')
    path.write_text("\n".join(lines) + "\n")
    assert [e.exp_id for e in journal.entries()] == ["fig5"]


def test_checkless_records_from_older_versions_still_read(tmp_path):
    path = tmp_path / "run.jsonl"
    with path.open("w") as fh:
        fh.write(json.dumps({"exp_id": "fig5", "status": "ok"}) + "\n")
    journal = RunJournal(path)
    journal.record("fig6", "ok")
    assert [e.exp_id for e in journal.entries()] == ["fig5", "fig6"]


def test_outcomes_round_trip_inside_the_checksum(tmp_path):
    """``summary`` and ``rows`` are recorded, read back equal, and a
    silent edit of a summary value is a checksum failure."""
    path = tmp_path / "run.jsonl"
    journal = RunJournal(path)
    journal.record(
        "fig4", "ok", summary={"avg": 0.25, "gap": float("nan")}, rows=[["syn-gcc", 1.5]]
    )
    journal.record("fig6", "ok")
    first, second = journal.entries()
    assert first.summary["avg"] == 0.25 and first.summary["gap"] != first.summary["gap"]
    assert first.rows == [["syn-gcc", "1.5"]]
    assert second.summary is None and second.rows is None
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace("0.25", "0.26")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ArtifactError, match="line 1"):
        journal.entries()


def test_entries_without_outcomes_still_read(tmp_path):
    path = tmp_path / "run.jsonl"
    path.write_text(json.dumps({"exp_id": "fig5", "status": "ok", "error": None}) + "\n")
    [entry] = RunJournal(path).entries()
    assert entry.summary is None and entry.rows is None
    assert "summary" not in json.loads(entry.to_json())
