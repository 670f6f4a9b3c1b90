"""The committed fleet golden journal (``tests/golden/fleet-0.05.jsonl``).

It pins the Fig. 5 affinity results, the scheduling costs and the X7
fleet outcome (``--only fig5 scheduling fleet --scale 0.05``).  CI
reruns it plainly and with a fresh memo and store, and gates both with
``python -m repro.perf compare-journals``.  Here the journal must read
back with an outcome in every entry, and a fleet run through a fresh
memo and store — the recipe-keyed curve path — must reproduce its
recorded entry exactly.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

from repro.experiments.runner import main as runner_main
from repro.perf import compare_journal_outcomes
from repro.robust import RunJournal

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "fleet-0.05.jsonl"
IDS = ["fig5", "scheduling", "fleet"]


def test_golden_journal_carries_every_outcome():
    entries = RunJournal(GOLDEN).entries()
    assert [e.exp_id for e in entries] == IDS
    for entry in entries:
        assert entry.status == "ok"
        assert entry.summary and entry.rows
    fleet = entries[-1].summary
    assert (fleet["curve_passes"], fleet["curve_memo_hits"]) == (29, 0)


def test_cold_memo_fleet_reproduces_its_golden_entry(tmp_path):
    journal = tmp_path / "fleet.jsonl"
    with redirect_stdout(io.StringIO()):
        code = runner_main(
            [
                "--only", "fleet", "--scale", "0.05", "--journal", str(journal),
                "--memo-dir", str(tmp_path / "memo"), "--store-dir", str(tmp_path / "store"),
            ]
        )
    assert code == 0
    want = [vars(e) for e in RunJournal(GOLDEN).entries() if e.exp_id == "fleet"]
    got = [vars(e) for e in RunJournal(journal).entries()]
    assert compare_journal_outcomes(want, got) == []
