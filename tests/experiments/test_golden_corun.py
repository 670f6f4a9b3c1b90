"""The committed co-run golden journal (``tests/golden/corun-0.05.jsonl``).

CI reruns the whole recorded suite and gates it with ``python -m
repro.perf compare-journals``.  Here the journal must read back with an
outcome in every entry, and the cheapest co-run experiment — the N-thread
``smt-width`` sweep, which runs the prefetch-free co-run path at up to
eight threads — must reproduce its recorded entry exactly.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

from repro.experiments.runner import main as runner_main
from repro.perf import compare_journal_outcomes
from repro.robust import RunJournal

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "corun-0.05.jsonl"
IDS = ["table1", "fig4", "table2", "fig6", "smt-width", "cache-sweep"]


def test_golden_journal_carries_every_outcome():
    entries = RunJournal(GOLDEN).entries()
    assert [e.exp_id for e in entries] == IDS
    for entry in entries:
        assert entry.status == "ok"
        assert entry.summary and entry.rows


def test_smt_width_reproduces_its_golden_entry(tmp_path):
    journal = tmp_path / "smt-width.jsonl"
    with redirect_stdout(io.StringIO()):
        code = runner_main(
            ["--only", "smt-width", "--scale", "0.05", "--journal", str(journal)]
        )
    assert code == 0
    want = [vars(e) for e in RunJournal(GOLDEN).entries() if e.exp_id == "smt-width"]
    got = [vars(e) for e in RunJournal(journal).entries()]
    assert compare_journal_outcomes(want, got) == []
