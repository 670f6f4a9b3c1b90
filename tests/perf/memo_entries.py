"""Read and rewrite ``SimMemo`` disk entries (``.npz`` archives) in tests."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.locality.footprint import footprint_curve
from repro.perf.memo import curve_key


def read_entry(path: Path) -> dict[str, np.ndarray]:
    """Every named array of one entry, including ``schema``."""
    with np.load(path, allow_pickle=False) as npz:
        return {name: npz[name] for name in npz.files}


def write_entry(path: Path, arrays: dict) -> None:
    """Overwrite an entry with ``arrays`` (no validation)."""
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def schema_of(path: Path) -> str:
    return str(read_entry(path)["schema"])


def lab_curve(memo, lines):
    """The footprint curve of ``lines`` through ``memo``, looked up and
    stored with ``get_curve``/``put_curve`` as ``Lab.footprint`` does."""
    key = curve_key(lines)
    curve = memo.get_curve(key)
    if curve is None:
        curve = footprint_curve(lines)
        memo.put_curve(key, curve)
    return curve
