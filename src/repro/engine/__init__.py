"""Execution substrate: deterministic interpreter, instrumentation, fetch model."""

from .datastream import DATA_SPACE_BASE, merged_stream
from .fetch import fetch_lines, line_spans
from .instrument import TraceBundle, collect_trace, load_bundle, save_bundle
from .interpreter import RunResult, run
from .state import InputSpec

__all__ = [
    "DATA_SPACE_BASE",
    "InputSpec",
    "RunResult",
    "TraceBundle",
    "collect_trace",
    "fetch_lines",
    "line_spans",
    "load_bundle",
    "merged_stream",
    "run",
    "save_bundle",
]
