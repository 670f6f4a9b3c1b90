"""Property tests: the onset-matrix hierarchy against the pair-by-pair oracle.

``build_hierarchy`` reads every pairwise affinity test off
:meth:`AffinityAnalysis.onset_matrix`; ``build_hierarchy_reference``
calls ``is_affine`` once per member pair.  The forests must be equal
node for node (``w``, ``symbol``, ``first_occ`` and child order).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AffinityAnalysis, build_hierarchy, layout_order
from repro.engine import collect_trace
from repro.workloads import SUITE, build

from .hierarchy_oracle import build_hierarchy_reference


@st.composite
def analyses(draw, max_symbols=12, max_len=120):
    """A random trace analysed at a random w_max and coverage."""
    n_symbols = draw(st.integers(1, max_symbols))
    trace = draw(st.lists(st.integers(0, n_symbols - 1), min_size=1, max_size=max_len))
    w_max = draw(st.integers(1, 20))
    coverage = draw(st.floats(0.0, 1.0, exclude_min=True))
    return AffinityAnalysis(np.array(trace, dtype=np.int64), w_max=w_max, coverage=coverage)


@settings(max_examples=60, deadline=None)
@given(analysis=analyses())
def test_is_affine_is_monotone_in_w(analysis):
    symbols = analysis.symbols
    for x in symbols:
        for y in symbols:
            affine = [analysis.is_affine(x, y, w) for w in range(1, analysis.w_max + 1)]
            # once affine, affine at every larger w.
            assert affine == sorted(affine)


@settings(max_examples=60, deadline=None)
@given(analysis=analyses())
def test_onset_matrix_agrees_with_is_affine(analysis):
    onsets = analysis.onset_matrix()
    symbols = analysis.symbols
    for i, x in enumerate(symbols):
        for j, y in enumerate(symbols):
            for w in range(1, analysis.w_max + 1):
                assert analysis.is_affine(x, y, w) == (w >= onsets[i, j])


@settings(max_examples=200, deadline=None)
@given(analysis=analyses(), data=st.data())
def test_forest_equals_oracle(analysis, data):
    # None is the default 2..w_max sweep; a drawn set may be sparse, e.g. [3].
    w_values = data.draw(
        st.none() | st.sets(st.integers(1, analysis.w_max)).map(sorted)
    )
    assert build_hierarchy(analysis, w_values) == build_hierarchy_reference(
        analysis, w_values
    )


@settings(max_examples=60, deadline=None)
@given(analysis=analyses(max_symbols=30, max_len=300))
def test_layout_order_is_permutation_of_symbols(analysis):
    assert sorted(layout_order(build_hierarchy(analysis))) == sorted(analysis.symbols)


@pytest.mark.parametrize("granularity", ["bb", "func"])
@pytest.mark.parametrize("name", sorted(SUITE))
def test_suite_forest_equals_oracle(name, granularity):
    prog, module = build(name, ref_blocks=10_000, test_blocks=2_000)
    bundle = collect_trace(module, prog.spec.test_input())
    trace = bundle.bb_trace if granularity == "bb" else bundle.func_trace
    analysis = AffinityAnalysis(trace, w_max=20)
    assert build_hierarchy(analysis) == build_hierarchy_reference(analysis)
