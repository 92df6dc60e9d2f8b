"""merge_tagged against a sequential anchored merge kept here as the reference.

The reference sorts (value, EigenSource) pairs by value and then by the
source's (fiber value, cross-section value, branch), stably, and walks them
once, opening a new group whenever a value is not within the merge
tolerance of the first value of the current group. merge_tagged must give
the same entries: the same anchor values bit for bit, the same
multiplicities and the same sources in the same order.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from steklovwarp.provenance import (
    MERGE_ATOL,
    MERGE_RTOL,
    EigenSource,
    SpectrumEntry,
    SpectrumWithProvenance,
    merge_tagged,
)


def sort_key(source):
    return (source.fiber_value, source.cross_value, source.branch)


def reference_merge(tagged):
    ordered = sorted(tagged, key=lambda vs: (vs[0], sort_key(vs[1])))
    entries = []
    group_value = None
    group_sources = []

    def close(a, b):
        return abs(a - b) <= max(MERGE_RTOL * max(abs(a), abs(b)), MERGE_ATOL)

    for value, source in ordered:
        if group_value is not None and close(value, group_value):
            group_sources.append(source)
        else:
            if group_value is not None:
                entries.append(reference_entry(group_value, group_sources))
            group_value = value
            group_sources = [source]
    if group_value is not None:
        entries.append(reference_entry(group_value, group_sources))
    return SpectrumWithProvenance(tuple(entries))


def reference_entry(value, sources):
    mult = sum(s.multiplicity for s in sources)
    return SpectrumEntry(value, mult, tuple(sources))


# few distinct fields, so that sources tie on their sort key and input order decides
sources = st.builds(
    EigenSource,
    fiber_value=st.sampled_from([0.0, 1.0, 4.0]),
    fiber_mult=st.sampled_from([1, 2]),
    cross_value=st.sampled_from([0.0, 1.0]),
    cross_mult=st.sampled_from([1, 2, 4]),
    branch=st.sampled_from([0, 1]),
)


@st.composite
def chains(draw):
    """Values in runs whose neighbours lie 0.5e-12 to 2e-12 apart, relative or absolute.

    A run longer than the tolerance is split by the anchored test, not
    chained through. Runs start at zero (signed), near zero, or at
    magnitudes from 1e-3 to 1e3 of either sign.
    """
    start = draw(st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.floats(-3e-12, 3e-12),
        st.floats(1e-3, 1e3),
        st.floats(-1e3, -1e-3),
    ))
    steps = draw(st.lists(st.floats(0.5e-12, 2e-12), max_size=6))
    values = [start]
    for step in steps:
        last = values[-1]
        values.append(last + step * max(abs(last), 1.0))
    return values


@st.composite
def tagged_lists(draw):
    values = [v for chain in draw(st.lists(chains(), min_size=1, max_size=5)) for v in chain]
    values += draw(st.lists(st.sampled_from([0.0, -0.0]), max_size=3))
    # equal values from different sources
    values += draw(st.lists(st.sampled_from(values), max_size=4))
    tagged = [(value, draw(sources)) for value in values]
    return draw(st.permutations(tagged))


def entry_key(entry):
    return (math.copysign(1.0, entry.value), entry.value.hex(), entry.multiplicity, entry.sources)


@settings(deadline=None)
@given(tagged_lists())
def test_equals_reference_merge(tagged):
    got = merge_tagged(list(tagged))
    expected = reference_merge(list(tagged))
    assert [entry_key(e) for e in got.entries] == [entry_key(e) for e in expected.entries]
    assert got.total_multiplicity == sum(s.multiplicity for _, s in tagged)


def test_anchor_splits_a_run_of_near_neighbours():
    # each step is inside the tolerance, the run as a whole is not
    values = [1.0, 1.0 + 0.9e-12, 1.0 + 1.8e-12, 1.0 + 2.7e-12]
    tagged = [(v, EigenSource(0.0, 1, float(j), 1, 0)) for j, v in enumerate(values)]
    got = merge_tagged(tagged[::-1])
    assert got.entries == reference_merge(tagged).entries
    assert [e.value for e in got.entries] == [1.0, 1.0 + 1.8e-12]
    assert [e.multiplicity for e in got.entries] == [2, 2]


def test_empty():
    assert merge_tagged([]).entries == ()
