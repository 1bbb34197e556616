import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from maxentos.intervals import IntervalSet, gap_inside_mask, inside_mask


def _search_inside(iset, t):
    # the per-point interval search, for any number of intervals
    t = np.asarray(t, dtype=float)
    if len(iset) == 0:
        return np.zeros(t.shape, dtype=bool)
    starts = np.array([g for g, _ in iset])
    ends = np.array([d for _, d in iset])
    idx = np.searchsorted(starts, t, side="right") - 1
    idxc = np.clip(idx, 0, len(starts) - 1)
    return (idx >= 0) & (t > starts[idxc]) & (t < ends[idxc])


def _search_gap_inside(iset, a, b, tol):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    empty = b <= a + tol
    if len(iset) == 0:
        return empty
    starts = np.array([g for g, _ in iset])
    ends = np.array([d for _, d in iset])
    idx = np.searchsorted(starts, a + tol, side="right") - 1
    idxc = np.clip(idx, 0, len(starts) - 1)
    return empty | ((idx >= 0) & (b <= ends[idxc] + tol))


_finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
_tols = st.sampled_from([0.0, 1e-12, 1e-9, 0.25])


@st.composite
def _interval_sets(draw):
    # zero to four intervals from sorted endpoints; neighbours may touch,
    # and the outer ends may be infinite
    ends = sorted(draw(st.lists(_finite, min_size=0, max_size=8)))
    if draw(st.booleans()):
        ends.insert(0, -math.inf)
    if draw(st.booleans()):
        ends.append(math.inf)
    pairs = []
    for g, d in zip(ends[::2], ends[1::2]):
        if pairs and draw(st.booleans()):
            g = pairs[-1][1]
        if g < d:
            pairs.append((g, d))
    return IntervalSet(tuple(pairs))


def _points(iset, tol, draw):
    # points anywhere, on and near every endpoint, and the non-finite ones
    special = [math.nan, math.inf, -math.inf, 0.0, -0.0]
    for e in (x for pair in iset for x in pair):
        special += [e, e + tol, e - tol,
                    np.nextafter(e, math.inf), np.nextafter(e, -math.inf)]
    return np.array(draw(st.lists(st.one_of(_finite, st.sampled_from(special)),
                                  min_size=1, max_size=40)))


@settings(max_examples=400, deadline=None)
@given(data=st.data(), iset=_interval_sets(), tol=_tols)
def test_inside_mask_matches_search(data, iset, tol):
    t = _points(iset, tol, data.draw)
    np.testing.assert_array_equal(inside_mask(iset, t), _search_inside(iset, t))


@settings(max_examples=400, deadline=None)
@given(data=st.data(), iset=_interval_sets(), tol=_tols)
def test_gap_inside_mask_matches_search(data, iset, tol):
    a = _points(iset, tol, data.draw)
    b = _points(iset, tol, data.draw)
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    np.testing.assert_array_equal(gap_inside_mask(iset, a, b, tol),
                                  _search_gap_inside(iset, a, b, tol))


def test_nan_gap_start_counts_as_past_every_start():
    # the search sorts a NaN after every start, so only the end decides
    iset = IntervalSet(((0.0, 1.0),))
    a = np.array([math.nan, math.nan, 0.2])
    b = np.array([0.5, 2.0, math.nan])
    expect = np.array([True, False, False])
    np.testing.assert_array_equal(gap_inside_mask(iset, a, b, 1e-12), expect)
    np.testing.assert_array_equal(_search_gap_inside(iset, a, b, 1e-12), expect)


def test_several_intervals_match_the_search():
    iset = IntervalSet(((-math.inf, -1.0), (0.0, 0.5), (0.5, 2.0)))
    t = np.array([-5.0, -1.0, 0.0, 0.25, 0.5, 1.0, 2.0, math.nan, math.inf])
    np.testing.assert_array_equal(inside_mask(iset, t), _search_inside(iset, t))
    a = np.array([-3.0, 0.1, 0.4, 0.6, math.nan, 0.5])
    b = np.array([-1.0, 0.5, 0.6, 2.0, 1.0, 0.5])
    for tol in (0.0, 1e-12):
        np.testing.assert_array_equal(gap_inside_mask(iset, a, b, tol),
                                      _search_gap_inside(iset, a, b, tol))
