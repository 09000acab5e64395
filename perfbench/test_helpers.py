"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/test_helpers.py -q
"""

import numpy as np
import pytest

from helpers import (Span, Timing, Tracer, check_metric_name, clamp_fraction,
                     covered_length, self_times, tail_percentile)


@pytest.mark.parametrize("n, pct, beyond", [
    (1000, 99.0, 10),
    (999, 95.0, 49),        # p99 would leave only 999 - 990 = 9 beyond
    (100, 90.0, 10),
    (200, 95.0, 10),
    (40, 75.0, 10),
    (20, 50.0, 10),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, pct, beyond):
    samples = np.arange(n, dtype=float)[::-1]      # order must not matter
    got_pct, value, got_beyond = tail_percentile(samples)
    assert got_pct == pct
    assert got_beyond == beyond >= 10
    assert value == sorted(samples)[n - beyond - 1]


def test_tail_falls_back_to_maximum_with_few_samples():
    assert tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0, 0)
    assert tail_percentile(list(range(19)))[0] == 100.0
    with pytest.raises(ValueError):
        tail_percentile([])


def test_timing_reports_median_and_tail():
    t = Timing.of(list(range(1, 101)))
    assert (t.n, t.p50, t.tail_pct, t.tail, t.beyond) == (100, 50.5, 90.0, 90, 10)


def test_self_time_subtracts_union_of_children():
    spans = [
        Span(0, "op", None, 0.0, 10.0),
        Span(1, "a", 0, 1.0, 3.0),
        Span(2, "b", 0, 2.0, 5.0),      # overlaps a: union is [1, 5]
        Span(3, "c", 0, 8.0, 12.0),     # only [8, 10] lies inside op
        Span(4, "d", 2, 2.5, 3.5),
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert st[1] == pytest.approx(2.0)
    assert st[2] == pytest.approx(3.0 - 1.0)
    assert st[4] == pytest.approx(1.0)
    assert covered_length([(1, 2), (3, 4)], 0, 10) == pytest.approx(2.0)
    assert covered_length([], 0, 10) == 0.0


def test_tracer_records_parents_and_nesting():
    tr = Tracer()
    with tr.span("op"):
        with tr.span("child"):
            with tr.span("grandchild"):
                pass
        with tr.span("sibling"):
            pass
    names = [(s.name, s.parent) for s in tr.spans]
    assert names == [("op", None), ("child", 0), ("grandchild", 1),
                     ("sibling", 0)]
    st = self_times(tr.spans)
    op = tr.spans[0]
    kids = tr.spans[1].duration + tr.spans[3].duration
    assert st[0] == pytest.approx(op.duration - kids)
    assert all(v >= 0 for v in st.values())


@pytest.mark.parametrize("name", [
    "setup_s", "layers.kconv1.fwd_ms", "models.count_ms.alexnet-kan",
    "sweep.run_cell_s.p25", "0.x", "a" * 64,
])
def test_valid_metric_names(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize("name", [
    "", "a b", ".hidden", "-x", "_x", "a" * 65, "layers/kconv1", "naïve",
    "x\n", None,
])
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def test_clamp_fraction_counts_strictly_outside_domain():
    x = np.array([[-3.0, -2.0, 0.0], [2.0, 2.0001, 5.0]], dtype=np.float32)
    assert clamp_fraction(x, (-2.0, 2.0)) == pytest.approx(3 / 6)
    assert clamp_fraction(x, (-10.0, 10.0)) == 0.0
    assert clamp_fraction(x, (6.0, 7.0)) == 1.0
    with pytest.raises(ValueError):
        clamp_fraction(np.zeros(0), (-1.0, 1.0))
