"""Log-bucket histogram edge semantics: zero/negative observations and exact
boundary determinism."""

import pytest

from repro.obs.metrics import (
    BYTES_BUCKETS,
    LATENCY_BUCKETS,
    Histogram,
    bucket_index,
    disable_metrics,
    enable_metrics,
)


@pytest.fixture(autouse=True)
def _metrics_on():
    enable_metrics()
    yield
    disable_metrics()


# -- bucket_index edges --------------------------------------------------------


def test_zero_and_negative_observations_land_in_bucket_zero():
    for value in (0.0, -0.0, -1.0, -1e18, float(LATENCY_BUCKETS[0])):
        assert bucket_index(LATENCY_BUCKETS, value) == 0, value


def test_values_exactly_on_a_bound_belong_to_that_bound():
    # `le`-style buckets: an observation equal to a bound counts under it
    for layout in (LATENCY_BUCKETS, BYTES_BUCKETS):
        for i, bound in enumerate(layout):
            assert bucket_index(layout, bound) == i


def test_values_just_past_a_bound_move_to_the_next_bucket():
    for i, bound in enumerate(LATENCY_BUCKETS):
        nudged = bound * (1 + 1e-9)
        assert bucket_index(LATENCY_BUCKETS, nudged) == i + 1


def test_values_beyond_the_last_bound_overflow():
    assert bucket_index(LATENCY_BUCKETS, LATENCY_BUCKETS[-1] * 2) == len(
        LATENCY_BUCKETS
    )
    assert bucket_index(LATENCY_BUCKETS, float("inf")) == len(LATENCY_BUCKETS)


def test_boundary_assignment_is_deterministic_across_repeats():
    values = [0.0, -3.0, LATENCY_BUCKETS[4], LATENCY_BUCKETS[4] * 1.5, 1e9]
    first = [bucket_index(LATENCY_BUCKETS, v) for v in values]
    for _ in range(100):
        assert [bucket_index(LATENCY_BUCKETS, v) for v in values] == first


# -- Histogram behaviour at the edges ------------------------------------------


def test_histogram_counts_zero_and_negative_in_first_bucket():
    hist = Histogram("edge_probe", "probe")
    hist.observe(0.0)
    hist.observe(-5.0)
    snap = hist.snapshot()
    assert snap["counts"][0] == 2
    assert sum(snap["counts"]) == 2
    assert snap["count"] == 2
    assert snap["sum"] == -5.0  # the sum is exact even when buckets clamp


def test_histogram_overflow_bucket():
    hist = Histogram("edge_probe_overflow", "probe", buckets=(1.0, 4.0))
    hist.observe(4.0)  # on the last bound: not overflow
    hist.observe(4.000001)  # past it: overflow
    snap = hist.snapshot()
    assert snap["counts"] == [0, 1, 1]


def test_histogram_rejects_bad_bucket_layouts():
    with pytest.raises(ValueError):
        Histogram("bad", "probe", buckets=())
    with pytest.raises(ValueError):
        Histogram("bad", "probe", buckets=(4.0, 1.0))


def test_openmetrics_cumulative_rendering_at_edges():
    hist = Histogram("edge_probe_render", "probe", buckets=(1.0, 4.0))
    for value in (-1.0, 1.0, 2.0, 100.0):
        hist.observe(value)
    lines = hist.samples()
    assert 'edge_probe_render_bucket{le="1"} 2' in lines  # -1 and the 1.0 bound
    assert 'edge_probe_render_bucket{le="4"} 3' in lines
    assert 'edge_probe_render_bucket{le="+Inf"} 4' in lines
    assert "edge_probe_render_count 4" in lines
