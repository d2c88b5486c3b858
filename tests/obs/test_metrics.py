"""Prometheus exposition, parsing and the ``repro top`` renderer.

The contract under test: a scrape round-trips **losslessly** — counters
and gauge series come back exactly, and sparse cumulative buckets
reconstruct the histogram's exact bucket counts — because ``repro top``
computes windowed percentiles from reconstructed histograms and any
loss would silently skew them.
"""

import math

from repro.obs.histo import Histogram
from repro.obs.metrics import (
    CONTENT_TYPE,
    delta_histogram,
    histograms_from_families,
    metric_name,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.top import TopView, run_top


def build(values):
    histogram = Histogram()
    for value in values:
        histogram.observe(value)
    return histogram


class TestRendering:
    def test_metric_name_spelling(self):
        assert metric_name("cluster.memo.shared_hits") == \
            "repro_cluster_memo_shared_hits"
        assert metric_name("sessions_created", "_total") == \
            "repro_sessions_created_total"

    def test_content_type_is_the_scrapeable_text_format(self):
        assert CONTENT_TYPE.startswith("text/plain")
        assert "version=0.0.4" in CONTENT_TYPE

    def test_counters_render_with_total_suffix_and_type_line(self):
        text = render_prometheus(counters={"sessions_created": 7})
        assert "# TYPE repro_sessions_created_total counter" in text
        assert "repro_sessions_created_total 7" in text.splitlines()

    def test_gauges_render_scalar_or_labeled_never_summed(self):
        text = render_prometheus(gauges={
            "incremental.update_reuse_ratio": {"0": 0.8, "1": 0.4},
            "sessions.open_breakers": 12,
        })
        lines = text.splitlines()
        assert 'repro_incremental_update_reuse_ratio{worker="0"} 0.8' \
            in lines
        assert 'repro_incremental_update_reuse_ratio{worker="1"} 0.4' \
            in lines
        assert "repro_sessions_open_breakers 12" in lines
        # The nonsense sum (1.2) must appear nowhere.
        assert all("1.2" not in line for line in lines)

    def test_histogram_buckets_are_cumulative_and_sparse(self):
        text = render_prometheus(
            histograms={"op.render": build([0.01, 0.01, 2.0])}
        )
        lines = [line for line in text.splitlines()
                 if line.startswith("repro_op_render_latency_seconds")]
        bucket_lines = [line for line in lines if "_bucket" in line]
        # Two occupied buckets plus the +Inf closer — not one line per
        # bucket in the 100+-bucket layout.
        assert len(bucket_lines) == 3
        assert bucket_lines[-1].startswith(
            'repro_op_render_latency_seconds_bucket{le="+Inf"} 3'
        )
        assert "repro_op_render_latency_seconds_count 3" in lines
        assert any("_sum" in line for line in lines)


class TestRoundTrip:
    def test_counters_and_gauges_come_back_exactly(self):
        text = render_prometheus(
            counters={"cluster.requests_routed": 41},
            gauges={"sessions.open_breakers": {"0": 0, "1": 2}},
        )
        families = parse_prometheus(text)
        assert families["repro_cluster_requests_routed_total"] == \
            [({}, 41.0)]
        series = dict(
            (labels["worker"], value)
            for labels, value in families["repro_sessions_open_breakers"]
        )
        assert series == {"0": 0.0, "1": 2.0}

    def test_histogram_reconstruction_is_bucket_exact(self):
        original = build(
            [1e-7, 0.0001, 0.0001, 0.003, 0.04, 0.04, 0.04, 2.0, 500.0]
        )
        families = parse_prometheus(
            render_prometheus(histograms={"op.render": original})
        )
        rebuilt = histograms_from_families(families)[
            "repro_op_render_latency_seconds"
        ]
        assert rebuilt.counts == original.counts
        assert rebuilt.count == original.count
        assert math.isclose(rebuilt.total, original.total, rel_tol=1e-9)
        assert math.isclose(
            rebuilt.quantile(0.95), original.quantile(0.95)
        )

    def test_parser_survives_garbage_lines(self):
        families = parse_prometheus(
            "# HELP whatever\n"
            "repro_good_total 3\n"
            "this is not a sample line {{{\n"
            "repro_bad_value nan-ish-but-not really x\n"
            "\n"
        )
        assert families == {"repro_good_total": [({}, 3.0)]}


class TestDeltaHistogram:
    def test_window_is_the_bucketwise_difference(self):
        previous = build([0.01, 0.02])
        current = build([0.01, 0.02, 0.5, 0.5])
        window = delta_histogram(current, previous)
        assert window.count == 2
        # Only the new observations (0.5s) remain in the window.
        assert window.quantile(0.5) > 0.3

    def test_no_previous_means_since_start(self):
        current = build([0.01])
        window = delta_histogram(current, None)
        assert window == current
        assert window is not current

    def test_process_restart_clamps_to_current(self):
        previous = build([0.01] * 10)
        current = build([0.02])   # fewer observations: a restart
        window = delta_histogram(current, previous)
        assert window == current


def scrape(routed, render_values, up=("1", "1")):
    """A synthetic cluster ``/metrics`` document."""
    return render_prometheus(
        counters={
            "cluster.requests_routed": routed,
            "memo_hits": routed // 2,
            "memo_misses": routed - routed // 2,
        },
        gauges={
            "sessions.open_breakers": {"0": 0, "1": 1},
            "cluster.worker.up": {
                str(n): int(flag) for n, flag in enumerate(up)
            },
            "cluster.worker.respawns": {"0": 0, "1": 3},
            "cluster.worker.ping_age_seconds": {"0": 0.2, "1": 0.4},
        },
        histograms={"op.render": build(render_values)},
    )


class TestTopView:
    def test_first_frame_shows_since_start(self):
        view = TopView(source="http://x/metrics")
        screen = view.render(scrape(10, [0.01, 0.02]), now=100.0)
        assert "repro top — http://x/metrics" in screen
        assert "since start" in screen
        assert "10 total" in screen
        assert "op_render" in screen
        assert "worker" in screen
        assert "open breakers: 1" in screen
        assert "memo hit rate: 50.0%" in screen

    def test_second_frame_is_windowed_with_rates(self):
        view = TopView()
        view.render(scrape(10, [0.01] * 4), now=100.0)
        screen = view.render(
            scrape(30, [0.01] * 4 + [0.5] * 8), now=102.0
        )
        assert "window 2.0s" in screen
        # 20 new requests over 2 seconds.
        assert "10.0/s" in screen
        # The op table shows the window's 8 new observations and their
        # p50 (~500ms), not the lifetime mix.
        row = next(
            line for line in screen.splitlines()
            if line.startswith("op_render")
        )
        assert "8" in row.split()
        p50_ms = float(row.split()[-2])
        assert 400.0 <= p50_ms <= 600.0

    def test_worker_table_flags_a_dead_worker(self):
        view = TopView()
        screen = view.render(scrape(5, [0.01], up=("1", "0")), now=1.0)
        lines = screen.splitlines()
        worker_1 = next(line for line in lines if line.startswith("1 "))
        assert "NO" in worker_1
        assert "3" in worker_1.split()   # its respawn count

    def test_empty_scrape_still_renders(self):
        view = TopView()
        screen = view.render("", now=1.0)
        assert "repro top" in screen
        assert "(no latency histograms yet)" in screen


class TestRunTop:
    def test_unreachable_endpoint_fails_fast(self, capsys):
        # Port 9 (discard) on localhost: nothing listens in CI.
        assert run_top(
            "http://127.0.0.1:9/metrics", interval=0.01, iterations=1
        ) == 1
