"""``repro top`` — a live cluster dashboard over ``GET /metrics``.

Pure stdlib and pure text: the dashboard polls the exposition endpoint
(:mod:`repro.obs.metrics`), diffs consecutive scrapes, and redraws one
ANSI screen per interval.  Everything interesting is **windowed** —
req/s from counter deltas, per-op p50/p95 from bucket-wise histogram
deltas — so the numbers describe the last interval, not the process's
lifetime average.

The rendering core (:meth:`TopView.render`) is a pure function of two
scrapes and is tested without any server or terminal; the poll loop
(:func:`run_top`) only adds urllib, sleep and the clear-screen escape.
"""

from __future__ import annotations

import time
import urllib.error
import urllib.request

from .metrics import (
    delta_histogram,
    histograms_from_families,
    parse_prometheus,
)

#: Clear screen + cursor home — the whole "curses" this dashboard needs.
CLEAR = "\x1b[H\x1b[2J"

_HISTO_SUFFIX = "_latency_seconds"


def fetch_metrics(url, timeout=5.0):
    """One scrape: the exposition document at ``url`` as text."""
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read().decode("utf-8", "replace")


def _counters(families):
    """Unlabeled ``*_total`` samples as ``{name: value}``."""
    counters = {}
    for name, samples in families.items():
        if not name.endswith("_total"):
            continue
        for labels, value in samples:
            if not labels:
                counters[name] = value
    return counters


def _gauge_series(families, name):
    """``{label_value: value}`` for one (possibly labeled) gauge."""
    series = {}
    for labels, value in families.get(name, ()):
        series[labels.get("worker", "")] = value
    return series


def _display_name(family):
    """``repro_op_render_latency_seconds`` → ``op_render``."""
    name = family
    if name.startswith("repro_"):
        name = name[len("repro_"):]
    if name.endswith(_HISTO_SUFFIX):
        name = name[: -len(_HISTO_SUFFIX)]
    return name


class TopView:
    """Stateful renderer: feed it scrapes, get screens back.

    Holds the previous scrape so every render shows windowed rates and
    percentiles; the first render (nothing to diff against) shows
    since-start values, labeled as such.
    """

    def __init__(self, source=""):
        self.source = source
        self._previous_families = None
        self._previous_histograms = None
        self._previous_at = None

    def render(self, text, now=None):
        """One dashboard screen for one scrape (no ANSI — the caller
        owns the terminal)."""
        now = time.monotonic() if now is None else now
        families = parse_prometheus(text)
        histograms = histograms_from_families(families)
        counters = _counters(families)
        previous = self._previous_families
        windowed = previous is not None
        elapsed = (
            (now - self._previous_at)
            if windowed and self._previous_at is not None else 0.0
        )
        previous_counters = _counters(previous) if windowed else {}
        previous_histograms = self._previous_histograms or {}

        def rate(name):
            value = counters.get(name, 0.0)
            if not windowed or elapsed <= 0:
                return None
            return max(0.0, value - previous_counters.get(name, 0.0)) \
                / elapsed

        lines = []
        title = "repro top"
        if self.source:
            title += " — " + self.source
        window_note = (
            "window {:.1f}s".format(elapsed) if windowed and elapsed > 0
            else "since start"
        )
        lines.append("{}   [{}]".format(title, window_note))

        routed = counters.get("repro_cluster_requests_routed_total")
        summary = []
        if routed is not None:
            routed_rate = rate("repro_cluster_requests_routed_total")
            summary.append(
                "requests: {}{:g} total".format(
                    "{:.1f}/s, ".format(routed_rate)
                    if routed_rate is not None else "",
                    routed,
                )
            )
        hit_rate = self._memo_hit_rate(counters, previous_counters,
                                       windowed)
        if hit_rate is not None:
            summary.append("memo hit rate: {:.1f}%".format(hit_rate * 100))
        breakers = _gauge_series(families, "repro_sessions_open_breakers")
        if breakers:
            total = sum(breakers.values())
            noisy = {w: int(v) for w, v in breakers.items() if v}
            summary.append(
                "open breakers: {:g}{}".format(
                    total, " {}".format(noisy) if noisy else ""
                )
            )
        if summary:
            lines.append("   ".join(summary))
        lines.append("")

        lines.extend(self._op_table(histograms, previous_histograms,
                                    windowed, elapsed))
        worker_lines = self._worker_table(families)
        if worker_lines:
            lines.append("")
            lines.extend(worker_lines)

        self._previous_families = families
        self._previous_histograms = histograms
        self._previous_at = now
        return "\n".join(lines) + "\n"

    def _memo_hit_rate(self, counters, previous_counters, windowed):
        """Render-memo hit rate (windowed when possible)."""
        def delta(name):
            value = counters.get(name)
            if value is None:
                return None
            if windowed:
                return max(0.0, value - previous_counters.get(name, 0.0))
            return value

        hits = delta("repro_memo_hits_total")
        misses = delta("repro_memo_misses_total")
        if hits is None or misses is None or hits + misses <= 0:
            return None
        return max(0.0, min(1.0, hits / (hits + misses)))

    def _op_table(self, histograms, previous_histograms, windowed,
                  elapsed):
        rows = []
        for family in sorted(histograms):
            window = delta_histogram(
                histograms[family],
                previous_histograms.get(family) if windowed else None,
            )
            shown = window if window.count else histograms[family]
            if not shown.count:
                continue
            rows.append((
                _display_name(family),
                window.count,
                (window.count / elapsed
                 if windowed and elapsed > 0 else None),
                shown.quantile(0.5) * 1000.0,
                shown.quantile(0.95) * 1000.0,
            ))
        if not rows:
            return ["(no latency histograms yet)"]
        width = max(len(row[0]) for row in rows)
        lines = ["{}  {:>8} {:>8} {:>10} {:>10}".format(
            "op".ljust(width), "count", "rate/s", "p50 ms", "p95 ms"
        )]
        for name, count, per_second, p50, p95 in rows:
            lines.append("{}  {:>8} {:>8} {:>10.3f} {:>10.3f}".format(
                name.ljust(width), count,
                "{:.1f}".format(per_second)
                if per_second is not None else "-",
                p50, p95,
            ))
        return lines

    def _worker_table(self, families):
        up = _gauge_series(families, "repro_cluster_worker_up")
        if not up:
            return []
        respawns = _gauge_series(
            families, "repro_cluster_worker_respawns"
        )
        ping_age = _gauge_series(
            families, "repro_cluster_worker_ping_age_seconds"
        )
        lines = ["{:<8} {:>4} {:>9} {:>10}".format(
            "worker", "up", "respawns", "ping age"
        )]
        for worker in sorted(up, key=lambda w: (len(w), w)):
            age = ping_age.get(worker)
            lines.append("{:<8} {:>4} {:>9} {:>10}".format(
                worker,
                "yes" if up[worker] else "NO",
                "{:g}".format(respawns.get(worker, 0)),
                "{:.1f}s".format(age) if age is not None else "-",
            ))
        return lines


def run_top(url, interval=2.0, iterations=None, out=None, clear=True):
    """The poll loop: scrape, render, redraw, sleep; Ctrl-C exits.

    ``iterations=None`` runs forever; a number runs that many frames
    (what the tests and one-shot inspection use).  Returns 0, or 1 when
    the very first scrape fails (nothing to show at all).
    """
    import sys

    out = sys.stdout if out is None else out
    view = TopView(source=url)
    shown = 0
    while iterations is None or shown < iterations:
        try:
            text = fetch_metrics(url)
        except (urllib.error.URLError, OSError, ValueError) as error:
            if shown == 0:
                print("error: cannot scrape {}: {}".format(url, error),
                      file=out)
                return 1
            # Mid-run blips (a front restarting) keep the last screen.
            time.sleep(interval)
            continue
        screen = view.render(text)
        if clear:
            out.write(CLEAR)
        out.write(screen)
        out.flush()
        shown += 1
        if iterations is None or shown < iterations:
            time.sleep(interval)
    return 0
