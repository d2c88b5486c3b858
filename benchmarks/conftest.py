"""Shared helpers for the benchmark suite.

Every benchmark regenerates one experiment of DESIGN.md's index (E1-E6).
Absolute numbers are this machine's; EXPERIMENTS.md records the *shapes*
the paper's claims predict, and the benches assert those shapes where they
are deterministic (virtual-clock costs, operation counts) while leaving
wall-clock comparisons to the pytest-benchmark tables.

The ``obs_records`` fixture routes benchmark numbers through the same
:class:`repro.obs.JsonlSink` the runtime uses, appending one JSON line
per measurement to ``BENCH_obs.json`` next to this file — a
machine-readable perf trajectory that accumulates across PRs.

This module is also the **one** reader/appender for every
``BENCH_*.json`` trajectory file: :func:`append_bench_record` stamps
and appends a record, :func:`read_bench_records` streams the intact
lines back (skipping blanks and torn tails), and
:func:`latest_baselines` resolves the committed ``"baseline"`` records
the CI ``--check`` gates compare against.  Bench scripts import these
instead of hand-rolling JSONL (they run both as scripts and under
pytest, so they put this directory on ``sys.path`` first).
:func:`gate_arguments` parses the ``--quick``/``--check``/``--baseline``
flags the gated benches share, and :func:`run_label` names the record a
run appends.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "tests"))

OBS_PATH = Path(__file__).parent.parent / "BENCH_obs.json"


def bench_path(name):
    """Repo-root path of the ``BENCH_<name>.json`` trajectory file."""
    return Path(__file__).parent.parent / "BENCH_{}.json".format(name)


def append_bench_record(path, name, label, **fields):
    """Append one stamped JSONL bench record; returns the record.

    Every record carries the same envelope — ``type``/``name``/
    ``label``/``recorded_at``/``python`` — so trajectory files stay
    uniformly queryable across benches and PRs.  ``label`` is the
    record's provenance: ``"baseline"`` records gate CI, ``"suite"`` /
    ``"quick"`` / ``"full"`` records only accumulate history.
    """
    record = {
        "type": "bench",
        "name": name,
        "label": label,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
    }
    record.update(fields)
    with open(path, "a") as handle:
        handle.write(json.dumps(record) + "\n")
    return record


def read_bench_records(path, name=None, label=None):
    """Every intact record in ``path``, optionally filtered.

    Blank lines, torn lines and non-object lines are skipped, not
    fatal — trajectory files are append-only across many runs and a
    single bad line must not take down a CI gate.
    """
    records = []
    path = Path(path)
    if not path.exists():
        return records
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if not isinstance(entry, dict):
                continue
            if name is not None and entry.get("name") != name:
                continue
            if label is not None and entry.get("label") != label:
                continue
            records.append(entry)
    return records


def gate_arguments(argv, description, quick, check):
    """Parse the flags of a gated bench script.

    ``--quick`` is a small CI-sized run, ``--check`` the CI gate (exit 1
    on a regression) and ``--baseline`` records the run as the committed
    baseline; ``quick`` and ``check`` are the bench's help texts (plain
    text: a ``%`` in them is escaped for argparse here).
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--quick", action="store_true",
                        help=quick.replace("%", "%%"))
    parser.add_argument("--check", action="store_true",
                        help=check.replace("%", "%%"))
    parser.add_argument(
        "--baseline", action="store_true",
        help="record the results as the committed baseline",
    )
    return parser.parse_args(argv)


def run_label(args):
    """The label of the records a run appends (see
    :func:`append_bench_record`)."""
    if args.baseline:
        return "baseline"
    return "quick" if args.quick else "full"


def latest_baselines(path, name, key="workload"):
    """``record[key]`` → most recent committed ``"baseline"`` record."""
    baselines = {}
    for entry in read_bench_records(path, name=name, label="baseline"):
        if key in entry:
            baselines[entry[key]] = entry
    return baselines


class _BenchRecorder:
    """Session-wide JSONL emitter for benchmark results (appends)."""

    def __init__(self, path):
        from repro.obs import JsonlSink

        self._handle = open(path, "a")
        self._sink = JsonlSink(self._handle)
        self._stamp = time.strftime("%Y-%m-%dT%H:%M:%S")

    def emit(self, name, **fields):
        self._sink.write_record(
            name,
            recorded_at=self._stamp,
            python=platform.python_version(),
            **fields
        )

    def emit_benchmark(self, name, benchmark, **fields):
        """Emit a pytest-benchmark result's headline stats."""
        metadata = getattr(benchmark, "stats", None)
        stats = getattr(metadata, "stats", None)
        if stats is None:  # --benchmark-disable runs have no stats
            self.emit(name, **fields)
            return
        self.emit(
            name,
            mean_seconds=stats.mean,
            min_seconds=stats.min,
            stddev_seconds=stats.stddev,
            rounds=stats.rounds,
            **fields
        )

    def close(self):
        self._sink.close()
        self._handle.close()


@pytest.fixture(scope="session")
def obs_records():
    recorder = _BenchRecorder(OBS_PATH)
    yield recorder
    recorder.close()
