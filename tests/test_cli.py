"""The command-line interface."""

import io

import pytest

from repro.apps.counter import SOURCE as COUNTER
from repro.cli import main


@pytest.fixture
def counter_file(tmp_path):
    path = tmp_path / "counter.live"
    path.write_text(COUNTER)
    return str(path)


def run_cli(*argv):
    out = io.StringIO()
    status = main(list(argv), out=out)
    return status, out.getvalue()


class TestCheck:
    def test_ok(self, counter_file):
        status, output = run_cli("check", counter_file)
        assert status == 0 and "ok" in output

    def test_type_error_listed(self, tmp_path):
        path = tmp_path / "bad.live"
        path.write_text(
            "global g : number = 0\n"
            "page start()\n  render\n    g := 1\n"
        )
        status, output = run_cli("check", str(path))
        assert status == 1
        assert "render code can only read" in output

    def test_syntax_error(self, tmp_path):
        path = tmp_path / "bad.live"
        path.write_text("page start(\n")
        status, output = run_cli("check", str(path))
        assert status == 1 and "syntax error" in output

    def test_missing_file(self):
        status, output = run_cli("check", "/no/such/file.live")
        assert status == 1 and "cannot read" in output


class TestRun:
    def test_screenshot(self, counter_file):
        status, output = run_cli("run", counter_file, "--width", "24")
        assert status == 0
        assert "count: 0" in output

    def test_taps_drive_the_app(self, counter_file):
        status, output = run_cli(
            "run", counter_file,
            "--tap", "count: 0", "--tap", "count: 1",
        )
        assert status == 0 and "count: 2" in output

    def test_trace(self, counter_file):
        _status, output = run_cli("run", counter_file, "--trace")
        assert "STARTUP" in output and "RENDER" in output

    def test_edit_action(self, tmp_path):
        path = tmp_path / "editable.live"
        path.write_text(
            "global apr : number = 4.5\n"
            "page start()\n  render\n    boxed\n      editable apr\n"
        )
        status, output = run_cli(
            "run", str(path), "--edit", "4.5=6.25"
        )
        assert status == 0 and "6.25" in output


class TestTrace:
    def test_trace_prints_span_tree_and_metric_table(self, counter_file):
        status, output = run_cli("trace", counter_file)
        assert status == 0
        assert "trace of" in output
        # The span tree mirrors the transitions that actually fired.
        for span_name in ("startup", "event", "render"):
            assert span_name in output
        # The metric table always shows the full catalog.
        for metric in ("boxes_rendered", "memo_hits", "memo_misses"):
            assert metric in output

    def test_trace_auto_interacts_when_no_actions_given(self, counter_file):
        _status, output = run_cli("trace", counter_file)
        assert "tap" in output          # the auto-driver tapped the app

    def test_trace_with_explicit_taps(self, counter_file):
        status, output = run_cli(
            "trace", counter_file, "--tap", "count: 0", "--tap", "count: 1"
        )
        assert status == 0 and "tap" in output

    def test_trace_accepts_python_example_files(self):
        from pathlib import Path

        quickstart = Path(__file__).parent.parent / "examples/quickstart.py"
        status, output = run_cli("trace", str(quickstart))
        assert status == 0
        assert "boxes_rendered" in output

    def test_trace_jsonl_is_valid(self, counter_file, tmp_path):
        import json

        target = str(tmp_path / "trace.jsonl")
        status, output = run_cli(
            "trace", counter_file, "--trace-jsonl", target
        )
        assert status == 0 and "wrote trace" in output
        with open(target) as handle:
            lines = handle.read().splitlines()
        assert lines
        objects = [json.loads(line) for line in lines]
        assert {obj["type"] for obj in objects} == {"span", "metrics"}
        metrics = [o for o in objects if o["type"] == "metrics"][0]
        assert metrics["metrics"]["boxes_rendered"] > 0

    def test_run_trace_jsonl(self, counter_file, tmp_path):
        import json

        target = str(tmp_path / "run.jsonl")
        status, _output = run_cli(
            "run", counter_file, "--tap", "count: 0",
            "--trace-jsonl", target,
        )
        assert status == 0
        with open(target) as handle:
            for line in handle.read().splitlines():
                json.loads(line)


class TestCompileAndProbe:
    def test_compile_prints_core(self, counter_file):
        status, output = run_cli("compile", counter_file)
        assert status == 0
        assert "global count : number = 0" in output
        assert "page start" in output

    def test_compile_mentions_generated_loops(self, tmp_path):
        path = tmp_path / "loops.live"
        path.write_text(
            "page start()\n  render\n    for i = 1 to 3 do\n      post i\n"
        )
        _status, output = run_cli("compile", str(path))
        assert "generated loop functions" in output

    def test_probe_expression(self, counter_file):
        status, output = run_cli(
            "probe", counter_file, "count + 41"
        )
        assert status == 0 and "41.0" in output

    def test_probe_type_error(self, counter_file):
        status, output = run_cli("probe", counter_file, '1 + "x"')
        assert status == 1 and "error" in output


class TestHtml:
    def test_html_to_stdout(self, counter_file):
        status, output = run_cli("html", counter_file)
        assert status == 0
        assert output.startswith("<!DOCTYPE html>")

    def test_html_to_file(self, counter_file, tmp_path):
        target = tmp_path / "page.html"
        status, output = run_cli(
            "html", counter_file, "-o", str(target)
        )
        assert status == 0
        assert target.read_text().startswith("<!DOCTYPE html>")


class TestFmt:
    def test_fmt_to_stdout(self, tmp_path):
        path = tmp_path / "messy.live"
        path.write_text("global   g:number=  4\npage start()\n  render\n    post g\n")
        status, output = run_cli("fmt", str(path))
        assert status == 0
        assert output.startswith("global g : number = 4")

    def test_fmt_in_place(self, tmp_path):
        path = tmp_path / "messy.live"
        path.write_text("global   g:number=4\npage start()\n  render\n    post g\n")
        status, _output = run_cli("fmt", str(path), "-i")
        assert status == 0
        assert path.read_text().startswith("global g : number = 4")

    def test_fmt_reports_syntax_errors(self, tmp_path):
        path = tmp_path / "broken.live"
        path.write_text("page start(\n")
        status, output = run_cli("fmt", str(path))
        assert status == 1 and "error" in output


class TestSaveResume:
    def test_round_trip(self, counter_file, tmp_path):
        image = str(tmp_path / "session.img")
        status, output = run_cli(
            "save", counter_file, "--tap", "count: 0", "-o", image
        )
        assert status == 0 and "saved image" in output
        status, output = run_cli("resume", image)
        assert status == 0 and "count: 1" in output

    def test_resume_with_edited_source(self, counter_file, tmp_path):
        image = str(tmp_path / "session.img")
        run_cli("save", counter_file, "--tap", "count: 0", "-o", image)
        edited = tmp_path / "edited.live"
        edited.write_text(COUNTER.replace('"count: "', '"taps: "'))
        status, output = run_cli(
            "resume", image, "--source", str(edited)
        )
        assert status == 0 and "taps: 1" in output


class TestWebWiring:
    def test_mortgage_runs_via_cli(self, tmp_path):
        from repro.apps.mortgage import BASE_SOURCE

        path = tmp_path / "mortgage.live"
        path.write_text(BASE_SOURCE)
        status, output = run_cli(
            "run", str(path), "--latency", "0.0", "--width", "44"
        )
        assert status == 0
        assert "House" in output and "$" in output


class TestPythonSources:
    """Every source-taking command accepts ``.py`` modules exposing
    ``SOURCE``, the way ``repro trace`` always has."""

    @pytest.fixture
    def quickstart(self):
        from pathlib import Path

        return str(Path(__file__).parent.parent / "examples/quickstart.py")

    def test_run(self, quickstart):
        status, output = run_cli("run", quickstart, "--tap", "count: 0")
        assert status == 0 and "count: 1" in output

    def test_html(self, quickstart):
        status, output = run_cli("html", quickstart)
        assert status == 0 and "count: 0" in output

    def test_probe(self, quickstart):
        status, output = run_cli("probe", quickstart, "count + 1")
        assert status == 0 and "1.0" in output

    def test_save(self, quickstart, tmp_path):
        image = str(tmp_path / "session.img")
        status, output = run_cli("save", quickstart, "-o", image)
        assert status == 0 and "saved image" in output

    def test_module_without_source_is_an_error(self, tmp_path):
        path = tmp_path / "empty.py"
        path.write_text("x = 1\n")
        status, output = run_cli("run", str(path))
        assert status == 1 and "SOURCE" in output


class TestResumeRejection:
    """``resume --source`` reports rejected updates exactly like a live
    ``edit_source`` — formatted diagnostics, the saved code keeps
    running, exit status 1."""

    @pytest.fixture
    def image(self, counter_file, tmp_path):
        path = str(tmp_path / "session.img")
        run_cli("save", counter_file, "--tap", "count: 0", "-o", path)
        return path

    def test_type_error_reported_and_saved_source_resumed(
        self, image, tmp_path
    ):
        edited = tmp_path / "edited.live"
        edited.write_text(
            COUNTER.replace("count := count + 1", 'count := "oops"')
        )
        status, output = run_cli("resume", image, "--source", str(edited))
        assert status == 1
        assert "update rejected (1 problem):" in output
        # The same span-prefixed diagnostic edit_source carries.
        assert "assigning string to global 'count'" in output
        # The last good code keeps running: the image's own source.
        assert "count: 1" in output

    def test_syntax_error_reported(self, image, tmp_path):
        edited = tmp_path / "edited.live"
        edited.write_text("page start(\n")
        status, output = run_cli("resume", image, "--source", str(edited))
        assert status == 1
        assert "update rejected" in output and "count: 1" in output

    def test_diagnostics_match_live_edit_formatting(
        self, image, tmp_path
    ):
        from repro.live.session import LiveSession

        broken = COUNTER.replace("count := count + 1", 'count := "oops"')
        live = LiveSession(COUNTER)
        result = live.edit_source(broken)
        assert result.status == "rejected"
        edited = tmp_path / "edited.live"
        edited.write_text(broken)
        _status, output = run_cli("resume", image, "--source", str(edited))
        for problem in result.problems:
            assert str(problem) in output


class TestServeCLI:
    def test_serve_smoke_over_subprocess(self, counter_file, tmp_path):
        import json
        import os
        import signal
        import subprocess
        import sys
        import time
        import urllib.request

        port_file = tmp_path / "port"
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", counter_file,
                "--port", "0", "--port-file", str(port_file),
                "--pool-size", "2",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        try:
            deadline = time.time() + 30
            while not port_file.exists() and time.time() < deadline:
                assert process.poll() is None, process.stdout.read()
                time.sleep(0.05)
            assert port_file.exists(), "server never wrote its port"
            port = int(port_file.read_text())

            def post(payload):
                request = urllib.request.Request(
                    "http://127.0.0.1:{}/".format(port),
                    data=json.dumps(payload).encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request, timeout=10) as r:
                    return json.loads(r.read())

            token = post({"op": "create"})["token"]
            post({"op": "tap", "token": token, "text": "count: 0"})
            rendered = post({"op": "render", "token": token})
            assert "count: 1" in rendered["html"]
            assert post({"op": "evict", "token": token})["evicted"]
            again = post({"op": "render", "token": token,
                          "generation": rendered["generation"]})
            assert again["not_modified"]
        finally:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                process.kill()
                process.wait()


    @pytest.mark.parametrize("cluster", (False, True), ids=("host", "cluster"))
    def test_port_file_appears_whole(
        self, counter_file, tmp_path, monkeypatch, cluster
    ):
        # A poller must never read the port file empty: it appears by a
        # rename of a file that already holds the whole port.
        import os

        import repro.cli as cli
        import repro.cluster as cluster_package
        import repro.serve.app as app

        port_file = str(tmp_path / "port")
        renames = []
        real_replace = os.replace

        def replace(source, target):
            with open(source) as handle:
                renames.append((target, handle.read(), os.path.exists(target)))
            real_replace(source, target)

        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(app, "make_server", lambda *a, **k: _Server())
        monkeypatch.setattr(app, "shutdown_gracefully", lambda *a, **k: True)
        monkeypatch.setattr(cli, "_install_graceful_signals", lambda s: None)
        argv = ["serve", counter_file, "--port", "0", "--port-file", port_file]
        if cluster:
            monkeypatch.setattr(cluster_package, "ClusterSupervisor",
                                _Supervisor)
            monkeypatch.setattr(cluster_package, "ClusterRouter",
                                lambda supervisor: None)
            argv += ["--cluster-workers", "2"]
        status, _output = run_cli(*argv)
        assert status == 0
        assert renames == [(port_file, "4321", False)]
        with open(port_file) as handle:
            assert handle.read() == "4321"
        assert not os.path.exists(port_file + ".tmp")


class _Server:
    """A bound server that stops as soon as it is asked to serve."""

    server_address = ("127.0.0.1", 4321)

    def serve_forever(self):
        raise KeyboardInterrupt


class _Supervisor:
    journal_root = "journals"

    def __init__(self, **kwargs):
        pass

    def start(self):
        return self

    def stop(self):
        pass


class _Captured(Exception):
    pass


def _capture(**kwargs):
    raise _Captured(kwargs)


class TestServePosture:
    """``serve``, each cluster worker and ``replay`` build sessions the
    same way, so a replay rebuilds what the server ran."""

    def test_serve_worker_and_replay_share_one_posture(
        self, counter_file, monkeypatch
    ):
        import argparse

        import repro.cluster.worker as worker
        import repro.serve.host as host
        from repro.cli import _replay_options
        from repro.serve.host import SERVE_POSTURE

        monkeypatch.setattr(host, "SessionHost", _capture)
        with pytest.raises(_Captured) as served:
            run_cli("serve", counter_file, "--port", "0")
        monkeypatch.setattr(worker, "SessionHost", _capture)
        with pytest.raises(_Captured) as hosted:
            worker.Worker({"slot": 0, "source": COUNTER})
        replayed = _replay_options(argparse.Namespace(latency=None))

        serve_kwargs = served.value.args[0]["session_kwargs"]
        worker_kwargs = hosted.value.args[0]["session_kwargs"]
        posture = dict(SERVE_POSTURE)
        assert replayed["session_kwargs"] == posture
        for kwargs, deployment in (
            (serve_kwargs, {"budget", "backend"}),
            (worker_kwargs, {"budget"}),
        ):
            assert set(kwargs) == set(posture) | deployment
            assert {key: kwargs[key] for key in posture} == posture


@pytest.fixture
def counter_journal(tmp_path):
    """A journaled counter session recorded the way ``repro serve``
    records one — the CLI's replay options must reconstruct it."""
    from repro.api import Journal
    from repro.serve.host import SERVE_POSTURE, SessionHost
    from repro.stdlib.web import make_services, web_host_impls

    journal_dir = str(tmp_path / "journal")
    host = SessionHost(
        default_source=COUNTER,
        make_host_impls=web_host_impls,
        make_services=make_services,
        session_kwargs=dict(SERVE_POSTURE),
        journal=Journal(journal_dir, checkpoint_every=3),
    )
    token = host.create()
    for _ in range(5):
        host.tap(token, path=[0])
    return journal_dir


class TestReplayCommand:
    def test_replay_screenshots_the_latest_state(self, counter_journal):
        status, output = run_cli("replay", counter_journal)
        assert status == 0
        assert "replayed" in output and "count: 5" in output

    def test_to_seq_time_travels(self, counter_journal):
        status, output = run_cli("replay", counter_journal, "--to-seq", "3")
        assert status == 0
        assert "seq 3" in output and "count: 2" in output

    def test_no_checkpoint_forces_a_cold_replay(self, counter_journal):
        status, output = run_cli(
            "replay", counter_journal, "--no-checkpoint"
        )
        assert status == 0
        assert "5 events" in output and "checkpoint" not in output

    def test_benign_edit_exits_zero(self, counter_journal, tmp_path):
        edited = tmp_path / "benign.live"
        edited.write_text(
            COUNTER + "\nfun unused(x : number) : number\n  return x\n"
        )
        status, output = run_cli(
            "replay", counter_journal, "--source", str(edited)
        )
        assert status == 0 and "identical" in output

    def test_breaking_edit_exits_one(self, counter_journal, tmp_path):
        edited = tmp_path / "breaking.live"
        edited.write_text(COUNTER.replace("count + 1", "count + 2"))
        status, output = run_cli(
            "replay", counter_journal, "--source", str(edited)
        )
        assert status == 1
        assert "diverged at generation 1" in output

    def test_missing_journal_is_an_error(self, tmp_path):
        status, output = run_cli("replay", str(tmp_path / "nothing"))
        assert status == 1 and "no sessions" in output


class TestWhyCommand:
    def test_why_by_text(self, counter_journal):
        status, output = run_cli(
            "why", counter_journal, "--text", "count: 5"
        )
        assert status == 0
        assert "page start (render)" in output
        assert "count = 5" in output
        assert output.count("wrote count") == 5

    def test_why_by_path(self, counter_journal):
        status, output = run_cli("why", counter_journal, "--path", "0")
        assert status == 0 and "reads:" in output

    def test_bad_path_is_an_error(self, counter_journal):
        status, output = run_cli("why", counter_journal, "--path", "x")
        assert status == 1 and "slash-separated" in output


class TestTraceJournal:
    def test_journal_derived_trace(self, counter_journal):
        status, output = run_cli("trace", "--journal", counter_journal)
        assert status == 0
        assert "journal-derived trace" in output
        assert "5 events replayed" in output
        assert "render" in output  # the span tree is there

    def test_trace_needs_a_file_or_a_journal(self):
        status, output = run_cli("trace")
        assert status == 1
        assert "source file or --journal" in output
