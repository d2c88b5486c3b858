"""Command-line interface: ``python -m repro <command> <file.live>``.

Commands:

* ``check``   — typecheck a program, printing every diagnostic;
* ``compile`` — print the lowered core calculus (Fig. 6 notation);
* ``run``     — boot the program, optionally drive it with ``--tap``/
  ``--edit``/``--back`` actions, and print the final ASCII screenshot;
* ``html``    — render the booted program's display as a standalone
  HTML document;
* ``probe``   — evaluate an expression in the program's context;
* ``trace``   — run a scripted interaction under a real tracer — or
  re-derive the trace from a recorded journal with ``--journal DIR``,
  or stitch the cross-process trace of one request from a running
  cluster with ``--cluster URL`` — and print the span tree + metric
  table (see ``docs/OBSERVABILITY.md``);
* ``top``     — live ANSI dashboard polling a running server's
  ``/metrics``: req/s, per-op p50/p95, worker liveness and respawns,
  memo hit rate, breaker states;
* ``serve``   — run the multi-session JSON API server with an LRU
  session pool (see ``docs/SERVER.md``);
* ``replay``  — deterministically replay a recorded journal: time-travel
  to any seq (``--to-seq``), or check an edited program against the
  recorded trace (``--source``, the §2 trace-replay regression tool);
* ``why``     — provenance query against a journal: which code span,
  store slots and journaled events produced a rendered box;
* ``repair``  — search a journaled session for validated candidate
  fixes (the server's live-repair searcher, offline; ``--apply RANK``
  emits the chosen repaired source);
* ``ide``     — open the tkinter live viewer (if a display is available).

``run``, ``trace``, ``serve`` and ``ide`` accept ``--trace-jsonl PATH``
to stream every finished span (plus a final metrics record) as JSON
lines.  Every command that takes a source file accepts either a
``.live`` file or a ``.py`` example module exposing a string ``SOURCE``
(e.g. ``examples/quickstart.py``).

Programs that declare the stdlib externs (``fetch_listings``) are wired
to the simulated web automatically; ``--latency`` tunes its virtual
delay.
"""

from __future__ import annotations

import argparse
import sys

from .core.errors import ReproError, SyntaxProblem, TypeProblem
from .core.names import ATTR_ONTAP
from .core.pretty import pretty_code
from .eval.machine import DEFAULT_FUEL
from .live.session import LiveSession
from .obs import (
    InMemorySink,
    JsonlSink,
    format_metric_table,
    format_span_tree,
)
from .obs.trace import Tracer
from .serve.host import SERVE_POSTURE
from .stdlib.web import DEFAULT_LATENCY, make_services, web_host_impls
from .surface.parser import parse
from .surface.typecheck import typecheck_problems


def _read(path):
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as error:
        raise ReproError("cannot read {}: {}".format(path, error))


def _load_source(path):
    """The surface source at ``path`` — shared by every subcommand.

    ``.live`` files are read verbatim.  A ``.py`` path (the repository's
    examples) is executed as a module — without running its ``main()``,
    which hides behind the ``__main__`` guard — and must leave a string
    ``SOURCE`` in its namespace, e.g. ``examples/quickstart.py``'s
    ``from repro.apps.counter import SOURCE``.  ``run``, ``html``,
    ``probe``, ``save``, ``trace`` and ``serve`` all accept both forms.
    """
    if not path.endswith(".py"):
        return _read(path)
    import runpy

    try:
        namespace = runpy.run_path(path, run_name="repro.cli.target")
    except OSError as error:
        raise ReproError("cannot read {}: {}".format(path, error))
    source = namespace.get("SOURCE")
    if not isinstance(source, str):
        raise ReproError(
            "{} defines no string SOURCE to load".format(path)
        )
    return source


def _make_tracer(args):
    """A real tracer when observability output was requested, else None.

    With ``--trace-jsonl`` the tracer streams spans to the file as they
    finish *and* keeps them in memory for the on-screen report.
    """
    jsonl_path = getattr(args, "trace_jsonl", None)
    if not jsonl_path:
        return None
    try:
        # Validate the target now, before any spans are recorded — the
        # sink itself opens lazily, which would otherwise surface a bad
        # path as a traceback from the middle of the parse span.
        open(jsonl_path, "w").close()
    except OSError as error:
        raise ReproError(
            "cannot write {}: {}".format(jsonl_path, error)
        )
    return Tracer(sinks=[InMemorySink(), JsonlSink(jsonl_path)])


def _finish_jsonl(tracer, args, out):
    """Write the final metrics record and close the JSONL stream."""
    if tracer is None:
        return
    for sink in tracer.sinks:
        if isinstance(sink, JsonlSink):
            sink.write_metrics(tracer.metrics())
            sink.close()
            print(
                "wrote trace to {}".format(args.trace_jsonl), file=out
            )


def _session(path, latency, tracer=None, **session_kwargs):
    source = _load_source(path)
    services = make_services(latency=latency)
    return LiveSession(
        source, host_impls=web_host_impls(), services=services,
        tracer=tracer, **session_kwargs
    )


def cmd_check(args, out):
    source = _read(args.file)
    try:
        program = parse(source)
    except SyntaxProblem as problem:
        print("syntax error: {}".format(problem), file=out)
        return 1
    _env, problems = typecheck_problems(program)
    if not problems:
        print("{}: ok".format(args.file), file=out)
        return 0
    for problem in problems:
        print(problem, file=out)
    return 1


def cmd_compile(args, out):
    from .surface.compile import compile_source

    compiled = compile_source(_read(args.file), web_host_impls())
    print(pretty_code(compiled.code), file=out)
    if compiled.generated_functions:
        print(
            "// generated loop functions: {}".format(
                ", ".join(compiled.generated_functions)
            ),
            file=out,
        )
    return 0


def _apply_actions(session, args, out):
    for kind, value in args.actions:
        if kind == "tap":
            session.tap_text(value)
        elif kind == "edit":
            target, _, text = value.partition("=")
            path = session.runtime.require_text(target)
            session.edit_box(path, text)
        elif kind == "back":
            session.back()


def cmd_run(args, out):
    tracer = _make_tracer(args)
    session = _session(
        args.file, args.latency, tracer=tracer, backend=args.backend
    )
    _apply_actions(session, args, out)
    print(session.screenshot(width=args.width), file=out)
    if args.trace:
        print(
            "trace: " + " ".join(str(t) for t in session.runtime.trace),
            file=out,
        )
    _finish_jsonl(tracer, args, out)
    return 0


def _auto_interact(session, taps=2):
    """The default ``trace`` script: tap the first tappable box ``taps``
    times (re-resolving each time — the display changes under us)."""
    performed = 0
    for _ in range(taps):
        tappable = session.runtime.find_boxes(
            lambda box: box.get_attr(ATTR_ONTAP) is not None
        )
        if not tappable:
            break
        session.tap(tappable[0][0])
        performed += 1
    return performed


def _trace_cluster(args, out):
    """``repro trace --cluster URL``: drive one request against a
    running server and print its stitched cross-process span tree."""
    import json as _json
    import urllib.error
    import urllib.request

    from .obs.sinks import spans_from_dicts

    base = args.cluster.rstrip("/")

    def post(body):
        data = _json.dumps(body).encode("utf-8")
        request = urllib.request.Request(
            base + "/", data=data,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(
                request, timeout=30.0
            ) as response:
                return _json.loads(response.read())
        except (urllib.error.URLError, OSError, ValueError) as error:
            raise ReproError(
                "cannot reach {}: {}".format(base, error)
            ) from error

    trace_id = args.trace_id
    if trace_id is None:
        create = post({"op": "create"})
        if not create.get("ok"):
            raise ReproError(
                "create against {} failed: {}".format(
                    base, create.get("error")
                )
            )
        response = post({"op": "render", "token": create["token"]})
        trace_id = response.get("trace_id")
        if trace_id is None:
            raise ReproError(
                "{} reported no trace_id — cross-process tracing needs "
                "a cluster front (repro serve --cluster-workers N)"
                .format(base)
            )
    stats = post({"op": "stats", "trace_id": trace_id})
    spans = stats.get("trace") or []
    print("cluster trace {} from {}:".format(trace_id, base), file=out)
    print(file=out)
    print(format_span_tree(spans_from_dicts(spans)), file=out)
    return 0


def cmd_trace(args, out):
    if getattr(args, "cluster", None):
        return _trace_cluster(args, out)
    tracer = _make_tracer(args) or Tracer()
    if args.journal:
        # Journal-derived trace: replay the recorded session under the
        # tracer — the spans and metrics of a session you never traced
        # live, reconstructed after the fact (repro.provenance).
        from .provenance import replay_session
        from .resilience.journal import Journal

        result = replay_session(
            Journal(args.journal),
            args.token,
            # Cold on purpose: the trace should cover the whole
            # recorded session, not just the tail after a checkpoint.
            use_checkpoint=False,
            tracer=tracer,
            make_host_impls=web_host_impls,
            make_services=lambda: make_services(latency=args.latency),
            session_kwargs=dict(SERVE_POSTURE, tracer=tracer),
        )
        print(
            "journal-derived trace of {} ({} event{} replayed):".format(
                args.journal, result.events_replayed,
                "" if result.events_replayed == 1 else "s",
            ),
            file=out,
        )
    else:
        if not args.file:
            raise ReproError(
                "trace needs a source file or --journal DIR"
            )
        source = _load_source(args.file)
        services = make_services(latency=args.latency)
        session = LiveSession(
            source,
            host_impls=web_host_impls(),
            services=services,
            tracer=tracer,
        )
        if args.actions:
            _apply_actions(session, args, out)
        else:
            _auto_interact(session)
        print("trace of {}:".format(args.file), file=out)
    print(file=out)
    print(format_span_tree(tracer.spans()), file=out)
    print(file=out)
    print(format_metric_table(tracer.metrics()), file=out)
    _finish_jsonl(tracer, args, out)
    return 0


def cmd_html(args, out):
    from .render.html_backend import render_html

    session = _session(args.file, args.latency)
    _apply_actions(session, args, out)
    document = render_html(session.display, title=args.file)
    if args.output == "-":
        print(document, file=out)
    else:
        with open(args.output, "w") as handle:
            handle.write(document)
        print("wrote {}".format(args.output), file=out)
    return 0


def cmd_probe(args, out):
    session = _session(args.file, args.latency)
    result = session.probe_expr(args.expression)
    print(result.describe(), file=out)
    if result.tree is not None:
        print(result.screenshot(width=args.width), file=out)
    return 0


def cmd_fmt(args, out):
    from .surface.format import format_source

    formatted = format_source(_read(args.file))
    if args.in_place:
        with open(args.file, "w") as handle:
            handle.write(formatted)
        print("formatted {}".format(args.file), file=out)
    else:
        out.write(formatted)
    return 0


def cmd_save(args, out):
    from .persist import save_image_text

    session = _session(args.file, args.latency)
    _apply_actions(session, args, out)
    with open(args.output, "w") as handle:
        handle.write(save_image_text(session))
    print("saved image to {}".format(args.output), file=out)
    return 0


def _print_rejection(problems, out):
    """Diagnostics for a rejected update, one per line.

    The same formatting a rejected :meth:`LiveSession.edit_source`
    carries in ``result.problems`` — ``[RULE] span: message`` — so
    ``resume --source`` and the live editor read identically.
    """
    print("update rejected ({} problem{}):".format(
        len(problems), "" if len(problems) == 1 else "s"
    ), file=out)
    for problem in problems:
        print("  {}".format(problem), file=out)


def cmd_resume(args, out):
    from .core.errors import UpdateRejected
    from .persist import load_image

    data = _read(args.image)
    services = lambda: make_services(latency=args.latency)
    status = 0
    try:
        session = load_image(
            data,
            host_impls=web_host_impls(),
            services=services(),
            source=_load_source(args.source) if args.source else None,
        )
    except (SyntaxProblem, TypeProblem, UpdateRejected) as rejected:
        # The edited source did not compile.  Exactly like a live edit,
        # the rejection keeps the last good code running: resume the
        # image's own source and report the diagnostics.
        _print_rejection(
            tuple(getattr(rejected, "problems", ())) or (rejected,), out
        )
        session = load_image(
            data, host_impls=web_host_impls(), services=services()
        )
        status = 1
    report = session.last_restore_report
    if not report.clean:
        print(
            "restore dropped: {}".format(
                ", ".join(report.dropped_globals + report.dropped_pages)
            ),
            file=out,
        )
    print(session.screenshot(width=args.width), file=out)
    return status


def _install_graceful_signals(server):
    """SIGTERM/SIGINT → stop the accept loop from a helper thread.

    ``server.shutdown()`` must not run on the thread inside
    ``serve_forever`` (it waits for that loop to exit), so the handler
    only spawns the call.  Returns the event marking shutdown was
    requested; signal installation is skipped silently when not on the
    main thread (tests drive ``cmd_serve`` directly).
    """
    import signal
    import threading

    stopping = threading.Event()

    def _graceful(_signum, _frame):
        if stopping.is_set():
            return
        stopping.set()
        threading.Thread(target=server.shutdown, daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, _graceful)
        signal.signal(signal.SIGINT, _graceful)
    except ValueError:  # not the main thread
        pass
    return stopping


def cmd_top(args, out):
    from .obs.top import run_top

    url = args.url.rstrip("/")
    if not url.endswith("/metrics"):
        url += "/metrics"
    try:
        return run_top(
            url,
            interval=args.interval,
            iterations=args.iterations,
            out=out,
            clear=not args.no_clear,
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive
        return 0


def cmd_serve(args, out):
    from .cluster.transport import publish_port
    from .serve.app import make_server, shutdown_gracefully
    from .serve.host import server_tracer

    source = _load_source(args.file)
    tracer = _make_tracer(args) or server_tracer()
    if args.cluster_workers:
        return _serve_cluster(args, out, source, tracer)

    from .resilience import Budget, recover
    from .resilience.journal import Journal
    from .serve.host import SessionHost

    host = SessionHost(
        pool_size=args.pool_size,
        default_source=source,
        make_host_impls=web_host_impls,
        make_services=lambda: make_services(latency=args.latency),
        tracer=tracer,
        quarantine_after=args.quarantine_after,
        session_kwargs=dict(
            SERVE_POSTURE,
            fault_policy=args.fault_policy,
            budget=Budget(fuel=args.fuel, deadline=args.deadline),
            backend=args.backend,
        ),
        repair=True if args.repair else None,
    )
    journal = None
    if args.journal_dir:
        journal = Journal(
            args.journal_dir,
            checkpoint_every=args.checkpoint_every,
            tracer=tracer,
            fsync=args.journal_fsync,
        )
        report = recover(host, journal)
        if report.sessions:
            print(str(report), file=out)
    server = make_server(host, port=args.port, bind=args.bind)
    port = server.server_address[1]
    if args.port_file:
        publish_port(args.port_file, port)
    print(
        "serving {} on http://{}:{} (pool size {})".format(
            args.file, args.bind, port, args.pool_size
        ),
        file=out,
    )
    if hasattr(out, "flush"):
        out.flush()
    _install_graceful_signals(server)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        # Drain in-flight requests, then stamp the journal's clean-
        # shutdown marker — SIGTERM never tears a request midway.
        drained = shutdown_gracefully(server, journal=journal)
        print(
            "shut down {}".format(
                "cleanly" if drained else "with requests still in flight"
            ),
            file=out,
        )
        _finish_jsonl(tracer, args, out)
    return 0


def _serve_cluster(args, out, source, tracer):
    """``repro serve --cluster-workers N``: the sharded serving path."""
    from .cluster import ClusterRouter, ClusterSupervisor
    from .cluster.transport import publish_port
    from .serve.app import make_server, shutdown_gracefully

    supervisor = ClusterSupervisor(
        source=source,
        workers=args.cluster_workers,
        journal_root=args.journal_dir,
        pool_size=args.pool_size,
        checkpoint_every=args.checkpoint_every,
        quarantine_after=args.quarantine_after,
        fault_policy=args.fault_policy,
        fuel=args.fuel,
        deadline=args.deadline,
        latency=args.latency,
        bind=args.bind,
        tracer=tracer,
        repair=True if args.repair else None,
        journal_fsync=args.journal_fsync,
        # Worker processes merge these into their session posture, so
        # the backend choice reaches every session on every worker —
        # including respawned ones.
        session_kwargs=(
            {"backend": args.backend} if args.backend else None
        ),
    ).start()
    router = ClusterRouter(supervisor)
    server = make_server(router, port=args.port, bind=args.bind)
    port = server.server_address[1]
    if args.port_file:
        publish_port(args.port_file, port)
    print(
        "serving {} on http://{}:{} ({} workers, journals under {})".format(
            args.file, args.bind, port, args.cluster_workers,
            supervisor.journal_root,
        ),
        file=out,
    )
    if hasattr(out, "flush"):
        out.flush()
    _install_graceful_signals(server)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        drained = shutdown_gracefully(server)
        supervisor.stop()  # drains every worker; they close their journals
        print(
            "cluster shut down {}".format(
                "cleanly" if drained else "with requests still in flight"
            ),
            file=out,
        )
        _finish_jsonl(tracer, args, out)
    return 0


def _replay_options(args):
    """Factories + session kwargs matching what ``repro serve`` runs, so
    replay reconstructs the server's sessions byte-identically (virtual
    clocks make ``--latency`` part of the recording's determinism — use
    the same value the server ran with)."""
    return {
        "make_host_impls": web_host_impls,
        "make_services": lambda: make_services(latency=args.latency),
        "session_kwargs": dict(SERVE_POSTURE),
    }


def cmd_replay(args, out):
    from .provenance import TimeMachine, divergence_report, replay_session
    from .resilience.journal import Journal

    journal = Journal(args.journal_dir)
    options = _replay_options(args)
    if args.source is not None:
        # Trace replay against edited code: the regression question
        # "does my edit change what the user saw?".  Exit status is the
        # answer, so CI can gate on it.
        report = divergence_report(
            journal, _load_source(args.source), token=args.token, **options
        )
        print(str(report), file=out)
        return 0 if report.clean else 1
    if args.to_seq is not None:
        machine = TimeMachine(
            journal, args.token,
            use_checkpoints=not args.no_checkpoint, **options
        )
        machine.goto_seq(args.to_seq)
        result = machine.last_replay
        print(
            "state as of journal seq {} (position {}/{}, {} event{} "
            "replayed{}):".format(
                args.to_seq, machine.position, len(machine) - 1,
                result.events_replayed,
                "" if result.events_replayed == 1 else "s",
                "" if result.checkpoint_seq is None
                else " from checkpoint seq {}".format(result.checkpoint_seq),
            ),
            file=out,
        )
        print(machine.screenshot(width=args.width), file=out)
        return 0
    result = replay_session(
        journal, args.token,
        use_checkpoint=not args.no_checkpoint, **options
    )
    print(
        "replayed {} event{}{} ({} fault{} re-encountered):".format(
            result.events_replayed,
            "" if result.events_replayed == 1 else "s",
            "" if result.checkpoint_seq is None
            else " from checkpoint seq {}".format(result.checkpoint_seq),
            result.faults, "" if result.faults == 1 else "s",
        ),
        file=out,
    )
    print(result.session.screenshot(width=args.width), file=out)
    return 0


def cmd_repair(args, out):
    """``repro repair JOURNAL_DIR``: search a recorded session for
    validated fixes, offline (the same searcher the server runs when an
    update rolls back — see docs/RESILIENCE.md, "Live repair")."""
    from .provenance import replay_to
    from .repair import RepairBudget, changed_decl_names, search_repairs
    from .resilience.journal import Journal

    journal = Journal(args.journal_dir)
    options = _replay_options(args)
    result = replay_to(journal, args.token, **options)
    session, token = result.session, result.token
    last_good = session._undo_stack[-1] if session._undo_stack else None
    faulting = session.source
    rolled_back = last_good is not None and faulting != last_good
    suspects = (
        changed_decl_names(last_good, faulting) if rolled_back else ()
    )
    faults = session.runtime.faults
    report = search_repairs(
        journal, token,
        faulting_source=faulting,
        last_good_source=last_good if rolled_back else None,
        suspects=suspects,
        trigger="rollback" if rolled_back else "manual",
        fault=faults[-1] if faults else None,
        budget=RepairBudget(
            max_candidates=args.max_candidates,
            wall_seconds=args.wall,
            window=args.window,
        ),
        **options
    )
    print(
        "searched {} of {} candidate{} in {:.2f}s ({}){}:".format(
            report.searched, report.generated,
            "" if report.generated == 1 else "s",
            report.wall_seconds, report.trigger,
            " — budget exhausted" if report.budget_exhausted else "",
        ),
        file=out,
    )
    for c in report.candidates:
        print(
            "  #{:<2} {} {:<16} {}  (events {}/{}, edit size {})".format(
                c.rank, "+" if c.validated else " ", c.kind,
                c.description, c.events_ok, c.events_replayed, c.edit_size,
            ),
            file=out,
        )
    if not report.found:
        print("no validated repair within budget", file=out)
        return 1
    if args.apply is not None:
        candidate = report.candidate(args.apply)
        if args.output == "-":
            out.write(candidate.source)
            if not candidate.source.endswith("\n"):
                out.write("\n")
        else:
            with open(args.output, "w") as handle:
                handle.write(candidate.source)
            print(
                "wrote repair #{} ({}) to {}".format(
                    candidate.rank, candidate.description, args.output
                ),
                file=out,
            )
    return 0


def cmd_why(args, out):
    from .provenance import why
    from .resilience.journal import Journal

    path = None
    if args.path is not None:
        try:
            path = tuple(
                int(part) for part in args.path.split("/") if part != ""
            )
        except ValueError:
            raise ReproError(
                "--path must be slash-separated indices, e.g. 0/1"
            )
    report = why(
        Journal(args.journal_dir), args.token,
        path=path, text=args.text, **_replay_options(args)
    )
    print(str(report), file=out)
    return 0


def cmd_ide(args, out):
    from .ui_tk import TkLiveViewer, tk_available

    if not tk_available():
        print("tkinter is not available in this environment", file=out)
        return 1
    tracer = _make_tracer(args)
    viewer = TkLiveViewer(_session(args.file, args.latency, tracer=tracer))
    viewer.run()
    _finish_jsonl(tracer, args, out)
    return 0


class _ActionCollector(argparse.Action):
    """Collect --tap/--edit/--back in the order they appear."""

    def __call__(self, parser, namespace, values, option_string=None):
        kind = option_string.lstrip("-")
        namespace.actions.append((kind, values))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Live UI programming — PLDI 2013 reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, actions=False, file_optional=False):
        if file_optional:
            p.add_argument(
                "file", nargs="?", default=None,
                help="surface-language source file",
            )
        else:
            p.add_argument("file", help="surface-language source file")
        p.add_argument(
            "--latency", type=float, default=DEFAULT_LATENCY,
            help="simulated web latency in virtual seconds",
        )
        p.add_argument("--width", type=int, default=48)
        if actions:
            p.set_defaults(actions=[])
            p.add_argument(
                "--tap", action=_ActionCollector, metavar="TEXT",
                help="tap the box showing TEXT (repeatable)",
            )
            p.add_argument(
                "--edit", action=_ActionCollector, metavar="TEXT=NEW",
                help="type NEW into the editable box showing TEXT",
            )
            p.add_argument(
                "--back", action=_ActionCollector, nargs=0,
                help="press the back button",
            )

    p_check = sub.add_parser("check", help="typecheck a program")
    p_check.add_argument("file")
    p_check.set_defaults(handler=cmd_check)

    p_compile = sub.add_parser("compile", help="print the lowered core")
    p_compile.add_argument("file")
    p_compile.set_defaults(handler=cmd_compile)

    def jsonl_option(p):
        p.add_argument(
            "--trace-jsonl", metavar="PATH", default=None,
            help="stream spans + metrics as JSON lines to PATH",
        )

    def backend_option(p):
        p.add_argument(
            "--backend", choices=("tree", "compiled"), default=None,
            help="evaluator backend: 'compiled' (the default) lowers "
                 "each code version to Python closures once per process "
                 "and shares them between sessions, 'tree' walks the AST "
                 "(docs/PERF.md)",
        )

    p_run = sub.add_parser("run", help="run and screenshot a program")
    common(p_run, actions=True)
    backend_option(p_run)
    p_run.add_argument("--trace", action="store_true",
                       help="print the fired transitions")
    jsonl_option(p_run)
    p_run.set_defaults(handler=cmd_run)

    p_trace = sub.add_parser(
        "trace",
        help="run a scripted interaction (or replay a journal) and "
             "print the span tree + metrics",
    )
    common(p_trace, actions=True, file_optional=True)
    p_trace.add_argument(
        "--journal", metavar="DIR", default=None,
        help="derive the trace by replaying a recorded journal "
             "instead of running FILE",
    )
    p_trace.add_argument(
        "--token", default=None,
        help="session token inside the journal (default: only session)",
    )
    p_trace.add_argument(
        "--cluster", metavar="URL", default=None,
        help="stitch the cross-process span tree of one request "
             "against a running cluster front at URL",
    )
    p_trace.add_argument(
        "--trace-id", default=None,
        help="with --cluster: fetch this trace instead of driving a "
             "fresh create+render",
    )
    jsonl_option(p_trace)
    p_trace.set_defaults(handler=cmd_trace)

    p_top = sub.add_parser(
        "top",
        help="live dashboard over a running server's /metrics "
             "(req/s, per-op p50/p95, worker liveness, memo hit rate)",
    )
    p_top.add_argument(
        "url", help="server base URL (or its /metrics URL directly)"
    )
    p_top.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between scrapes (default 2)",
    )
    p_top.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="draw N frames then exit (default: run until Ctrl-C)",
    )
    p_top.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of redrawing the screen",
    )
    p_top.set_defaults(handler=cmd_top)

    p_replay = sub.add_parser(
        "replay",
        help="deterministically replay a journaled session; time-travel "
             "with --to-seq, diff against edited code with --source",
    )
    p_replay.add_argument("journal_dir", help="journal directory")
    p_replay.add_argument(
        "--token", default=None,
        help="session token inside the journal (default: only session)",
    )
    p_replay.add_argument(
        "--source", metavar="FILE", default=None,
        help="replay the trace under this edited program and print a "
             "divergence report (exit 1 when displays diverge)",
    )
    p_replay.add_argument(
        "--to-seq", type=int, default=None, metavar="N",
        help="stop at journal seq N and screenshot that moment",
    )
    p_replay.add_argument(
        "--no-checkpoint", action="store_true",
        help="force a cold replay from the create record",
    )
    p_replay.add_argument(
        "--latency", type=float, default=DEFAULT_LATENCY,
        help="simulated web latency the recording ran with",
    )
    p_replay.add_argument("--width", type=int, default=48)
    p_replay.set_defaults(handler=cmd_replay)

    p_why = sub.add_parser(
        "why",
        help="explain a rendered box: code span, store slots read and "
             "the journal events that produced their values",
    )
    p_why.add_argument("journal_dir", help="journal directory")
    p_why.add_argument(
        "--token", default=None,
        help="session token inside the journal (default: only session)",
    )
    p_why.add_argument(
        "--path", default=None, metavar="P",
        help="display path of the box, slash-separated (e.g. 0 or 1/2)",
    )
    p_why.add_argument(
        "--text", default=None,
        help="select the box by its rendered text instead of a path",
    )
    p_why.add_argument(
        "--latency", type=float, default=DEFAULT_LATENCY,
        help="simulated web latency the recording ran with",
    )
    p_why.set_defaults(handler=cmd_why)

    p_repair = sub.add_parser(
        "repair",
        help="search a journaled session for validated candidate fixes "
             "(delete / hole / revert edits, ranked; docs/RESILIENCE.md)",
    )
    p_repair.add_argument("journal_dir", help="journal directory")
    p_repair.add_argument(
        "--token", default=None,
        help="session token inside the journal (default: only session)",
    )
    p_repair.add_argument(
        "--max-candidates", type=int, default=12, metavar="N",
        help="candidate budget for the search (default 12)",
    )
    p_repair.add_argument(
        "--wall", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for the whole search (default: none)",
    )
    p_repair.add_argument(
        "--window", type=int, default=20, metavar="N",
        help="recent journaled events re-driven per candidate (default 20)",
    )
    p_repair.add_argument(
        "--apply", type=int, default=None, metavar="RANK",
        help="emit the ranked candidate's full source (see --output)",
    )
    p_repair.add_argument(
        "-o", "--output", default="-",
        help="where --apply writes the repaired source (default stdout)",
    )
    p_repair.add_argument(
        "--latency", type=float, default=DEFAULT_LATENCY,
        help="simulated web latency the recording ran with",
    )
    p_repair.set_defaults(handler=cmd_repair)

    p_html = sub.add_parser("html", help="render the display to HTML")
    common(p_html, actions=True)
    p_html.add_argument("-o", "--output", default="-")
    p_html.set_defaults(handler=cmd_html)

    p_probe = sub.add_parser("probe", help="evaluate an expression")
    common(p_probe)
    p_probe.add_argument("expression")
    p_probe.set_defaults(handler=cmd_probe)

    p_fmt = sub.add_parser("fmt", help="canonically format a program")
    p_fmt.add_argument("file")
    p_fmt.add_argument("-i", "--in-place", action="store_true")
    p_fmt.set_defaults(handler=cmd_fmt)

    p_save = sub.add_parser(
        "save", help="run, interact, and save a session image"
    )
    common(p_save, actions=True)
    p_save.add_argument("-o", "--output", required=True)
    p_save.set_defaults(handler=cmd_save)

    p_resume = sub.add_parser(
        "resume", help="load a session image (optionally with new source)"
    )
    p_resume.add_argument("image")
    p_resume.add_argument(
        "--source", help="override the image's source (edit-while-suspended)"
    )
    p_resume.add_argument("--latency", type=float, default=DEFAULT_LATENCY)
    p_resume.add_argument("--width", type=int, default=48)
    p_resume.set_defaults(handler=cmd_resume)

    p_ide = sub.add_parser("ide", help="open the tkinter live viewer")
    common(p_ide)
    jsonl_option(p_ide)
    p_ide.set_defaults(handler=cmd_ide)

    p_serve = sub.add_parser(
        "serve",
        help="run the multi-session JSON API server (see docs/SERVER.md)",
    )
    p_serve.add_argument("file", help="default app served to create requests")
    p_serve.add_argument(
        "--port", type=int, default=8737,
        help="TCP port (0 picks an ephemeral port)",
    )
    p_serve.add_argument(
        "--bind", default="127.0.0.1",
        help="address the HTTP server listens on (cluster workers "
             "always listen on 127.0.0.1)",
    )
    p_serve.add_argument(
        "--pool-size", type=int, default=16,
        help="resident sessions before LRU eviction to session images",
    )
    p_serve.add_argument(
        "--port-file", metavar="PATH", default=None,
        help="write the bound port to PATH (for scripts using --port 0)",
    )
    p_serve.add_argument(
        "--latency", type=float, default=DEFAULT_LATENCY,
        help="simulated web latency in virtual seconds",
    )
    p_serve.add_argument(
        "--journal-dir", metavar="PATH", default=None,
        help="write-ahead journal + checkpoints here; on boot, recover "
             "every journaled session (docs/RESILIENCE.md)",
    )
    p_serve.add_argument(
        "--checkpoint-every", type=int, default=50,
        help="journaled events per session between image checkpoints",
    )
    p_serve.add_argument(
        "--journal-fsync", choices=("none", "interval", "always"),
        default="none",
        help="journal durability: 'none' trusts the OS page cache "
             "(default; survives process death), 'interval' fsyncs at "
             "most once a second, 'always' fsyncs every append "
             "(survives machine death, costs latency)",
    )
    p_serve.add_argument(
        "--repair", action="store_true",
        help="live repair (repro.repair): when an update rolls back or "
             "a breaker opens, search candidate fixes on a background "
             "thread and surface them on the repair op",
    )
    p_serve.add_argument(
        "--fault-policy", choices=("record", "raise"), default="record",
        help="'record' keeps faulting sessions alive with a fault "
             "screen; 'raise' surfaces faults as typed protocol errors",
    )
    p_serve.add_argument(
        "--fuel", type=int, default=DEFAULT_FUEL,
        help="evaluation fuel per transition (FuelExhausted beyond it)",
    )
    p_serve.add_argument(
        "--deadline", type=float, default=None,
        help="virtual-seconds budget per transition "
             "(DeadlineExceeded beyond it)",
    )
    p_serve.add_argument(
        "--quarantine-after", type=int, default=3,
        help="consecutive faults before a session's circuit breaker "
             "opens (it then serves its last-good display, degraded)",
    )
    p_serve.add_argument(
        "--cluster-workers", type=int, default=0, metavar="N",
        help="shard the host across N worker processes behind one HTTP "
             "front (repro.cluster): consistent-hash routing, per-worker "
             "write-ahead journals, kill-9-proof respawn, and one "
             "cross-session memo store per worker; --journal-dir anchors "
             "the per-worker journals (0 = single-process)",
    )
    backend_option(p_serve)
    jsonl_option(p_serve)
    p_serve.set_defaults(handler=cmd_serve)

    return parser


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, out)
    except (SyntaxProblem, TypeProblem) as problem:
        print("error: {}".format(problem), file=out)
        return 1
    except ReproError as error:
        print("error: {}".format(error), file=out)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
