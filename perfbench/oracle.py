"""Replay served sessions through the paper-faithful small-step machine."""

from __future__ import annotations

from repro.live.session import LiveSession
from repro.render.html_backend import render_html
from repro.stdlib.web import DEFAULT_LATENCY, make_services, web_host_impls


def replay_html(log, default_source, title):
    """The HTML a faithful session shows after the ops in ``log``.

    ``log`` is one session's acknowledged mutating requests, starting
    with its ``create``.  The session runs with the posture ``repro
    serve`` gives its own (recorded faults, supervised updates, the same
    host functions and virtual latency) but evaluates with
    ``faithful=True``; the document title is the token, as served.
    """
    create, events = log[0], log[1:]
    session = LiveSession(
        create.get("source") or default_source,
        host_impls=web_host_impls(),
        services=make_services(latency=DEFAULT_LATENCY),
        faithful=True,
        fault_policy="record",
        supervised=True,
    )
    for request in events:
        op = request["op"]
        if op == "tap":
            session.tap(tuple(request["path"]))
        elif op == "edit_box":
            session.edit_box(tuple(request["path"]), request["text"])
        elif op == "batch":
            session.apply_events([("tap", tuple(event["path"]))
                                  for event in request["events"]])
        elif op == "edit_source":
            session.edit_source(request["source"])
        elif op == "back":
            session.back()
        else:
            raise ValueError("cannot replay op {!r}".format(op))
    return render_html(session.display, title=title)
