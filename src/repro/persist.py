"""Session images: persistent code + data (Section 1, Section 6).

"This paper tackles the question of live programming ... by proposing a
formal model, where a program consists of both code and persistent data"
— and the related-work section traces the idea to Smalltalk's image-based
persistence.  This module makes the pairing concrete: a **session image**
is the source text plus the model state (store) and navigation state
(page stack), serialized to JSON.

Two facts make this sound, both consequences of the type system:

* store values and page arguments are **function-free** (T-C-GLOBAL /
  T-C-PAGE), so they serialize completely — no closure ever needs to be
  pickled;
* loading an image **is an UPDATE**: the saved state is fixed up against
  the (possibly edited) source with the Fig. 12 relation, so stale or
  retyped entries are deleted exactly as a live code change would delete
  them.  You can save an image, edit the source by hand, and load — the
  semantics already says what survives.
"""

from __future__ import annotations

import json

from .core import ast
from .core.errors import ReproError
from .core.types import (
    FunType,
    ListType,
    NUMBER,
    NumberType,
    STRING,
    StringType,
    TupleType,
    Type,
)

FORMAT = "repro-image/1"


# ---------------------------------------------------------------------------
# value & type (de)serialization — function-free fragments only
# ---------------------------------------------------------------------------


def type_to_data(type_):
    if isinstance(type_, NumberType):
        return ["number"]
    if isinstance(type_, StringType):
        return ["string"]
    if isinstance(type_, TupleType):
        return ["tuple", [type_to_data(e) for e in type_.elements]]
    if isinstance(type_, ListType):
        return ["list", type_to_data(type_.element)]
    raise ReproError(
        "cannot serialize type {} (function types never reach the "
        "store)".format(type_)
    )


def type_from_data(data):
    tag = data[0]
    if tag == "number":
        return NUMBER
    if tag == "string":
        return STRING
    if tag == "tuple":
        return TupleType(tuple(type_from_data(e) for e in data[1]))
    if tag == "list":
        return ListType(type_from_data(data[1]))
    raise ReproError("unknown serialized type tag {!r}".format(tag))


def value_to_data(value):
    if isinstance(value, ast.Num):
        return ["num", value.value]
    if isinstance(value, ast.Str):
        return ["str", value.value]
    if isinstance(value, ast.Tuple):
        return ["tuple", [value_to_data(item) for item in value.items]]
    if isinstance(value, ast.ListLit):
        return [
            "list",
            type_to_data(value.element_type),
            [value_to_data(item) for item in value.items],
        ]
    raise ReproError(
        "cannot serialize {!r} — only function-free values persist".format(
            value
        )
    )


def value_from_data(data):
    tag = data[0]
    if tag == "num":
        return ast.Num(float(data[1]))
    if tag == "str":
        return ast.Str(str(data[1]))
    if tag == "tuple":
        return ast.Tuple(tuple(value_from_data(item) for item in data[1]))
    if tag == "list":
        return ast.ListLit(
            tuple(value_from_data(item) for item in data[2]),
            type_from_data(data[1]),
        )
    raise ReproError("unknown serialized value tag {!r}".format(tag))


# ---------------------------------------------------------------------------
# images
# ---------------------------------------------------------------------------


def save_image(session, meta=None):
    """Snapshot a :class:`~repro.live.session.LiveSession` to a dict.

    Captures the *last successfully compiled* source (the running code),
    the store and the page stack.  The display and event queue are not
    saved: the queue is empty in stable states, and the display is a
    function of the rest (it is re-rendered on load).

    ``meta`` is an optional JSON-clean dict stored verbatim under the
    ``"meta"`` key — the server's session host uses it to stamp evicted
    sessions with their token and display generation.  It is carried, not
    interpreted: loading ignores it apart from re-exposing it on
    ``session.last_restore_meta``.
    """
    state = session.runtime.system.state
    image = {
        "format": FORMAT,
        "source": session.compiled.source,
        "store": [
            [name, value_to_data(value)] for name, value in state.store.items()
        ],
        "stack": [
            [page, value_to_data(value)]
            for page, value in state.stack.entries()
        ],
    }
    # The evaluator backend is session configuration that should survive
    # evict → rehydrate.  The image format predates backends, so an image
    # without the key means the tree backend and tree-backend images stay
    # byte-identical to what they always were; every other registered
    # backend — the compiled default included — is recorded by name.
    # Custom backend *instances* have no registry name and stay
    # per-process.
    backend_name = session.runtime.system.backend_name
    if backend_name not in (None, "tree"):
        image["backend"] = backend_name
    # The fault history travels with the session: evicting a faulty
    # session to an image and rehydrating it must not launder its
    # record (the server's circuit breaker and the ``repro.resilience``
    # docs both rely on evict → rehydrate preserving faults).  Errors
    # are stored as strings — the exception object does not survive
    # JSON, its description and timing do.
    faults = getattr(session.runtime, "faults", ())
    if faults:
        image["faults"] = [
            {
                "error": str(fault.error),
                "during": fault.during,
                "timestamp": fault.timestamp,
                "vtimestamp": fault.vtimestamp,
            }
            for fault in faults
        ]
    if meta is not None:
        image["meta"] = dict(meta)
    return image


def save_image_text(session, indent=2, meta=None):
    """:func:`save_image` as a JSON string."""
    return json.dumps(save_image(session, meta=meta), indent=indent)


def load_image(data, host_impls=None, services=None, source=None,
               **session_kwargs):
    """Rebuild a live session from an image.

    ``source`` optionally *overrides* the saved source — the
    edit-while-suspended workflow.  Restoring runs the Fig. 12 fix-up
    against whatever code actually compiles, so state that no longer
    types is dropped (and reported on ``session.last_restore_report``).

    The saved ``"backend"`` becomes the restored session's evaluator
    backend; an image without one (tree-backend images, and every image
    written before backends existed) restores on the tree backend.  An
    explicit ``backend=`` keyword wins over the image, which is how a
    host migrates a saved session onto a different backend — the two
    produce byte-identical displays, so the switch is invisible to the
    user.
    """
    if isinstance(data, str):
        data = json.loads(data)
    if data.get("format") != FORMAT:
        raise ReproError(
            "not a session image (format={!r})".format(data.get("format"))
        )
    from .live.session import LiveSession
    from .system.fixup import fixup
    from .system.state import PageStack, Store

    if session_kwargs.get("backend") is None:
        session_kwargs["backend"] = data.get("backend") or "tree"
    session = LiveSession(
        source if source is not None else data["source"],
        host_impls=host_impls,
        services=services,
        **session_kwargs
    )
    saved_store = Store()
    for name, value_data in data["store"]:
        saved_store.assign(name, value_from_data(value_data))
    saved_stack = PageStack(
        [
            (page, value_from_data(value_data))
            for page, value_data in data["stack"]
        ]
    )
    system = session.runtime.system
    new_store, new_stack, report = fixup(
        system.code, saved_store, saved_stack, system.natives
    )
    state = system.state
    state.store = new_store
    # Keep at least the booted start page if the whole saved stack died.
    if not new_stack.is_empty():
        state.stack = new_stack
    state.invalidate_display()
    session.runtime._settle()
    # Re-instate the saved fault history *before* any faults the settle
    # above just recorded (a render that faulted pre-save faults again
    # on load — that is a fresh occurrence, not the restored record).
    saved_faults = data.get("faults")
    if saved_faults:
        from .system.runtime import Fault

        session.runtime.faults[:0] = [
            Fault(
                fault.get("error"),
                fault.get("during", "?"),
                timestamp=fault.get("timestamp", 0.0),
                vtimestamp=fault.get("vtimestamp", 0.0),
            )
            for fault in saved_faults
        ]
    session.last_restore_report = report
    session.last_restore_meta = data.get("meta")
    return session
