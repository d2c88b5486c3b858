"""``repro.serve`` — a multi-session live-programming server.

The paper's runtime is single-programmer: one
:class:`~repro.live.session.LiveSession`, one display, one event queue.
This package puts a service in front of the Fig. 6–9 transition system
so *many* programs can be live at once:

* :mod:`repro.serve.host` — :class:`SessionHost`, a token-keyed session
  registry with per-session locks and an LRU pool.  Idle sessions are
  evicted by serializing them to session images
  (:func:`repro.persist.save_image`) and transparently rehydrated on the
  next request — eviction *is* save/resume, so the Fig. 12 fix-up gives
  correct edit-while-evicted semantics for free;
* :mod:`repro.serve.protocol` — the versioned JSON wire protocol
  (``create`` / ``tap`` / ``back`` / ``edit_source`` / ``probe`` /
  ``render`` / ``snapshot`` / ``stats`` …) with 304-style
  display-generation render responses;
* :mod:`repro.serve.batching` — event batching and render coalescing:
  N queued events produce one RENDER, the semantics' "render only on
  quiescence";
* :mod:`repro.serve.app` — a stdlib-only HTTP/1.1 keep-alive JSON API
  (one header parse and one write per request) behind the ``repro
  serve`` CLI subcommand.

Everything is standard library only, like the rest of the repository.
See ``docs/SERVER.md`` for the protocol reference and pooling semantics.
"""

from .batching import BatchReport, apply_batch
from .protocol import PROTOCOL_VERSION, handle_request

__all__ = [
    "BatchReport",
    "PROTOCOL_VERSION",
    "apply_batch",
    "handle_request",
]
