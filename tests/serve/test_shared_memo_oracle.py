"""A host's shared memo store, checked against the faithful oracle.

One journaled host serves a programmer session through the paper's
I1–I3 edits (each applied and reverted), a ``note`` global whose type
changes number → string → gone, and an edit whose first render faults
and is rolled back, while visitor sessions open the base app beside it
(and two sessions of a second app select different cells).
Every session renders out of the host's one memo store, so entries one
session produced replay in the others.  After every operation the
served HTML must equal what the small-step machine (``faithful=True``,
no memo) shows after replaying that session's operations alone.
Sessions are evicted and rehydrated along the way, and at the end the
host is dropped and :func:`repro.resilience.recover` rebuilds it: both
paths must serve byte-identical HTML.
"""

import pytest

from repro.api import Journal, Tracer
from repro.apps import mortgage
from repro.apps.gallery import function_gallery_source
from repro.live.session import LiveSession
from repro.render.html_backend import render_html
from repro.resilience import recover
from repro.serve.host import SERVE_POSTURE, SessionHost
from repro.stdlib.web import make_services, web_host_impls

# The detail page's editable term and APR boxes.
TERM_BOX, APR_BOX = (2, 1), (3, 1)
NOTE_DECLS = {"number": "global note : number = 1\n",
              "string": 'global note : string = "draft"\n'}
PAYMENT = "format(monthly_payment(l.price, term, apr), 2)"
GALLERY = function_gallery_source(rows=3, cols=3)


def mortgage_source(improvements=(), note=None, fault=False):
    """The mortgage app with some of I1/I2/I3 applied; ``note`` adds a
    global of that type shown on the detail page, ``fault`` makes the
    monthly payment divide by zero (the first render faults)."""
    source = mortgage.BASE_SOURCE
    for name, apply in (("I1", mortgage.apply_i1), ("I2", mortgage.apply_i2),
                        ("I3", mortgage.apply_i3)):
        if name in improvements:
            source = apply(source)
    if note is not None:
        source = source.replace(
            "global apr : number = 4.5\n",
            "global apr : number = 4.5\n" + NOTE_DECLS[note],
        ) + '    boxed\n      post "note: " || note\n'
    if fault:
        source = source.replace(PAYMENT, PAYMENT.replace("), 2)", ") / 0, 2)"))
    return source


def make_host(journal=None):
    return SessionHost(
        pool_size=3,
        default_source=mortgage.BASE_SOURCE,
        make_host_impls=web_host_impls,
        make_services=make_services,
        tracer=Tracer(),
        session_kwargs=SERVE_POSTURE,
        journal=journal,
    )


class Lockstep:
    """Drives host sessions and one faithful oracle per session with the
    same operations, and compares their HTML after every one."""

    def __init__(self, host):
        self.host = host
        self.oracles = {}
        self.served = {}

    def create(self, source=mortgage.BASE_SOURCE):
        token = self.host.create(source)
        self.oracles[token] = LiveSession(
            source,
            host_impls=web_host_impls(),
            services=make_services(),
            faithful=True,
            **SERVE_POSTURE
        )
        self.check(token)
        return token

    def tap(self, token, path):
        self.host.tap(token, path=path)
        self.oracles[token].tap(path)
        self.check(token)

    def tap_text(self, token, text):
        self.host.tap(token, text=text)
        self.oracles[token].tap_text(text)
        self.check(token)

    def edit_box(self, token, path, text):
        self.host.edit_box(token, path, text)
        self.oracles[token].edit_box(path, text)
        self.check(token)

    def edit_source(self, token, source, expect="applied"):
        assert self.host.edit_source(token, source).status == expect
        assert self.oracles[token].edit_source(source).status == expect
        self.check(token)

    def check(self, token):
        html, _generation, _modified = self.host.render(token)
        assert html == render_html(self.oracles[token].display, title=token)
        self.served[token] = html


@pytest.fixture
def journal_dir(tmp_path):
    return str(tmp_path / "journal")


def test_shared_store_sessions_match_the_faithful_oracle(journal_dir):
    host = make_host(Journal(journal_dir, checkpoint_every=4))
    run = Lockstep(host)

    programmer = run.create()
    run.tap(programmer, (1, 0))
    run.edit_box(programmer, TERM_BOX, "6")
    # A visitor in the programmer's exact state replays its renders; the
    # others open the list, or another listing with its own term.
    twin = run.create()
    run.tap(twin, (1, 0))
    run.edit_box(twin, TERM_BOX, "6")
    run.create()
    other = run.create()
    run.tap(other, (1, 1))
    run.edit_box(other, TERM_BOX, "5")
    # Two sessions of a second app on the same host, whose cells read
    # the global each session selects: their entries differ by read
    # values only.
    for cell in ("[5]", "[9]"):
        token = run.create(GALLERY)
        run.tap_text(token, cell)

    improvements, note = set(), None
    for card in ("I1", "I2", "note", "I3", "fault", "I2", "note", "I1",
                 "note", "I3"):
        if card == "fault":
            run.edit_source(
                programmer, mortgage_source(improvements, note, fault=True),
                expect="rolled_back",
            )
            continue
        if card == "note":
            note = {None: "number", "number": "string", "string": None}[note]
        else:
            improvements ^= {card}
        run.edit_source(programmer, mortgage_source(improvements, note))
        if card == "I3":
            run.edit_box(programmer, APR_BOX, "7")
    assert (improvements, note) == (set(), None)

    # A late visitor opens the base app after every edit was reverted,
    # and the twin moves to the programmer's APR.
    late = run.create()
    run.tap(late, (1, 0))
    run.edit_box(twin, APR_BOX, "7")

    # The pool holds three sessions, so most were paged out on the way
    # and rehydrated by the checks; an explicit eviction of a resident
    # session and the rehydrating render change nothing either.
    assert host.metrics()["sessions_evicted"] > 0
    for token in (programmer, other):
        run.check(token)
        before = run.served[token]
        assert not host.evicted(token)
        assert host.evict(token)
        run.check(token)
        assert run.served[token] == before
    assert host.metrics()["sessions_rehydrated"] > 0
    # The sessions did share: renders replayed other sessions' entries.
    assert host.metrics()["cluster.memo.shared_hits"] > 0
    assert host.stats()["shared_memo"]["lookups"] > 0

    # Crash: drop the host unflushed and recover a fresh one from the
    # journal; every session serves the same bytes as before.
    rebuilt = make_host()
    report = recover(rebuilt, Journal(journal_dir))
    assert report.sessions == len(run.oracles)
    run.host = rebuilt
    for token, before in sorted(run.served.items()):
        run.check(token)
        assert run.served[token] == before
