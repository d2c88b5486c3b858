"""Seeded traffic for the two workloads.

A workload is a server shape plus a finite list of set-up steps and an
endless stream of steps, both functions of the seed alone.  A step is
``(kind, requests)``: ``kind`` names the end-to-end metric its time
feeds (``edit`` -> edit_to_display, ``interaction``,
``open``; ``poll`` feeds only throughput), and each request is a dict
with the protocol ``op``, the logical ``session`` it targets (the client
maps it to the server's token), the op's fields and, for
``edit_source``, the ``expect``-ed status.  One connection sends them
all, in order.

Every workload mixes in a minority of each step kind, so every
end-to-end metric has samples on every workload; the majority kind is
what the workload is for.
"""

from __future__ import annotations

import itertools
import random

from repro.apps import mortgage
from repro.apps.gallery import function_gallery_source

GALLERY_ROWS, GALLERY_COLS = 5, 4
GALLERY = function_gallery_source(rows=GALLERY_ROWS, cols=GALLERY_COLS)
#: Sessions a ``repro serve`` host keeps resident by default (its pool).
RESIDENT = 16

# Mortgage detail page: the editable term and APR boxes.
TERM_BOX, APR_BOX = [2, 1], [3, 1]
_NOTE_DECLS = {"number": "global note : number = 1\n",
               "string": 'global note : string = "draft"\n'}
_PAYMENT = "format(monthly_payment(l.price, term, apr), 2)"


def mortgage_source(improvements=(), note=None, fault=False, broken=False):
    """The mortgage app with some of I1/I2/I3 applied, plus edit variants.

    ``note`` adds a global of that type shown on the detail page (so
    switching its type makes fix-up re-initialise it); ``fault`` divides
    the monthly payment by zero (the first render faults); ``broken``
    drops a parenthesis (the parser rejects it).
    """
    source = mortgage.BASE_SOURCE
    for name, apply in (("I1", mortgage.apply_i1), ("I2", mortgage.apply_i2),
                        ("I3", mortgage.apply_i3)):
        if name in improvements:
            source = apply(source)
    if note is not None:
        source = source.replace(
            "global apr : number = 4.5\n",
            "global apr : number = 4.5\n" + _NOTE_DECLS[note],
        ) + '    boxed\n      post "note: " || note\n'
    if fault:
        source = source.replace(_PAYMENT, _PAYMENT.replace("), 2)",
                                                           ") / 0, 2)"))
    if broken:
        source = source.replace("page detail(l : listing)",
                                "page detail(l : listing")
    return source


def gallery_source(warm=False, cold=False):
    """The gallery with a header-only edit (memo survives) and/or a cell
    edit (every cell's memo entry is invalidated)."""
    source = GALLERY
    if warm:
        source = source.replace('post title || "', 'post "live " || title || "')
    if cold:
        source = source.replace("box.padding := 0", "box.padding := 1")
    return source


def _render(session):
    return {"op": "render", "session": session}


def _open(session):
    return ("open", [{"op": "create", "session": session}, _render(session)])


def _edit(session, source, expect):
    return ("edit", [{"op": "edit_source", "session": session,
                      "source": source, "expect": expect}, _render(session)])


def _tap(session, rng):
    row = rng.randint(1, GALLERY_ROWS)
    return {"op": "tap", "session": session,
            "path": [row, rng.randint(0, GALLERY_COLS - 1)]}


class GalleryProgrammer:
    """Live edits to the gallery in a programmer's own session.

    Two of every three edits touch only the header (the render memo
    survives them), so the median edit is a warm one whatever the seed
    rather than sitting between the warm and the cold edits' costs.  A
    deck of edits toggles each variant an even number of times, so the
    source is the plain gallery again after each; the next deck goes to
    a new programmer session, which keeps each session's op log (which
    the oracle replays through the slow faithful machine) short.
    """

    DECK = (("warm", 4), ("cold", 2))

    def __init__(self, rng):
        self.sessions = itertools.count(1)
        self.session = "programmer-{}".format(next(self.sessions))
        self.state = {"warm": False, "cold": False}
        self._edits = 0
        self._toggles = _deck(rng, self.DECK)

    def steps(self):
        """The next edit, after a new programmer's open when a deck is
        done."""
        steps = []
        if self._edits and self._edits % sum(n for _, n in self.DECK) == 0:
            self.session = "programmer-{}".format(next(self.sessions))
            steps.append(_open(self.session))
        self._edits += 1
        toggle = next(self._toggles)
        self.state[toggle] = not self.state[toggle]
        steps.append(_edit(self.session, gallery_source(**self.state),
                           "applied"))
        return steps


def _deck(rng, counts):
    """Endless shuffled decks holding each kind ``counts[kind]`` times, so
    every stretch of steps has the workload's mix exactly, whatever the
    seed."""
    cards = [kind for kind, count in counts for _ in range(count)]
    while True:
        rng.shuffle(cards)
        yield from cards


def _edit_box(session, path, text):
    return ("interaction", [{"op": "edit_box", "session": session,
                             "path": path, "text": text}, _render(session)])


#: One programmer session's life in ``live_edit``, as a multiset of cards
#: shuffled per life: each of I1/I2/I3 applied and reverted, the note
#: global cycling number -> string -> gone, one rejected and one
#: rolled-back edit, term/APR edits between them, and visitors.
LIFE_CARDS = (["I1", "I2", "I3"] * 2 + ["note"] * 3 + ["broken", "fault"]
              + ["term"] * 4 + ["apr"] * 4 + ["visitor"] * 3 + ["returning"])
TERMS = ("6", "9", "12", "15")
APRS = ("3.25", "4.5", "5.75", "7")


def live_edit(seed):
    """A programmer editing the mortgage app on its detail page.

    The programmer reopens the app after every ``LIFE_CARDS`` deck, so
    each session's op log (which the oracle replays through the slow
    faithful machine) stays short, and every stretch of a run sees the
    same edits and box values whatever the seed.  Visitors open the app
    alongside; a returning one finds its session evicted.
    """
    rng = random.Random("live_edit:{}".format(seed))
    visitors = []

    def life(me):
        # Open, go to the first listing's detail page, fix the term so
        # every life starts from the same render cost.
        yield _open(me)
        yield ("interaction", [{"op": "tap", "session": me, "path": [1, 0]},
                               _render(me)])
        yield _edit_box(me, TERM_BOX, "10")
        cards = list(LIFE_CARDS)
        rng.shuffle(cards)
        terms, aprs = list(TERMS), list(APRS)
        rng.shuffle(terms)
        rng.shuffle(aprs)
        improvements, note = set(), None
        for card in cards:
            if card == "fault":
                yield _edit(me, mortgage_source(improvements, note,
                                                fault=True), "rolled_back")
            elif card == "broken":
                yield _edit(me, mortgage_source(improvements, note,
                                                broken=True), "rejected")
            elif card in ("I1", "I2", "I3", "note"):
                if card == "note":
                    note = {None: "number", "number": "string",
                            "string": None}[note]
                else:
                    improvements ^= {card}
                yield _edit(me, mortgage_source(improvements, note),
                            "applied")
            elif card == "term":
                yield _edit_box(me, TERM_BOX, terms.pop())
            elif card == "apr":
                yield _edit_box(me, APR_BOX, aprs.pop())
            elif card == "returning" and len(visitors) > RESIDENT:
                yield ("poll", [_render(rng.choice(visitors[:-RESIDENT]))])
            else:
                visitors.append("visitor-{}".format(len(visitors) + 1))
                yield _open(visitors[-1])

    def stream():
        for count in itertools.count(1):
            yield from life("programmer-{}".format(count))

    return [], stream()


def cluster_fleet(seed):
    """A stream of users opening the gallery on a two-worker cluster."""
    rng = random.Random("cluster_fleet:{}".format(seed))
    programmer = GalleryProgrammer(rng)
    setup = [_open(programmer.session)]

    def stream():
        users = 0
        while True:
            users += 1
            user = "user-{}".format(users)
            yield _open(user)
            yield ("poll", [_render(user)])
            # Each user taps 2 to 4 times; the programmer edits once.
            for tap in range(2 + users % 3):
                if tap == 1:
                    yield from programmer.steps()
                yield ("interaction", [_tap(user, rng), _render(user)])
            # Every fourth user, one who left long ago comes back to tap.
            # Each worker has opened about twice its pool of sessions
            # since, so whichever worker the ring gives it has evicted it.
            if users % 4 == 0 and users > 4 * RESIDENT:
                back = "user-{}".format(users - 4 * RESIDENT)
                yield ("interaction", [_tap(back, rng), _render(back)])

    return setup, stream()


#: name -> (plan function, app source, server arguments).
WORKLOADS = {
    "live_edit": (live_edit, mortgage.BASE_SOURCE, []),
    "cluster_fleet": (cluster_fleet, GALLERY, ["--cluster-workers", "2"]),
}
