"""Shared fixtures for the provenance suite.

Every test here records a session through a journaled
:class:`~repro.serve.host.SessionHost` and then queries the journal —
the same record/replay split the server runs in production.  Recording
and replay both use the default session posture, so replay rebuilds
each session the way it was built.
"""

import json

import pytest

from repro.api import Journal
from repro.serve.host import SessionHost

#: Two independent globals behind two boxes — provenance queries must
#: keep their histories apart.
TWO_GLOBALS = (
    "global a : number = 0\n"
    "global b : number = 0\n"
    "page start()\n  render\n"
    "    boxed\n      post \"a: \" || a\n"
    "      on tap do\n        a := a + 1\n"
    "    boxed\n      post \"b: \" || b\n"
    "      on tap do\n        b := b + 1\n"
)


@pytest.fixture
def journal_dir(tmp_path):
    return str(tmp_path / "journal")


def journaled_host(journal_dir, source, checkpoint_every=50):
    journal = Journal(journal_dir, checkpoint_every=checkpoint_every)
    host = SessionHost(
        default_source=source,
        journal=journal,
    )
    return host, journal


def event_seqs(journal_dir, token):
    """Seqs of the token's journaled events, in order."""
    return [
        record["seq"]
        for record in Journal(journal_dir).records_for(token)
        if record.get("kind") == "event"
    ]


def mutate_event(journal_dir, seq, args):
    """Rewrite one journaled event's args in place — the tampering
    half of the round-trip provenance test."""
    journal = Journal(journal_dir)
    lines = []
    hit = False
    with open(journal.path) as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("kind") == "event" and record.get("seq") == seq:
                record["args"] = args
                hit = True
            lines.append(
                json.dumps(record, separators=(",", ":")) + "\n"
            )
    assert hit, "no event with seq {}".format(seq)
    with open(journal.path, "w") as handle:
        handle.writelines(lines)
