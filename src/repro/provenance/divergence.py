"""Trace replay against edited code: "does my edit change what the
user saw yesterday?"

Section 2 of the paper frames trace replay as the baseline liveness
mechanism: re-run the recorded inputs under the new program and compare.
:func:`divergence_report` is that baseline promoted to a regression
tool.  Two deterministic replays of the same journaled trace run in
lockstep — one under the recorded program, one under ``edited_source`` —
and every **display generation** (the boot render, then one settled
display per journaled event) is compared by its HTML fingerprint.

The result is structural, not a diff blob: the first generation whose
HTML differs, the journal seq of the event that produced it, and which
box *occurrences* changed (added, removed, or re-rendered differently),
identified by ``(box_id, occurrence)`` so they map straight back to
boxed statements via the source map.

A trace that itself contains ``edit_source`` events re-asserts the
recorded program mid-replay on **both** runs — the comparison is then
"recorded tail" vs "recorded tail", so only the prefix up to the first
recorded edit exercises the new code.  That is the faithful reading of
"replay the trace": the trace includes the edits the user made.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import (
    ReproError,
    SyntaxProblem,
    TypeProblem,
    drop_traceback,
)
from ..obs.trace import NULL_TRACER
from ..render.html_backend import display_fingerprint, render_html_fragment
from .replayer import replay_to, resolve_token


@dataclass(frozen=True)
class ChangedBox:
    """One box occurrence that differs at the divergent generation."""

    box_id: object
    occurrence: int
    #: ``"changed"`` (HTML differs), ``"added"`` (only in the edited
    #: run), or ``"removed"`` (only in the baseline run).
    change: str

    def __str__(self):
        return "box #{} occurrence {} {}".format(
            self.box_id, self.occurrence, self.change
        )


@dataclass(frozen=True)
class DivergenceReport:
    """Outcome of one baseline-vs-edited lockstep replay.

    ``status`` is ``"identical"``, ``"diverged"``, or ``"rejected"``
    (the edited source does not compile / does not type — nothing was
    replayed).  Generation 0 is the boot render; generation *n* is the
    display after the *n*-th replayed event.
    """

    status: str
    token: str = None
    generations: int = 0
    events_replayed: int = 0
    first_divergent_generation: object = None
    #: Journal seq of the event that produced the first divergent
    #: generation (``None`` when the boot render already differs).
    first_divergent_seq: object = None
    changed_boxes: tuple = ()
    problems: tuple = ()

    @property
    def diverged(self):
        return self.status != "identical"

    @property
    def clean(self):
        return self.status == "identical"

    def __str__(self):
        if self.status == "identical":
            return (
                "identical: {} generation{} byte-identical under the "
                "edited program".format(
                    self.generations, "" if self.generations == 1 else "s"
                )
            )
        if self.status == "rejected":
            return "rejected: the edited source does not compile:\n" + "\n".join(
                "  " + str(problem) for problem in self.problems
            )
        lines = [
            "diverged at generation {}{}".format(
                self.first_divergent_generation,
                "" if self.first_divergent_seq is None
                else " (journal seq {})".format(self.first_divergent_seq),
            )
        ]
        for changed in self.changed_boxes:
            lines.append("  " + str(changed))
        return "\n".join(lines)


def _box_fragments(display):
    """``(box_id, occurrence) → fragment HTML`` for every tagged box."""
    fragments = {}
    for _path, box in display.walk():
        if box.box_id is not None:
            fragments[(box.box_id, box.occurrence)] = render_html_fragment(box)
    return fragments


def _changed_boxes(baseline_display, edited_display):
    before = _box_fragments(baseline_display)
    after = _box_fragments(edited_display)
    changed = []
    for key in sorted(set(before) | set(after), key=str):
        if key not in after:
            change = "removed"
        elif key not in before:
            change = "added"
        elif before[key] != after[key]:
            change = "changed"
        else:
            continue
        changed.append(ChangedBox(key[0], key[1], change))
    return tuple(changed)


def _capture_generations(journal, token, source, seq, options):
    """Replay and keep ``(event_seq, display)`` per generation.

    Displays are frozen, structurally shared trees — holding one per
    generation costs pointers, not copies; HTML is only rendered for the
    single generation the comparison flags.
    """
    generations = []

    def on_step(record, session):
        generations.append(
            (None if record is None else record["seq"], session.display)
        )

    result = replay_to(
        journal, token, seq=seq, use_checkpoint=False, source=source,
        on_step=on_step, **options
    )
    return generations, result


def divergence_report(
    journal,
    edited_source,
    token=None,
    seq=None,
    make_host_impls=None,
    make_services=None,
    session_kwargs=None,
    tracer=None,
):
    """Replay the journaled trace under ``edited_source`` and report the
    first display generation (and box occurrences) that differ from the
    recorded program's replay."""
    tracer = tracer if tracer is not None else NULL_TRACER
    token = resolve_token(journal, token)
    options = {
        "make_host_impls": make_host_impls,
        "make_services": make_services,
        "session_kwargs": session_kwargs,
    }
    try:
        edited, edited_result = _capture_generations(
            journal, token, edited_source, seq, options
        )
    except (SyntaxProblem, TypeProblem) as problem:
        tracer.add("replay.divergences")
        return DivergenceReport(
            status="rejected", token=token,
            problems=(drop_traceback(problem),),
        )
    baseline, _ = _capture_generations(journal, token, None, seq, options)
    if len(baseline) != len(edited):
        # Cannot happen while both replays read the same tape; guard
        # against a torn journal changing under our feet.
        raise ReproError(
            "lockstep replays disagree on generation count "
            "({} vs {})".format(len(baseline), len(edited))
        )
    for index, ((event_seq, base_display), (_, edit_display)) in enumerate(
        zip(baseline, edited)
    ):
        if display_fingerprint(base_display) == display_fingerprint(
            edit_display
        ):
            continue
        tracer.add("replay.divergences")
        return DivergenceReport(
            status="diverged",
            token=token,
            generations=len(baseline),
            events_replayed=edited_result.events_replayed,
            first_divergent_generation=index,
            first_divergent_seq=event_seq,
            changed_boxes=_changed_boxes(base_display, edit_display),
        )
    return DivergenceReport(
        status="identical",
        token=token,
        generations=len(baseline),
        events_replayed=edited_result.events_replayed,
    )
