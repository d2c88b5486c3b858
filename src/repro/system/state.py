"""The system state ``σ = (C, D, S, P, Q)`` (Fig. 7).

* ``C`` — the code, a :class:`repro.core.defs.Code`;
* ``D`` — the display: a frozen box tree or the stale marker ``⊥``;
* ``S`` — the store: global-variable values;
* ``P`` — the page stack of ``(page, argument)`` pairs;
* ``Q`` — the event queue (:mod:`repro.system.events`).

The paper models ``S`` as a sequence of ``[g ↦ v]`` pairs where the
rightmost occurrence of a key wins; an insertion-ordered dict is
observably equivalent (lookup sees the latest assignment) and is what an
"actual implementation would use" by the paper's own remark.  Note that
the store starts *empty*: a global's declared initial value is read
lazily from the code by rule EP-GLOBAL-2 until the first assignment
creates an entry.

A state is **stable** when the event queue is empty and the page stack is
non-empty; stable states are where user actions (TAP, BACK) and code
updates (UPDATE) may occur.
"""

from __future__ import annotations

import itertools

from ..boxes.tree import Box, STALE
from ..core import ast
from ..core.defs import Code
from ..core.errors import ReproError
from .events import EventQueue

#: Write-version source for *all* stores in the process.  Globally unique
#: monotonic ticks (rather than a per-store counter) mean a version number
#: names one specific assignment event: the fix-up of Fig. 12 builds a
#: *new* store on every UPDATE, and if each store restarted its own
#: counter, version 7 of ``clicks`` before an edit and version 7 after it
#: could stamp different values — UPDATE's write diff and ``why()``
#: would then miss an assignment, and the memo's read-values key cache
#: (see :mod:`repro.eval.memo`) would reuse a key built from old values.
_VERSION_TICK = itertools.count(1)


class Store:
    """The store ``S``: global-variable values, rightmost-write wins.

    Beyond the paper's mapping, each entry carries a **write version**
    (a globally unique tick stamped by :meth:`assign`).  Versions are
    implementation bookkeeping outside the semantics — equality and
    hashing ignore them.  Comparing two version snapshots names exactly
    the assignments between them, which UPDATE's write diff and
    ``why()`` use, and they let a memo view reuse a call's read-values
    key (hash computed once) instead of re-reading and re-hashing large
    models while the read set's versions stand still.  A name that was
    never assigned has version ``0``: its value comes lazily from the
    code (EP-GLOBAL-2), which versioning cannot witness.
    """

    __slots__ = ("_entries", "_versions", "_read_log")

    def __init__(self, entries=None, versions=None):
        self._entries = dict(entries) if entries else {}
        if versions is not None:
            self._versions = dict(versions)
        else:
            self._versions = {
                name: next(_VERSION_TICK) for name in self._entries
            }
        # Provenance capture (repro.provenance): while a read log is
        # active, every lookup records its name.  ``None`` (the default)
        # keeps the hot path at one identity compare.
        self._read_log = None

    def lookup(self, name):
        """``S(g)`` — the current value, or ``None`` when ``g ∉ dom S``."""
        if self._read_log is not None:
            self._read_log.append(name)
        return self._entries.get(name)

    def assign(self, name, value):
        """``S[g ↦ v]`` (ES-ASSIGN target)."""
        if not isinstance(value, ast.Expr) or not value.is_value():
            raise ReproError(
                "store can only hold values, got {!r}".format(value)
            )
        self._entries[name] = value
        self._versions[name] = next(_VERSION_TICK)

    def version(self, name):
        """The write version of ``name`` — ``0`` when never assigned."""
        return self._versions.get(name, 0)

    def begin_read_log(self):
        """Start recording the name of every :meth:`lookup`.

        Used by provenance capture around one evaluator run; reads made
        by EP-GLOBAL-2 fallback (value still coming from the code) are
        recorded too — they are reads at write version ``0``.
        """
        self._read_log = []

    def end_read_log(self):
        """Stop recording; returns the read names in first-read order,
        deduplicated."""
        log, self._read_log = self._read_log, None
        if not log:
            return ()
        return tuple(dict.fromkeys(log))

    def versions_snapshot(self):
        """``{name: write version}`` for every current entry — comparing
        two snapshots names exactly the assignments between them."""
        return dict(self._versions)

    def carry(self, name, value, version):
        """Assign ``name`` while *keeping* an existing write version.

        Used by the UPDATE fix-up (S-OKAY): the surviving value is the
        same assignment event, so comparing version snapshots across the
        update does not report it as a write.
        """
        if not isinstance(value, ast.Expr) or not value.is_value():
            raise ReproError(
                "store can only hold values, got {!r}".format(value)
            )
        self._entries[name] = value
        self._versions[name] = version

    def delete(self, name):
        """Remove an entry (used by the Fig. 12 fix-up's S-SKIP)."""
        self._entries.pop(name, None)
        self._versions.pop(name, None)

    def domain(self):
        """``dom S`` as a tuple, in first-assignment order."""
        return tuple(self._entries)

    def items(self):
        """All ``(g, v)`` pairs, in first-assignment order."""
        return tuple(self._entries.items())

    def __contains__(self, name):
        return name in self._entries

    def __len__(self):
        return len(self._entries)

    def copy(self):
        return Store(self._entries, versions=self._versions)

    def __eq__(self, other):
        return isinstance(other, Store) and self._entries == other._entries

    def __hash__(self):
        return hash(self.items())

    def __repr__(self):
        inner = ", ".join("{} ↦ …".format(name) for name in self._entries)
        return "Store({})".format(inner or "ε")


class PageStack:
    """The page stack ``P``: entries are added/removed at the end (top)."""

    __slots__ = ("_entries",)

    def __init__(self, entries=()):
        self._entries = list(entries)

    def push(self, page, arg):
        """``P (p, v)`` — used by the PUSH transition."""
        if not isinstance(arg, ast.Expr) or not arg.is_value():
            raise ReproError("page argument must be a value")
        self._entries.append((page, arg))

    def pop(self):
        """Remove the top entry; a no-op on the empty stack (rule POP)."""
        if self._entries:
            self._entries.pop()

    def top(self):
        """The current page ``(p, v)``, or ``None`` when empty."""
        return self._entries[-1] if self._entries else None

    def is_empty(self):
        return not self._entries

    def __len__(self):
        return len(self._entries)

    def entries(self):
        """All entries bottom-to-top, as an immutable snapshot."""
        return tuple(self._entries)

    def replace(self, entries):
        """Swap in a fixed-up stack (the UPDATE transition's ``P'``)."""
        self._entries = list(entries)

    def copy(self):
        return PageStack(self._entries)

    def __eq__(self, other):
        return (
            isinstance(other, PageStack) and self.entries() == other.entries()
        )

    def __hash__(self):
        return hash(self.entries())

    def __repr__(self):
        inner = " ".join("({}, v)".format(page) for page, _ in self._entries)
        return "P({})".format(inner or "ε")


class SystemState:
    """The full ``σ = (C, D, S, P, Q)`` with the paper's stability notion.

    Mutable: the transition relation updates components in place; use
    :meth:`snapshot` where tests need to compare before/after.
    """

    __slots__ = ("code", "display", "store", "stack", "queue")

    def __init__(self, code, display=STALE, store=None, stack=None, queue=None):
        if not isinstance(code, Code):
            raise ReproError("SystemState expects Code")
        self.code = code
        self.display = display
        self.store = store if store is not None else Store()
        self.stack = stack if stack is not None else PageStack()
        self.queue = queue if queue is not None else EventQueue()

    @classmethod
    def initial(cls, code):
        """The initial state ``(C, ⊥, ε, ε, ε)`` — unstable by definition."""
        return cls(code)

    def is_stable(self):
        """Stable ⇔ empty queue ∧ non-empty page stack (Section 4.2)."""
        return self.queue.is_empty() and not self.stack.is_empty()

    def display_is_valid(self):
        """Is ``D`` a box tree (as opposed to ``⊥``)?"""
        return isinstance(self.display, Box)

    def invalidate_display(self):
        """Set ``D = ⊥`` (every transition except RENDER does this)."""
        self.display = STALE

    def snapshot(self):
        """A deep-enough copy for before/after comparisons in tests.

        Code, display trees and values are immutable, so copying the three
        mutable containers suffices.
        """
        return SystemState(
            self.code,
            self.display,
            self.store.copy(),
            self.stack.copy(),
            self.queue.copy(),
        )

    def __repr__(self):
        return "σ(C={} defs, D={}, S={} entries, {!r}, {!r})".format(
            len(self.code),
            "B" if self.display_is_valid() else "⊥",
            len(self.store),
            self.stack,
            self.queue,
        )
