"""Render-function memoization — the §5 self-adjusting-computation idea.

    "An intriguing avenue for future work is the application of research
    on self-adjusting computation, which would allow redundant parts of
    the render computation to be elided automatically."

The type system makes a simple version of this *sound by construction*:
a render-effect function's output (the boxes it appends + its return
value) can depend only on its argument and the global variables it reads
— render code cannot write state, touch services, or read the display.
So a call is a pure function of ``(argument, values of its global read
set)``, and that tuple is a complete memo key.

The read set is computed statically: the ``GlobalRead`` names in the
function's body, closed transitively over the functions it references.
The machines (``Compiled(memo=...)``, ``BigStep(memo=...)``) consult the
cache at every ``f(args)`` call in render mode; on a hit they splice the
cached box items into the current box and skip execution entirely.

**Entries survive code updates** (repro.incremental).  The cache is keyed
by ``(code digest, argument, read-set values)`` — the digest hashes the
function body closed over its transitive ``FunRef``\\ s
(:mod:`repro.incremental.digest`), the read-set values are what the call
would read *now*, in sorted read-name order.  That triple is the whole
input the call's program code sees, so a key match is a complete
validation: a probe replays the entry iff some variant stored under the
call's ``(digest, argument)`` was produced from the same read values
and, for a call that may reach a native, under the same
implementations — those are part of the variant key.  Sessions whose
state or native bindings differ keep one variant each instead of
overwriting one entry.
The UPDATE transition swaps in a fresh :class:`RenderMemo` per code
version, but all versions share one
:class:`~repro.incremental.store.MemoStore`, so the first render after an
edit replays every call whose code and inputs did not change — the edit →
re-render loop pays only for what the edit touched.

Building the read-values key must not cost what it saves.  Each view
remembers, per read-name tuple, the store write versions it last built a
key for; while they are unchanged (versions are globally unique ticks,
and a view lives for one code version, so a version tuple names one
tuple of values) the same :class:`~repro.incremental.store.ReadValues`
object — hash computed once — is reused, and a repeat probe costs an
integer-tuple compare plus store lookups that end on identity.

The historical occurrence-number caveat is gone: replayed subtrees used
to keep the occurrence numbers of their original execution, so with
memoization on they identified *which call produced a box* rather than
global execution order.  :func:`replay_items` now re-stamps occurrences
from the current render pass's counters (copying a cached box only when
its number actually differs), so a memoized render is **byte-identical**
— HTML output included — to the unmemoized one; the property test in
``tests/incremental`` asserts exactly that.  ``box_id``-based navigation
(the Fig. 2 feature) was never affected, and box ids participate in the
digest so an edit that renumbers them safely misses.
"""

from __future__ import annotations

from ..boxes.tree import Box
from ..core import ast
from ..core.defs import Code, def_derived
from ..core.effects import RENDER
from ..core.errors import ReproError
from ..core.prims import PRIM_SIGS
from ..incremental.digest import code_digests
from ..incremental.store import CallKey, MemoEntry, MemoStore, ReadValues
from ..obs.trace import NULL_TRACER
from .natives import EMPTY_NATIVES


def global_read_sets(code):
    """name → frozenset of globals each function may read (transitive)."""
    return _transitive(_function_facts(code), _READS)


def native_call_sets(code):
    """name → frozenset of *natives* each function may call (transitive).

    A native is any primitive operator not in the built-in signature
    table — its implementation is host Python, invisible to the code
    digests.  The set is what makes native-rebind invalidation precise:
    when an update rebinds native ``n``, only memo entries produced by
    functions that can reach ``n`` are suspect (see
    :meth:`~repro.incremental.store.MemoStore.invalidate_natives`).
    """
    return _transitive(_function_facts(code), _NATIVES)


#: Positions in a :func:`_function_facts` triple.
_READS, _NATIVES, _CALLEES = 0, 1, 2


def _function_facts(code):
    """name → ``(global reads, native calls, FunRef callees)`` of each
    function's own body, not yet closed over calls.

    One walk per body collects all three, once per definition object
    (:func:`~repro.core.defs.def_derived`); :func:`_transitive` closes a
    fact over the callee graph.
    """
    return {
        definition.name: def_derived(definition, "memo_facts", _body_facts)
        for definition in code.functions()
    }


def _body_facts(definition):
    reads, natives, callees = set(), set(), set()
    for node in ast.walk(definition.body):
        if isinstance(node, ast.GlobalRead):
            reads.add(node.name)
        elif isinstance(node, ast.FunRef):
            callees.add(node.name)
        elif isinstance(node, ast.Prim) and node.op not in PRIM_SIGS:
            natives.add(node.op)
    return frozenset(reads), frozenset(natives), frozenset(callees)


def _transitive(facts, which):
    """One per-function fact closed over the transitive ``FunRef`` graph."""
    closed = {name: set(fact[which]) for name, fact in facts.items()}
    # Transitive closure (the call graph is small; iterate to fixpoint).
    changed = True
    while changed:
        changed = False
        for name, fact in facts.items():
            for callee in fact[_CALLEES]:
                callee_facts = closed.get(callee, frozenset())
                if not callee_facts <= closed[name]:
                    closed[name] |= callee_facts
                    changed = True
    return {name: frozenset(values) for name, values in closed.items()}


def replay_items(items, counters):
    """Cached box items, re-stamped with this render pass's occurrences.

    Replay must be observably identical to execution, and executing the
    call would have drawn fresh occurrence numbers from ``counters`` in
    document order.  Walk the cached subtrees in that same order,
    consuming the counters; a box whose cached number (and descendants)
    already match is returned as-is — the common all-hits re-render
    replays with zero copying — otherwise a shallow re-stamped copy is
    made (still far cheaper than re-execution: no machine steps, and
    leaves, attributes and unchanged subtrees stay shared).
    """
    out = []
    for item in items:
        if isinstance(item, Box):
            item = _renumber(item, counters)
        out.append(item)
    return out


def _renumber(box, counters):
    occurrence = counters.next_for(box.box_id)
    items = box.items
    new_items = None
    for index, item in enumerate(items):
        if isinstance(item, Box):
            replacement = _renumber(item, counters)
            if replacement is not item:
                if new_items is None:
                    new_items = list(items)
                new_items[index] = replacement
    if occurrence == box.occurrence and new_items is None:
        return box
    return Box(
        new_items if new_items is not None else list(items),
        box_id=box.box_id,
        occurrence=occurrence,
    )


class MemoFacts:
    """What a :class:`RenderMemo` knows about one code version.

    Read sets, native sets, digests and eligibility are functions of the
    code alone, so they are computed once per code version
    (:func:`memo_facts`) and shared by every session that runs it.  They
    are never mutated after construction.  The per-function walks and
    digest canons behind them are kept per definition object, so a new
    version redoes them only for the definitions it changed.
    ``read_orders`` holds each read set as a sorted name tuple, the
    order of a call's read-values key; functions with equal read sets
    share one tuple.
    """

    __slots__ = ("read_orders", "native_sets", "digests", "eligible")

    def __init__(self, code):
        facts = _function_facts(code)
        orders = {}
        self.read_orders = {
            name: orders.setdefault(reads, tuple(sorted(reads)))
            for name, reads in _transitive(facts, _READS).items()
        }
        self.native_sets = _transitive(facts, _NATIVES)
        self.digests = code_digests(
            code,
            callees={name: fact[_CALLEES] for name, fact in facts.items()},
        )
        self.eligible = frozenset(
            d.name
            for d in code.functions()
            if d.type.effect is RENDER and not d.name.startswith("$")
        )


def memo_facts(code):
    """The :class:`MemoFacts` of ``code``, cached on the code value."""
    return code.derived("memo_facts", MemoFacts)


class RenderMemo:
    """One session's view of the (possibly shared) memo store for one
    code version.

    The per-version facts come from :func:`memo_facts`, shared with every
    other session running the same ``Code``; the entries live in
    ``store``, which the owning :class:`~repro.system.transitions.System`
    threads through UPDATE so they survive it.  Constructed without a
    ``store`` (tests, standalone machines) it owns a private one, which
    restores the old cache-per-machine behaviour.  The hit/miss counters
    and the read-values key cache are this view's own.
    """

    def __init__(self, code, store=None, max_entries=4096,
                 tracer=NULL_TRACER, natives=EMPTY_NATIVES):
        if not isinstance(code, Code):
            raise ReproError("RenderMemo expects Code")
        self.code = code
        self.natives = natives
        facts = memo_facts(code)
        self._read_orders = facts.read_orders
        self._native_sets = facts.native_sets
        self._digests = facts.digests
        self._eligible = facts.eligible
        self.memo_store = (
            store if store is not None
            else MemoStore(max_entries, tracer=tracer)
        )
        self.tracer = tracer
        # read-name tuple, with the natives' binding if any → (store
        # versions, variant key built from them)
        self._keys = {}
        # function name → its natives paired with this session's
        # implementations (what an entry it produces records)
        self._bindings = {}
        self.hits = 0
        self.misses = 0
        self.misses_cold = 0
        self.misses_read_values = 0
        self.replayed_boxes = 0

    def eligible(self, name):
        """Is ``name`` a memoizable (user-written, render-effect) function?"""
        return name in self._eligible

    def _read_value(self, global_name, store):
        """What the function would see: store value, else declared init
        (rule EP-GLOBAL-2)."""
        value = store.lookup(global_name)
        if value is None:
            definition = self.code.global_(global_name)
            value = definition.init if definition else None
        return value

    def _read_key(self, name, store):
        """The variant key of a call of ``name`` under ``store``: the
        :class:`~repro.incremental.store.ReadValues` of its read set,
        followed by the implementations this session binds its natives
        to (sessions binding a native differently keep one variant
        each).

        Reused while the read set's write versions are unchanged: within
        one code version a version tuple names one tuple of values
        (version ``0``, never assigned, reads the declared init, which
        this view's code fixes), and a view's bindings never change.
        """
        names = self._read_orders.get(name, ())
        binding = self._binding(name)
        slot = (names, binding) if binding else names
        version = store.version
        versions = tuple([version(global_name) for global_name in names])
        cached = self._keys.get(slot)
        if cached is not None and cached[0] == versions:
            return cached[1]
        key = ReadValues(tuple([
            self._read_value(global_name, store) for global_name in names
        ]) + binding)
        self._keys[slot] = (versions, key)
        return key

    def probe(self, name, arg_value, store):
        """The cached entry for ``name(arg_value)`` under ``store``, or
        ``None`` — counting a hit exactly when one is found.

        The lookup key is the call ``(digest, argument)`` plus the
        values of the read set as ``store`` holds them now.  Digests
        cannot see host Python, so an entry whose producer may have
        called a native is taken only if this session binds each of
        those natives to the very object the producer had bound — on a
        shared store, another session may have bound different ones.
        """
        memo_store = self.memo_store
        entry = memo_store.get(
            CallKey(self._digests.get(name), arg_value),
            self._read_key(name, store),
        )
        if entry is None or (entry.natives and not self._binds(entry)):
            return None
        self.hits += 1
        self.replayed_boxes += entry.boxes
        self.tracer.add("memo_hits")
        # Shared stores (repro.cluster): a hit on an entry another
        # session produced is a cross-session warm hit — the view counts
        # it into the host's metrics.
        note = getattr(memo_store, "note_shared_hit", None)
        if note is not None:
            note(entry)
        return entry

    def _binds(self, entry):
        """Does this session bind ``entry``'s natives to the producer's
        implementations, object for object?"""
        implementation = self.natives.implementation
        return all(implementation(native) is impl
                   for native, impl in entry.natives)

    def _binding(self, name):
        """``name``'s transitive natives, each paired with this
        session's implementation, in name order."""
        binding = self._bindings.get(name)
        if binding is None:
            implementation = self.natives.implementation
            binding = self._bindings[name] = tuple(
                (native, implementation(native))
                for native in sorted(self._native_sets.get(name, ()))
            )
        return binding

    def store_result(self, name, arg_value, store, items, value):
        """Record one executed call; counts the miss that caused it and
        its cause: ``read_values`` when the call held variants, but none
        for these values, ``cold`` when it held none.

        The call's boxes are finished, so they are frozen here: an entry
        is immutable from the moment any session can replay it, and its
        box count (and later its HTML fragments) is computed once.
        """
        items = tuple(items)
        boxes = 0
        for item in items:
            if isinstance(item, Box):
                boxes += item.freeze().count_boxes()
        had_variants = self.memo_store.put(
            CallKey(self._digests.get(name), arg_value),
            self._read_key(name, store),
            MemoEntry(items, value, boxes, natives=self._binding(name)),
        )
        self.misses += 1
        self.tracer.add("memo_misses")
        if had_variants:
            self.misses_read_values += 1
            self.tracer.add("incremental.memo_miss.read_values")
        else:
            self.misses_cold += 1
            self.tracer.add("incremental.memo_miss.cold")

    def stats(self):
        return {"hits": self.hits, "misses": self.misses,
                "misses_cold": self.misses_cold,
                "misses_read_values": self.misses_read_values,
                "entries": len(self.memo_store)}
