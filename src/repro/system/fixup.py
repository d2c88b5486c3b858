"""The state fix-up relations of Fig. 12: ``C' : S ▷ S'`` and ``C' : P ▷ P'``.

When the UPDATE transition swaps new code ``C'`` for old code ``C``, the
store and page stack were built under ``C`` and may no longer make sense:
a global may have been deleted or changed type; a page may be gone or take
a different argument.  The paper's answer is radical and simple —
"essentially, it just deletes whatever does not type":

* S-OKAY keeps a store entry ``[g ↦ v]`` iff ``C'`` still declares ``g``
  *and* ``C'; ε ⊢s v : τ`` at the declared type.  Dropped globals revert
  to their (new) initial value via lazy rule EP-GLOBAL-2.
* P-OKAY keeps a stack entry ``(p, v)`` iff ``C'`` still defines page
  ``p`` *and* ``v`` types at the new argument type.  Dropped pages simply
  vanish from the navigation history.

Both relations preserve the order of surviving entries.  We also return a
:class:`FixupReport` naming what was dropped, which the live IDE surfaces
to the programmer ("your edit reset global ``listings``").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.trace import NULL_TRACER
from ..typing.checker import check_value_type
from .state import PageStack, Store


@dataclass
class FixupReport:
    """What the fix-up deleted, for diagnostics (not part of the semantics)."""

    dropped_globals: list = field(default_factory=list)
    dropped_pages: list = field(default_factory=list)

    @property
    def clean(self):
        """Did every entry survive?"""
        return not self.dropped_globals and not self.dropped_pages


def fixup_store(new_code, store, natives=None, report=None,
                tracer=NULL_TRACER):
    """``C' : S ▷ S'`` — rules S-EMPTY / S-SKIP / S-OKAY.

    Returns a *new* :class:`Store`; the input is not modified.
    """
    if report is None:
        report = FixupReport()
    result = Store()
    for name, value in store.items():
        definition = new_code.global_(name)
        if definition is not None and check_value_type(
            new_code, value, definition.type, natives=natives
        ):
            # S-OKAY — the entry survives *with its write version*: it is
            # the same assignment event, so UPDATE's version diff does not
            # count it as a write.
            result.carry(name, value, store.version(name))
        else:
            report.dropped_globals.append(name)  # S-SKIP
            tracer.add("store_entries_deleted")
    return result, report


def fixup_stack(new_code, stack, natives=None, report=None,
                tracer=NULL_TRACER):
    """``C' : P ▷ P'`` — rules P-EMPTY / P-SKIP / P-OKAY.

    Returns a *new* :class:`PageStack`; the input is not modified.
    """
    if report is None:
        report = FixupReport()
    surviving = []
    for page_name, value in stack.entries():
        page = new_code.page(page_name)
        if page is not None and check_value_type(
            new_code, value, page.arg_type, natives=natives
        ):
            surviving.append((page_name, value))  # P-OKAY
        else:
            report.dropped_pages.append(page_name)  # P-SKIP
            tracer.add("stack_frames_fixed")
    return PageStack(surviving), report


def fixup(new_code, store, stack, natives=None, tracer=NULL_TRACER):
    """Run both relations; returns ``(store', stack', report)``."""
    report = FixupReport()
    new_store, _ = fixup_store(new_code, store, natives, report, tracer)
    new_stack, _ = fixup_stack(new_code, stack, natives, report, tracer)
    return new_store, new_stack, report
