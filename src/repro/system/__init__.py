"""The system model (Figs. 7, 9, 12): states, events, transitions, runtime."""

from .events import Event, EventQueue, ExecEvent, PopEvent, PushEvent
from .fixup import FixupReport, fixup, fixup_stack, fixup_store
from .services import Services, VirtualClock
from .state import PageStack, Store, SystemState
from .transitions import System, Transition

__all__ = [name for name in dir() if not name.startswith("_")]
