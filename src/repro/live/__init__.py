"""The live programming IDE (Fig. 2): sessions, navigation, manipulation."""

from .editor import CodeBuffer
from .manipulation import (
    ManipulationEdit,
    apply_manipulation,
    format_attr_value,
    surface_attr_name,
)
from .navigation import Selection, box_to_code, code_to_boxes, selection_chain
from .probe import ProbeResult, probe_expression, probe_function
from .screenshot import code_pane, side_by_side
from .session import EditResult

__all__ = [name for name in dir() if not name.startswith("_")]
