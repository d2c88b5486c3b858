"""Loaded by every Python process started with this directory on PYTHONPATH.

The traced run puts it there for the server and, through the inherited
environment, for every cluster worker.  With ``PERFBENCH_LAYERS=1`` it
wraps the layer boundaries (``perfbench/layers.py``); otherwise it does
nothing.
"""

import os
import sys

if os.environ.get("PERFBENCH_LAYERS") == "1":
    sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(
        __file__))))
    import layers

    layers.install()
