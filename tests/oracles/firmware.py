"""Test oracle: the per-sample PAVENET firmware loop.

One kernel event, one RNG read and one detector step per 10 Hz
sample: the plain statement of what a node observes, which the
block sampler of :class:`repro.sensors.pavenet.PavenetNode` must
reproduce byte for byte (``tests/test_oracles.py``,
``tests/test_sensing_fast_path.py``).  The loop itself is the
production path of battery-powered nodes; :func:`per_sample_firmware`
swaps it in at the ``start`` seam for every node.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.sensors.pavenet import PavenetNode

__all__ = ["per_sample_firmware"]


def _start_per_sample(node: PavenetNode) -> None:
    if not node.running:
        node._start_per_sample()


@contextmanager
def per_sample_firmware() -> Iterator[None]:
    """Within the block, every node that starts runs the per-sample loop."""
    original = PavenetNode.start
    PavenetNode.start = _start_per_sample
    try:
        yield
    finally:
        PavenetNode.start = original
