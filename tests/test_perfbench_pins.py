"""The traced benchmark run can still find every entry point it wraps.

``perfbench/layers.py`` wraps the program's public functions and methods
by name (``python3 perfbench/run.py --trace 1``).  A rename or removal in
``src/`` makes that install raise, so this test installs the wrappers
once, removes them again, and checks that every patched attribute is
back to its original object.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_modules():
    """Import ``spans`` and ``layers`` from ``perfbench/``, then forget them."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
        import spans

        yield layers, spans
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in ("layers", "spans"):
            sys.modules.pop(name, None)


def test_layers_install_and_uninstall_restore_every_patch(perfbench_modules):
    layers, spans = perfbench_modules
    tracer = spans.Tracer()
    try:
        layers.install(tracer)
        # first patch of each attribute holds its original object
        originals = {}
        for owner, attr, original in tracer._patches:
            originals.setdefault((owner, attr), original)
        assert originals
        for (owner, attr), original in originals.items():
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original, (owner, attr)
