"""tools/fingerprint.py, the identity gate, run in-process on two units.

Its digest of a unit must repeat from run to run, and its wrappers must see
every position block a positions cell calls; an API change that broke
either would let two checkouts compare equal, or unequal, for the wrong
reason.
"""

import importlib
import importlib.util
import os
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# (workload, trial, scheme): one AO trial without position blocks, and one
# positions cell, which calls every position block of both stacks
UNITS = (("mc-trend", 0, "ZF-FIX"), ("positions", 0, "POS"))


@pytest.fixture
def tool(monkeypatch):
    """tools/fingerprint.py as a module.  The import path, the BLAS thread
    setting it defaults and every attribute ``record_position_blocks``
    wraps are restored afterwards."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setitem(os.environ, "OPENBLAS_NUM_THREADS",
                        os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    spec = importlib.util.spec_from_file_location("fingerprint",
                                                  ROOT / "tools" / "fingerprint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for stack, names in module.POSITION_BLOCKS.items():
        owner = importlib.import_module(f"nfisac.{stack}")
        for name in names:
            monkeypatch.setattr(owner, name, getattr(owner, name))
    return module


@pytest.mark.parametrize("workload, trial, scheme", UNITS)
def test_digest_repeats_and_sees_the_position_blocks(tool, workload, trial, scheme):
    calls = []
    tool.record_position_blocks(calls)
    bench = tool.workloads.Bench(workload)
    first = tool.fingerprint(bench, calls, trial, scheme)
    blocks = {name for name, _ in calls}
    second = tool.fingerprint(bench, calls, trial, scheme)
    assert re.fullmatch("[0-9a-f]{64}", first)
    assert first == second
    wrapped = {f"{stack}.{name}" for stack, names in tool.POSITION_BLOCKS.items()
               for name in names}
    assert blocks == (wrapped if workload == "positions" else set())
