"""tools/ab_cpu.py on this checkout against itself, for one unit."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _ab_cpu():
    spec = importlib.util.spec_from_file_location("ab_cpu", ROOT / "tools" / "ab_cpu.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_control_run_on_one_unit(capsys):
    # two worker processes, one ZF-FIX unit each: same WSR on both sides
    stats = _ab_cpu().main([str(ROOT), "--control", "--trials", "1",
                            "--schemes", "ZF-FIX"])
    out = capsys.readouterr().out
    assert stats["differ"] == 0
    assert stats["total_ratio"] > 0 and stats["median_ratio"] > 0
    assert "(control)" in out
    assert "ZF-FIX" in out
    assert "median per-unit ratio" in out and "over 1 units" in out
    assert "units whose WSR differs: 0" in out
