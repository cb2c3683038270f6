"""The benchmark's per-layer tracer still binds to every layer it wraps.

``perfbench/tracing.py`` patches names in the library's module dicts and on
its classes, so a renamed function, or a call that no longer looks its
name up at call time, would leave a layer idle in a traced run.  This runs
one unit of each kind untraced and traced, straight from the benchmark's
own files.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# (workload, trial, scheme): one unit of each kind
UNITS = (("mc-trend", 37, "LP-MA"), ("mc-trend", 5, "ZF-MA"),
         ("mc-trend", 3, "LP-FIX"), ("mc-trend", 25, "ZF-FIX"),
         ("positions", 66, "POS"))


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module           # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_layer():
    tracing, workloads = _load("tracing"), _load("workloads")
    benches = {name: workloads.Bench(name) for name in ("mc-trend", "positions")}
    tracer = tracing.Tracer(benches["mc-trend"].nf)
    for name, trial, scheme in UNITS:
        bench = benches[name]
        plain = bench.run_unit(trial, scheme)
        tracer.install()
        try:
            traced = bench.run_unit(trial, scheme)
        finally:
            tracer.uninstall()
        assert plain.problem is None
        assert (traced.wsr_bits, traced.problem) == (plain.wsr_bits, plain.problem)
    assert tracer.check({scheme for _, _, scheme in UNITS}) == []
    assert tracer.counts["lp.v.sca_rounds"] > 0
    assert tracer.counts["zf.v.sca_rounds"] > 0
