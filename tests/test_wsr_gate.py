"""tools/wsr_gate.py's core on two stub units, in-process: the record of a
unit on a shifted pool and at a patched AO stop, the paired comparison of
two runs with the AO loop cap's headroom, the sorting of moved units by a
reference stop, and the workload choice.  No process is started."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from nfisac import ao, geometry, metrics
from nfisac.params import EPS_ALM, EPS_F

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("wsr_gate", ROOT / "tools" / "wsr_gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Bench:
    """Stands in for ``perfbench.workloads.Bench``: a unit's WSR is 1 + its
    trial, plus ``per_nm`` bits per nm of the BS array's x, and its trace
    rejects the v block twice."""

    def __init__(self, per_nm):
        self.per_nm = per_nm

    def _placement(self, trial):
        return geometry.Placement(np.zeros((2, 3)), ())

    def run_unit(self, trial, scheme):
        x_nm = self._placement(trial).t[0, 0] * 1e9
        trace = [metrics.TraceRecord(1, "v", 0.0, 0.0, 0.0, 0.0, (), ("v_block_rejected",)),
                 metrics.TraceRecord(2, "v", 0.0, 0.0, 0.0, 0.0, (), ("v_block_rejected",))]
        run = SimpleNamespace(trace=trace, outer_iters=2, converged=trial == 0)
        return SimpleNamespace(wsr_bits={scheme: 1.0 + trial + self.per_nm * x_nm},
                               problem=None, run=run)


def _doc(tool, bench):
    units = [tool.measure(bench, pool, trial, "ZF-MA") for pool in (0, 1) for trial in (0, 1)]
    return json.loads(json.dumps(dict(pools=1, units=units)))


def test_record_of_a_shifted_unit(tool):
    bench = _Bench(per_nm=0.1)
    rec = tool.measure(bench, 1, 1, "ZF-MA")
    assert "_placement" not in vars(bench)          # the wrapper is removed again
    assert rec.pop("cpu_s") >= 0.0
    assert rec == dict(pool=1, trial=1, scheme="ZF-MA", wsr_bits=pytest.approx(2.1),
                       outer_iters=2, converged=False, rejects={"v": 2},
                       problem=None)


def test_compare_pairs_units_per_pool(tool):
    parent, change = _doc(tool, _Bench(per_nm=0.0)), _doc(tool, _Bench(per_nm=0.1))
    lines, stats = tool.compare(parent, change)
    mean, (lo, hi) = stats["ZF-MA"]
    # pool 0 unchanged; pool 1 gains 0.1 bits on a parent mean of 1.5 bits
    assert (lo, hi) == (0.0, pytest.approx(100 * 0.1 / 1.5))
    assert mean == pytest.approx(50 * 0.1 / 1.5)
    text = "\n".join(lines)
    assert "units moved by more than 0.05 bits: 2" in text
    assert "ZF-MA pool 1 trial 0: 1.0000 -> 1.1000 (+0.1000)" in text
    rows = [line.split() for line in lines if line.startswith("ZF-MA") and "%" in line]
    # scheme, pool, units, both means, diff, diff %, moved, cpu, unconverged, failed
    assert [row[:3] + row[7:8] + row[9:] for row in rows[:2]] == [
        ["ZF-MA", "0", "2", "0", "1/1", "0/0"], ["ZF-MA", "1", "2", "2", "1/1", "0/0"]]


def test_compare_totals_per_scheme(tool):
    # the change side rejects the v block once per unit, the parent twice,
    # and the change takes half the parent's CPU
    parent, change = _doc(tool, _Bench(per_nm=0.0)), _doc(tool, _Bench(per_nm=0.1))
    for r in parent["units"]:
        r["cpu_s"] = 2.0
    for r in change["units"]:
        r["cpu_s"], r["rejects"] = 1.0, {"v": 1, "t": 1}
    lines, _ = tool.compare(parent, change)
    head = lines.index("totals over all pools: CPU s parent / change (ratio), "
                       "block rejects parent -> change")
    assert lines[head + 1].split() == [
        "ZF-MA", "units", "4", "cpu", "8.00", "/", "4.00", "(2.000x)", "rejects",
        "t", "0", "->", "4,", "v", "8", "->", "4"]
    assert len(lines) == head + 2
    # a run recorded without rejects totals none
    lines, _ = tool.compare(_pooled([1.0, 1.0]), _pooled([1.0, 1.0]))
    assert lines[-1].split()[-2:] == ["rejects", "none"]


def _pooled(means):
    """A run's document: one unit per pool, its WSR that pool's mean."""
    return dict(pools=len(means) - 1, units=[
        dict(pool=pool, trial=0, scheme="ZF-MA", wsr_bits=m, cpu_s=1.0, converged=True,
             problem=None) for pool, m in enumerate(means)])


@pytest.mark.parametrize("pcts, word", [
    ([4.0, 4.0, 4.0, 4.0], "gain"),
    ([-4.0, -4.0, -4.0, -4.0], "loss"),
    ([1.0, 1.0, 1.0, 1.0], "within noise"),          # under the threshold
    ([6.0, 6.0, 6.0, -0.5], "within noise"),         # one pool of the other sign
])
def test_compare_verdict_per_scheme(tool, pcts, word):
    # the parent's pool means span 0.06 bits around 0.995: threshold 3.02%
    parent = [1.0, 1.02, 0.96, 1.0]
    change = [p * (1.0 + d / 100.0) for p, d in zip(parent, pcts)]
    lines, _ = tool.compare(_pooled(parent), _pooled(change))
    summary = [line for line in lines if line.startswith("ZF-MA") and ".." in line]
    assert len(summary) == 1
    assert summary[0].endswith(f"  {word}")
    assert " 3.02%" in summary[0]
    assert any(line.startswith("verdict:") for line in lines)


def test_verdict_rule(tool):
    assert tool.verdict([2.0, 1.0], [1.0, 1.02]) == ("gain", pytest.approx(0.990099))
    assert tool.verdict([-2.0, -1.0], [1.0, 1.02])[0] == "loss"
    assert tool.verdict([0.5, 0.5], [1.0, 1.02])[0] == "within noise"
    assert tool.verdict([2.0, 0.0], [1.0, 1.02])[0] == "within noise"
    # one pool: no spread, so the floor is the threshold
    assert tool.verdict([0.01], [3.0]) == ("within noise", tool.FLOOR_PCT)
    assert tool.verdict([0.2], [3.0]) == ("gain", tool.FLOOR_PCT)


@pytest.mark.parametrize("pct, word", [(-0.05, "within noise"), (-0.33, "loss")])
def test_verdict_floor_on_a_flat_scheme(tool, pct, word):
    # the parent's pool means do not move, so half their spread is 0%: the
    # 0.1% floor is the threshold
    parent = [4.15, 4.15, 4.15, 4.15]
    change = [p * (1.0 + pct / 100.0) for p in parent]
    lines, _ = tool.compare(_pooled(parent), _pooled(change))
    summary = [line for line in lines if line.startswith("ZF-MA") and ".." in line]
    assert summary[0].endswith(f"  {word}")
    assert " 0.10%" in summary[0]
    assert any(line.startswith("verdict:") and "at least 0.1%" in line for line in lines)


def test_record_at_a_reference_stop(tool):
    # the stub sees the patched AO stop while it runs, the position ALM's
    # stop stays as it is, and the AO stop is restored
    class AtStop(_Bench):
        def run_unit(self, trial, scheme):
            assert ao.EPS_ALM == EPS_ALM
            out = super().run_unit(trial, scheme)
            out.wsr_bits[scheme] += ao.EPS_F
            return out

    bench = AtStop(per_nm=0.0)
    assert tool.measure(bench, 0, 1, "ZF-MA", 1e-3)["wsr_bits"] == pytest.approx(2.001)
    assert ao.EPS_F == EPS_F
    assert tool.measure(bench, 0, 1, "ZF-MA")["wsr_bits"] == pytest.approx(2.0 + EPS_F)


def _units(wsr):
    """A run's document: ZF-MA trial t on pool 0 at WSR wsr[t], and one
    unmoved LP-MA unit; a None WSR is a failed unit."""
    units = [dict(pool=0, trial=t, scheme="ZF-MA", wsr_bits=w, cpu_s=1.0,
                  converged=True, problem=None if w is not None else "Error: stub")
             for t, w in enumerate(wsr)]
    units.append(dict(pool=0, trial=0, scheme="LP-MA", wsr_bits=4.0, cpu_s=1.0,
                      converged=True, problem=None))
    return dict(pools=0, units=units)


def test_reference_sorts_moved_units(tool):
    # trials 0-3 move by more than 0.05 bits at the run stop, trial 4 not;
    # at the reference stop trial 0's move vanishes, trial 1's persists,
    # trial 2's turns and trial 3's reference run fails
    parent, change = _units([3.0, 3.0, 3.0, 3.0, 3.0]), _units([3.5, 2.0, 3.3, 3.2, 3.01])
    ref_parent = _units([3.6, 3.0, 3.3, 3.0, 3.1])
    ref_change = _units([3.62, 2.5, 3.1, None, 3.1])
    lines = tool.reference(parent, change, ref_parent, ref_change, 1e-3)
    assert lines[0].startswith("reference stop EPS_F = 0.001:")
    assert lines[1:5] == [
        "  ZF-MA pool 0 trial 0: +0.5000 -> +0.0200 (3.6000 -> 3.6200)  plateau",
        "  ZF-MA pool 0 trial 1: -1.0000 -> -0.5000 (3.0000 -> 2.5000)  persists",
        "  ZF-MA pool 0 trial 2: +0.3000 -> -0.2000 (3.3000 -> 3.1000)  flips",
        "  ZF-MA pool 0 trial 3: failed"]
    rows = {line.split()[0]: line.split() for line in lines[6:]}
    # per scheme over the units whose four runs are clean: trials 0, 1, 2, 4
    assert rows["ZF-MA"][:7] == ["ZF-MA", "4", "3.0000", "2.9525", "3.2500",
                                 "3.0800", "-0.1700"]
    assert " ".join(rows["ZF-MA"][7:]) == "failed 1, flips 1, persists 1, plateau 1"
    assert rows["LP-MA"][1:] == ["1", "4.0000", "4.0000", "4.0000", "4.0000",
                                 "+0.0000", "none"]


class _Workloads:
    """Stands in for a checkout's ``perfbench/workloads.py``: two units per
    workload, and a Bench that records the workload it is built for."""

    def __init__(self):
        self.benches = []
        outer = self

        class Bench:
            def __init__(self, name):
                outer.benches.append(name)

        self.Bench = Bench

    @staticmethod
    def pool_units(name):
        return [(0, f"{name}-A"), (1, f"{name}-A")]

    @staticmethod
    def use_checkout_source():
        pass


@pytest.mark.parametrize("argv, workload", [([], "mc-trend"),
                                            (["--workload", "mc-desk"], "mc-desk")])
def test_workload_reaches_units_workers_and_record(tool, monkeypatch, tmp_path,
                                                   argv, workload):
    stub, calls = _Workloads(), []
    monkeypatch.setattr(tool, "_workloads", lambda checkout: stub)

    def collect(checkout, units, workers, workload):
        calls.append((units, workload))
        return [dict(unit=list(u), problem=None) for u in units]

    monkeypatch.setattr(tool, "collect", collect)
    out = tmp_path / "run.json"
    tool.main([*argv, "--pools", "1", "--out", str(out)])
    units = [(pool, trial, f"{workload}-A") for pool in (0, 1) for trial in (0, 1)]
    assert calls == [(units, workload)]
    doc = json.loads(out.read_text())
    assert (doc["workload"], doc["max_outer"], doc["pools"]) == (workload, ao.MAX_OUTER, 1)
    assert len(doc["units"]) == 4
    # a worker builds its Bench for the workload it is given; monkeypatch
    # restores the stdout that _init_worker redirects
    monkeypatch.setattr(tool.sys, "stdout", tool.sys.stdout)
    tool._init_worker("checkout", workload)
    assert stub.benches == [workload]


def test_reference_runs_on_the_recorded_workload(tool, monkeypatch, tmp_path, capsys):
    calls = []

    def collect(checkout, units, workers, workload="mc-trend"):
        calls.append((checkout, workload))
        return [dict(pool=p, trial=t, scheme=s, wsr_bits=3.0, cpu_s=1.0,
                     converged=True, problem=None) for p, t, s, _ in units]

    monkeypatch.setattr(tool, "collect", collect)
    files = []
    for name, wsr, workload in (("p", [3.0], "mc-desk"), ("c", [3.5], None)):
        doc = dict(_units(wsr), checkout=name)
        if workload:
            doc["workload"] = workload
        files.append(tmp_path / f"{name}.json")
        files[-1].write_text(json.dumps(doc))
    tool.main(["--compare", *map(str, files), "--reference-eps", "1e-3"])
    # a record without a workload is an mc-trend run
    assert calls == [("p", "mc-desk"), ("c", "mc-trend")]
    assert "ZF-MA pool 0 trial 0: +0.5000 -> +0.0000" in capsys.readouterr().out


def test_compare_shows_the_loop_cap_headroom(tool):
    # the change's ZF-MA units end at 26 and 28 of the 30-loop cap, two
    # within 5 loops of it; a run recorded without its cap counts none
    parent, change = _doc(tool, _Bench(per_nm=0.0)), _doc(tool, _Bench(per_nm=0.0))
    for doc, its in ((parent, [3, 12, 4, 25]), (change, [26, 28, 5, 6])):
        doc["max_outer"] = 30
        for r, n in zip(doc["units"], its):
            r["outer_iters"] = n
    lines, _ = tool.compare(parent, change)
    head = lines.index("AO loops: largest outer_iters parent / change, units within "
                       "5 loops of MAX_OUTER 30 / 30")
    assert lines[head + 1].split() == ["ZF-MA", "largest", "25", "/", "28",
                                       "near", "the", "cap", "1", "/", "2"]
    assert lines[head + 2].startswith("totals over all pools")
    del parent["max_outer"]
    lines, _ = tool.compare(parent, change)
    assert "MAX_OUTER None / 30" in "\n".join(lines)
    assert [line.split()[-3:] for line in lines if "near the cap" in line] == [
        ["-", "/", "2"]]
