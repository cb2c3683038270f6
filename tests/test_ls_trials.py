"""tools/ls_trials.py's core on a stub Bench, in-process: every line search
of two covariance solves and two position blocks is filed under its caller,
and the wrapped functions are restored afterwards.  No process is started."""

import importlib.util
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from nfisac import ao, lp, subsolver, zf
from nfisac.params import AlgoParams

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("ls_trials", ROOT / "tools" / "ls_trials.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Bench:
    """Stands in for ``perfbench.workloads.Bench``: unit "COV" solves the
    conftest LP covariance subproblem at the scenario's gamma0 (its first
    gradient try starts on the sensing boundary) and at gamma0 = 0 (slack);
    unit "POS" runs user 0's LP position block and the LP BS block."""

    def __init__(self, scenario, placement, channels, lp_state):
        self.args = scenario, placement, channels, lp_state

    def run_unit(self, trial, scheme):
        sc, pl, ch, st = self.args
        if scheme == "COV":
            V0 = np.outer(st.v, st.v.conj())
            for gamma0 in (sc.gamma0, 0.0):
                sub = subsolver.CovarianceSubproblem(
                    ch, V0, sc.weights, gamma0, st.u, 1.0,
                    lp.interference_model(ch, st, gamma0))
                lp.solve_covariance_subproblem(sub)
        else:
            params = AlgoParams()
            pl, ch, _ = lp.optimize_user_positions(sc, pl, ch, st, 0, params)
            lp.optimize_bs_positions_alm(sc, pl, ch, st, sc.weights, sc.gamma0, params)
        return SimpleNamespace(problem=None)


def test_every_search_is_filed_under_its_caller(tool, scenario, placement, channels,
                                                lp_state, monkeypatch):
    made = []

    def counted(*args, _real=subsolver.line_search):
        made.append(_real(*args))
        return made[-1]

    monkeypatch.setattr(subsolver, "line_search", counted)
    wrapped = (subsolver.line_search, subsolver._pga_ascent, ao.descend,
               lp.solve_covariance_subproblem, zf.solve_covariance_subproblem)
    bench = _Bench(scenario, placement, channels, lp_state)
    tally, problems = tool.collect(bench, [(0, "COV"), (0, "POS")])
    assert problems == []
    assert (subsolver.line_search, subsolver._pga_ascent, ao.descend,
            lp.solve_covariance_subproblem, zf.solve_covariance_subproblem) == wrapped
    assert sum(c.searches for c in tally.values()) == len(made)
    # one cold gradient try per solve, one cold step per descent
    assert tally["cov grad cold boundary"].searches == 1
    assert tally["cov grad cold slack"].searches == 1
    assert tally["pos user cold"].searches == 1
    assert tally["pos bs cold"].searches >= 1
    assert {"cov fw", "pos user warm"} <= set(tally)
    assert "other" not in tally
    for c in tally.values():
        assert sum(c.adopted.values()) == c.searches
        assert c.trials >= c.stacks
    # the cold gradient try from the boundary takes one stack of its first
    # BOUNDARY_STACK trials, through its adopted one
    cold = tally["cov grad cold boundary"]
    (adopted,) = cold.adopted
    assert adopted <= subsolver.BOUNDARY_STACK and cold.stacks == 1
    lines = tool.report(tally)
    assert lines[0].split()[:4] == ["caller", "searches", "trials", "stacks"]
    assert len(lines) == len(tally) + 1
    assert [line[:24].strip() for line in lines[1:]] == sorted(tally)


def test_histogram(tool):
    assert tool._histogram(Counter({12: 1, 1: 3, None: 2})) == "1:3 12:1 -:2"
    assert tool._histogram(Counter({2: 5})) == "2:5"
