"""The AO loop's block gate and failure abort, driven through run_lp and
run_zf with one block replaced by a stub that misbehaves."""

import numpy as np
import pytest

from nfisac import lp, zf
from nfisac.errors import NumericalError, OptimizationAbort
from nfisac.params import AlgoParams


def _records(res, block):
    """(record before the block, the block's record) pairs per iteration."""
    return [(prev, rec) for prev, rec in zip(res.trace, res.trace[1:])
            if rec.block == block]


def _assert_unchanged(pairs):
    for prev, rec in pairs:
        assert rec.wsr == prev.wsr
        assert rec.gamma_s == prev.gamma_s
        assert rec.power == prev.power


class TestGate:
    def test_overlong_beam_rejected(self, scenario, placement, monkeypatch):
        calls = []

        def long_beam(channels, state, *args, **kwargs):
            calls.append(1)
            return 2.0 * state.v / np.linalg.norm(state.v), 1.0, []

        monkeypatch.setattr(lp, "optimize_sense_beam_lp", long_beam)
        res = lp.run_lp(scenario, placement, AlgoParams(), 1.0, fixed_positions=True)
        assert len(calls) == res.outer_iters
        _assert_unchanged(_records(res, "v"))
        assert np.linalg.norm(res.state.v) <= 1.0 + 1e-9
        assert res.block_rejects >= res.outer_iters
        assert "v_block_rejected" in res.flags
        v_recs = [rec for rec in res.trace if rec.block == "v"]
        assert v_recs and all("v_block_rejected" in rec.flags for rec in v_recs)
        ws = [rec.wsr for rec in res.trace]
        assert all(b >= a for a, b in zip(ws, ws[1:]))

    def test_over_budget_precoders_rejected(self, scenario, placement, monkeypatch):
        calls = []

        def loud_precoders(channels, state, weights, p_max, *args, **kwargs):
            calls.append(1)
            c = np.sqrt(2.0 * p_max / state.power())
            return [c * Wk for Wk in state.W], 1

        monkeypatch.setattr(lp, "optimize_precoders", loud_precoders)
        res = lp.run_lp(scenario, placement, AlgoParams(), 1.0, fixed_positions=True)
        assert len(calls) == res.outer_iters
        _assert_unchanged(_records(res, "W"))
        assert res.state.power() <= scenario.p_max * (1 + 1e-6)
        assert res.block_rejects >= res.outer_iters


class TestAbort:
    def test_failing_beam_aborts_at_second_loop(self, scenario, placement, monkeypatch):
        def broken_beam(*args, **kwargs):
            raise NumericalError("stub")

        monkeypatch.setattr(zf, "optimize_sense_beam_zf", broken_beam)
        with pytest.raises(OptimizationAbort, match="at iteration 2$"):
            zf.run_zf(scenario, placement, AlgoParams(), 1.0)
