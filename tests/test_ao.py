"""The AO loop's block gate and failure abort, driven through run_lp and
run_zf with one block replaced by a stub that misbehaves, the shared
projected-gradient descent and SCA loop on stub objectives, the ALM
position loop on stub rates and gradients, and the one parameter set."""

import dataclasses
import pathlib
import re

import numpy as np
import pytest

from nfisac import ao, geometry, lp, metrics, zf
from nfisac.errors import NumericalError, OptimizationAbort, RankDeficiencyError
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


class TestDescend:
    """``ao.descend`` on user 0's array with a stub objective: the iterate is
    (placement, value), ``move`` reports each trial step it is asked to
    evaluate, and ``accept`` decides which trial steps pass."""

    def _run(self, scenario, placement, grad, accept, params, max_steps=4,
             veto=(), stop=lambda prev, cur: False):
        k = 0
        tried = []

        def move(x, q):
            pl, _ = x
            s = float(np.max(np.abs(q[:, :2] - pl.q[k][:, :2]) / np.abs(grad)))
            tried.append(s)
            if len(tried) in veto:
                return None
            return (pl.with_q(k, q), x[1] - 1.0) if accept(len(tried)) else (pl, x[1])

        x, steps, exhausted = ao.descend(
            scenario, k, (placement, 0.0), lambda x: -grad, move, stop,
            max_steps, params)
        return x, steps, exhausted, tried

    def test_backtracks_by_tau_and_doubles_after_accept(self, scenario, placement):
        params = AlgoParams(step0=1e-4, tau=0.25, delta=1e-12)
        grad = np.full((scenario.n_u, 2), 1e-2)
        # reject trials 1-2, accept 3; next step rejects 4, accepts 5
        x, steps, exhausted, tried = self._run(
            scenario, placement, grad, lambda n: n in (3, 5), params, max_steps=2)
        np.testing.assert_allclose(
            tried, [1e-4, 2.5e-5, 6.25e-6, 1.25e-5, 3.125e-6], rtol=1e-6)
        assert steps == 2 and not exhausted
        assert x[1] == -2.0

    def test_veto_and_unevaluable_count_as_rejects(self, scenario, placement, monkeypatch):
        params = AlgoParams(step0=1e-4, tau=0.5, delta=1e-12)
        grad = np.full((scenario.n_u, 2), 1e-2)
        checks = []

        def spacing(pos, d_min):
            checks.append(1)
            return len(checks) != 1                  # the first trial is vetoed

        monkeypatch.setattr(geometry, "min_spacing_ok", spacing)
        # move is not asked about the vetoed trial; its first call returns None
        _, steps, exhausted, tried = self._run(
            scenario, placement, grad, lambda n: True, params, max_steps=1, veto=(1,))
        np.testing.assert_allclose(tried, [5e-5, 2.5e-5], rtol=1e-6)
        assert steps == 1 and not exhausted

    def test_zero_gradient_is_stationary(self, scenario, placement):
        params = AlgoParams()
        grad = np.zeros((scenario.n_u, 2))
        x, steps, exhausted = ao.descend(
            scenario, 0, (placement, 0.0), lambda x: grad,
            lambda x, q: pytest.fail("a zero step must not be evaluated"),
            lambda prev, cur: False, 4, params)
        assert (steps, exhausted) == (0, False)
        assert x[0] is placement

    def test_vanishing_step_ends_exhausted(self, scenario, placement):
        # every trial is rejected, and tau shrinks the step below the
        # positions' resolution long before max_ls trials
        params = AlgoParams(step0=1e-4, tau=0.25)
        grad = np.full((scenario.n_u, 2), 1e-2)
        x, steps, exhausted, tried = self._run(
            scenario, placement, grad, lambda n: False, params)
        assert 0 < len(tried) < params.max_ls
        assert (steps, exhausted) == (0, True)
        assert x[0] is placement

    def test_line_search_runs_out(self, scenario, placement):
        params = AlgoParams(step0=1e-4, max_ls=3)
        grad = np.full((scenario.n_u, 2), 1e-2)
        x, steps, exhausted, tried = self._run(
            scenario, placement, grad, lambda n: False, params)
        assert len(tried) == 3
        assert (steps, exhausted) == (0, True)
        assert x[0] is placement

    def test_stop_ends_after_accepted_step(self, scenario, placement):
        params = AlgoParams(step0=1e-4, delta=1e-12)
        grad = np.full((scenario.n_u, 2), 1e-2)
        seen = []

        def stop(prev, cur):
            seen.append((prev[1], cur[1]))
            return True

        x, steps, exhausted, tried = self._run(
            scenario, placement, grad, lambda n: True, params, stop=stop)
        assert seen == [(0.0, -1.0)]
        assert (steps, exhausted, len(tried)) == (1, False, 1)


class TestAlmPositions:
    """``ao.alm_positions`` on stub ``rates_of`` and ``descent``: rates that
    grow with every evaluation, so each evaluated candidate is adopted, and
    a gradient that shifts the whole array along x."""

    WEIGHTS = np.array([0.2, 0.8])

    @staticmethod
    def _growing_rates(evals):
        def rates_of(ch, st):
            evals.append(ch.tag)
            return np.full(len(ch.H), float(len(evals)))
        return rates_of

    @staticmethod
    def _shift(n, seen=None):
        def descent(pl, ch, st, penalized):
            if seen is not None:
                seen.append((ch.tag, st.channel_tag))
            g = np.tile([1e-3, 0.0], (n, 1))
            return g, (np.zeros_like(g) if penalized else None)
        return descent

    def test_start_point_is_measured_with_the_given_weights(
            self, scenario, placement, channels, zf_state, monkeypatch):
        starts = []

        def no_descent(scenario, k, x, *args):
            starts.append(x)
            return x, 0, False

        monkeypatch.setattr(ao, "descend", no_descent)
        q = placement.q[0].copy()
        q[:, 0] += 0.01
        pl2, ch2 = geometry.move_array(scenario, placement, channels, 0, q)
        ao.alm_positions(scenario, pl2, ch2, zf_state, self.WEIGHTS, scenario.gamma0,
                         AlgoParams(alm_max_outer=1), 0.0, metrics.zf_rates,
                         self._shift(scenario.n_u), user=0)
        _, ch, st, wsr, kap, _ = starts[0]
        ref = zf_state.at(ch2, scenario.p_max)
        assert ch is ch2 and st.channel_tag == ch2.tag
        rates = metrics.zf_rates(ch2, ref)
        assert wsr == float(self.WEIGHTS @ rates)
        assert wsr != float(np.asarray(scenario.weights) @ rates)
        scale = metrics.sinr_deficit_scale(ch2, scenario.gamma0)
        assert kap == metrics.sinr_deficit(ch2, ref.precoders, ref.v, ref.u,
                                           scenario.gamma0) / scale

    def test_rank_deficient_candidate_is_one_rejected_trial(
            self, scenario, placement, channels, lp_state, monkeypatch):
        at_calls = []

        class FailsFirstCandidate(metrics.LpState):
            def at(self, channels, p_max):
                at_calls.append(channels.tag)
                if len(at_calls) == 2:
                    raise RankDeficiencyError(np.inf)
                return self

        moves = []
        move_array = geometry.move_array

        def spy(scenario, pl, ch, k, positions):
            moves.append(positions.copy())
            return move_array(scenario, pl, ch, k, positions)

        monkeypatch.setattr(geometry, "move_array", spy)
        params = AlgoParams(alm_max_outer=1, inner_pgm_max=1)
        st = FailsFirstCandidate(lp_state.W, lp_state.v, lp_state.u)
        evals = []
        # gamma0 = 0 keeps the deficit non-positive, so the loop stays unpenalized
        pl, ch, st_out, eta, info = ao.alm_positions(
            scenario, placement, channels, st, self.WEIGHTS, 0.0, params, 0.0,
            self._growing_rates(evals), self._shift(scenario.n_t))
        t0 = placement.t
        assert len(moves) == 2 and len(at_calls) == 3 and len(evals) == 2
        np.testing.assert_allclose(moves[1] - t0, params.tau * (moves[0] - t0),
                                   atol=1e-15)
        assert (info.inner_steps, info.line_search_exhausted) == (1, False)
        assert pl.t.tobytes() == moves[1].tobytes() and st_out is st
        pl.validate(scenario)

    def test_descent_sees_states_of_its_channels(
            self, scenario, placement, channels, zf_state):
        seen = []
        q = placement.q[1].copy()
        q[:, 1] += 0.01
        pl2, ch2 = geometry.move_array(scenario, placement, channels, 1, q)
        params = AlgoParams(alm_max_outer=2, inner_pgm_max=3)
        pl, ch, st, _, info = ao.alm_positions(
            scenario, pl2, ch2, zf_state, scenario.weights, scenario.gamma0,
            params, 0.0, self._growing_rates([]), self._shift(scenario.n_u, seen),
            user=1)
        assert info.inner_steps >= 2
        assert len({tag for tag, _ in seen}) >= 3
        assert all(ch_tag == st_tag for ch_tag, st_tag in seen)
        assert st.channel_tag == ch.tag
        pl.validate(scenario)


class TestSca:
    """``ao.sca`` on stubs: the point is the round number, ``solve`` moves
    it one on, and ``value`` reads the surrogate of each round from a list."""

    def _run(self, values, params):
        seen = []

        def make_sub(x):
            return ("sub", x)

        def solve(sub, p):
            seen.append((sub, p))
            return sub[1] + 1

        x, rounds = ao.sca(0, make_sub, solve, lambda sub, x: values[x - 1], params)
        return x, rounds, seen

    def test_stops_at_first_small_gain_and_counts_it(self):
        params = AlgoParams(eps_s=1e-2)
        x, rounds, seen = self._run([0.0, 1.0, 2.0, 2.005, 5.0, 9.0], params)
        assert (x, rounds) == (4, 4)
        assert [sub for sub, _ in seen] == [("sub", 0), ("sub", 1), ("sub", 2), ("sub", 3)]

    def test_runs_at_most_sca_max_rounds(self):
        params = AlgoParams(sca_max=3)
        x, rounds, _ = self._run([0.0, 1.0, 2.0, 3.0, 4.0], params)
        assert (x, rounds) == (3, 3)

    def test_solve_receives_the_params(self):
        params = AlgoParams(sca_max=2)
        _, _, seen = self._run([0.0, 1.0], params)
        assert len(seen) == 2 and all(p is params for _, p in seen)


class TestParams:
    def test_no_nested_parameter_object(self):
        fields = dataclasses.fields(AlgoParams)
        assert "sub" not in {f.name for f in fields}
        assert all(f.type in ("float", "int") for f in fields)

    def test_every_field_is_read(self):
        src = pathlib.Path(ao.__file__).parent
        code = "\n".join(p.read_text() for p in sorted(src.glob("*.py")))
        read = set(re.findall(r"\bparams\.(\w+)", code))
        unread = [f.name for f in dataclasses.fields(AlgoParams) if f.name not in read]
        assert unread == []
