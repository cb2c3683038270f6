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
    (placement, value), ``move`` records the trial steps of every stack it is
    asked to evaluate, ``accept`` decides which trial steps pass the Armijo
    test (value - 1) and which fail it (value unchanged), ``unevaluable``
    which get NaN, and ``raises`` which stacks raise."""

    GRAD = 1e-2

    def _run(self, scenario, placement, accept, params, max_steps=4,
             stop=lambda prev, cur: False, raises=lambda steps: None,
             unevaluable=lambda s: False):
        k = 0
        grad = np.full((scenario.n_u, 2), self.GRAD)
        stacks = []

        def move(x, q):
            pl, value = x
            steps = np.max(np.abs(q[:, :, :2] - pl.q[k][:, :2]) / np.abs(grad),
                           axis=(1, 2))
            stacks.append(steps.tolist())
            exc = raises(steps)
            if exc is not None:
                raise exc
            values = np.array([np.nan if unevaluable(s) else value - 1.0 if accept(s)
                               else value for s in steps])
            return values, lambda i: (pl.with_q(k, q[i]), float(values[i]))

        x, steps, exhausted = ao.descend(
            scenario, k, (placement, 0.0), lambda x: -grad, move, stop,
            max_steps, params)
        return x, steps, exhausted, stacks

    @staticmethod
    def _near(*steps):
        return lambda s: any(np.isclose(s, t, rtol=1e-6) for t in steps)

    def test_backtracks_by_tau_and_doubles_after_accept(
            self, scenario, placement):
        params = AlgoParams(step0=1e-4, tau=0.25, delta=1e-12)
        # the first search rejects 1e-4 and 2.5e-5, then two trials of its
        # second stack pass and the first of them is adopted; the next
        # search starts at twice it and adopts the second trial of its stack
        x, steps, exhausted, stacks = self._run(
            scenario, placement, self._near(6.25e-6, 1.5625e-6, 3.125e-6), params,
            max_steps=2)
        expect = [[1e-4, 2.5e-5], [6.25e-6, 1.5625e-6, 3.90625e-7, 9.765625e-8],
                  [1.25e-5, 3.125e-6]]
        assert [len(st) for st in stacks] == [len(st) for st in expect]
        for got, want in zip(stacks, expect):
            np.testing.assert_allclose(got, want, rtol=1e-6)
        assert steps == 2 and not exhausted
        assert x[1] == -2.0
        moved = placement.q[0][:, :2] + (6.25e-6 + 3.125e-6) * self.GRAD
        np.testing.assert_allclose(x[0].q[0][:, :2], moved, rtol=0, atol=1e-12)

    def test_veto_and_unevaluable_count_as_rejects(self, scenario, placement, monkeypatch):
        params = AlgoParams(step0=1e-4, tau=0.5, delta=1e-12)
        checks = []

        def spacing(pos, d_min):
            checks.append(len(pos))
            ok = np.ones(len(pos), dtype=bool)
            ok[0] = len(checks) > 1                  # the first trial is vetoed
            return ok

        monkeypatch.setattr(geometry, "min_spacing_ok", spacing)
        # move never sees the vetoed trial; the second trial cannot be
        # evaluated (NaN), which fails the Armijo test like any reject
        x, steps, exhausted, stacks = self._run(
            scenario, placement, lambda s: True, params, max_steps=1,
            unevaluable=self._near(5e-5))
        assert checks == [2, 4]                      # one check per stack
        expect = [[5e-5], [2.5e-5, 1.25e-5, 6.25e-6, 3.125e-6]]
        assert [len(st) for st in stacks] == [len(st) for st in expect]
        for got, want in zip(stacks, expect):
            np.testing.assert_allclose(got, want, rtol=1e-6)
        assert steps == 1 and not exhausted
        np.testing.assert_allclose(
            x[0].q[0][:, :2], placement.q[0][:, :2] + 2.5e-5 * self.GRAD,
            rtol=0, atol=1e-12)

    def test_rank_deficient_candidate_in_a_stack_is_the_only_reject(
            self, scenario, placement):
        params = AlgoParams(step0=1e-4, tau=0.5, delta=1e-12)
        bad = self._near(5e-5 / 4)                  # the 4th trial, mid second stack

        def raises(steps):
            return RankDeficiencyError(np.inf) if any(bad(s) for s in steps) else None

        x, steps, exhausted, stacks = self._run(
            scenario, placement, lambda s: s < 2e-5 and not bad(s), params,
            max_steps=1, raises=raises)
        # the stack that raised is evaluated again one trial at a time, in
        # step order, up to the first that passes
        expect = [[1e-4, 5e-5], [2.5e-5, 1.25e-5, 6.25e-6, 3.125e-6],
                  [2.5e-5], [1.25e-5], [6.25e-6]]
        assert [len(st) for st in stacks] == [len(st) for st in expect]
        for got, want in zip(stacks, expect):
            np.testing.assert_allclose(got, want, rtol=1e-6)
        assert steps == 1 and not exhausted
        np.testing.assert_allclose(
            x[0].q[0][:, :2], placement.q[0][:, :2] + 6.25e-6 * self.GRAD,
            rtol=0, atol=1e-12)

    def test_other_errors_surface_only_where_reached_one_at_a_time(
            self, scenario, placement):
        params = AlgoParams(step0=1e-4, tau=0.5, delta=1e-12)
        late = self._near(5e-5 / 8)                 # after the passing trial

        def raises(steps):
            return NumericalError("stub") if any(late(s) for s in steps) else None

        _, steps, _, stacks = self._run(
            scenario, placement, self._near(1.25e-5), params, max_steps=1,
            raises=raises)
        assert [len(st) for st in stacks] == [2, 4, 1, 1]
        assert steps == 1
        with pytest.raises(NumericalError):
            self._run(scenario, placement, lambda s: False, params, max_steps=1,
                      raises=raises)

    def test_zero_gradient_is_stationary(self, scenario, placement):
        params = AlgoParams()
        grad = np.zeros((scenario.n_u, 2))
        x, steps, exhausted = ao.descend(
            scenario, 0, (placement, 0.0), lambda x: grad,
            lambda x, q: pytest.fail("a zero step must not be evaluated"),
            lambda prev, cur: False, 4, params)
        assert (steps, exhausted) == (0, False)
        assert x[0] is placement

    def test_vanishing_step_ends_exhausted(
            self, scenario, placement):
        # every trial is rejected, and tau shrinks the step below the
        # positions' resolution long before max_ls trials
        params = AlgoParams(step0=1e-4, tau=0.25)
        q = placement.q[0]
        s, first_still = params.step0, 0
        while np.any(q[:, :2] + s * self.GRAD != q[:, :2]):
            s *= params.tau
            first_still += 1
        assert 0 < first_still < params.max_ls
        x, steps, exhausted, stacks = self._run(
            scenario, placement, lambda s: False, params)
        sizes = [len(st) for st in stacks]
        assert sum(sizes) == first_still
        assert sizes[:-1] == [2 ** (j + 1) for j in range(len(sizes) - 1)]
        assert 0 < sizes[-1] <= 2 ** len(sizes)
        assert (steps, exhausted) == (0, True)
        assert x[0] is placement

    def test_line_search_runs_out(self, scenario, placement):
        params = AlgoParams(step0=1e-4, max_ls=3)
        x, steps, exhausted, stacks = self._run(
            scenario, placement, lambda s: False, params)
        assert [len(st) for st in stacks] == [2, 1]
        assert (steps, exhausted) == (0, True)
        assert x[0] is placement

    def test_stop_ends_after_accepted_step(self, scenario, placement):
        params = AlgoParams(step0=1e-4, delta=1e-12)
        seen = []

        def stop(prev, cur):
            seen.append((prev[1], cur[1]))
            return True

        x, steps, exhausted, stacks = self._run(
            scenario, placement, lambda s: True, params, stop=stop)
        assert seen == [(0.0, -1.0)]
        assert (steps, exhausted) == (1, False)
        assert [len(st) for st in stacks] == [2]


def _reference_descend(scenario, k, x, grad, move, stop, max_steps, params):
    """The one-trial-at-a-time line search ``ao.descend`` must reproduce:
    each trial is evaluated on its own as a one-candidate stack, and a
    RankDeficiencyError rejects it."""
    region = scenario.tx_region if k is None else scenario.user_regions[k]
    step = params.step0
    steps = 0
    for _ in range(max_steps):
        g = grad(x)
        pos = x[0].array(k)
        s = step
        for _ls in range(params.max_ls):
            cand = pos.copy()
            cand[:, :2] = pos[:, :2] - s * g
            cand = geometry.project_points_to_region(cand, region)
            delta2 = float(np.sum((cand - pos) ** 2))
            if delta2 == 0.0:
                return x, steps, _ls > 0
            x_c = None
            if geometry.min_spacing_ok(cand, scenario.d_min):
                try:
                    values, take = move(x, cand[None])
                    x_c = take(0)
                except RankDeficiencyError:
                    pass
            if x_c is not None and x[-1] - x_c[-1] >= params.delta * delta2:
                break
            s *= params.tau
        else:
            return x, steps, True
        x_prev, x = x, x_c
        step = s * 2.0
        steps += 1
        if stop(x_prev, x):
            break
    return x, steps, False


def _flat(obj):
    """Bytes and reprs of a block's return value, channel tags left out."""
    if isinstance(obj, np.ndarray):
        return [obj.dtype.str, obj.shape, obj.tobytes()]
    if dataclasses.is_dataclass(obj):
        return [type(obj).__name__] + [
            (f.name, _flat(getattr(obj, f.name))) for f in dataclasses.fields(obj)
            if f.name not in ("tag", "channel_tag")]
    if isinstance(obj, (list, tuple)):
        return [_flat(item) for item in obj]
    return repr(obj)


class TestStackedDescendMatchesReference:
    """Every position block returns the same bytes with the stacked line
    search as with the one-trial-at-a-time reference, on the first cells of
    the trend-scale benchmark pool."""

    POOL_SEED = 2026

    def _cell(self, trial):
        from nfisac import harness
        cfg = harness.load_config(None, dict(profile="trend", preset="convergence",
                                             seed=self.POOL_SEED, workers=1))
        sc = harness.build_scenario(cfg)
        pl = harness.initial_placement(sc, harness.trial_rng(self.POOL_SEED, trial))
        return sc, pl, geometry.build_channels(sc, pl)

    @staticmethod
    def _blocks(sc, pl0, ch0):
        """The position blocks of both stacks chained as in one positions
        cell; returns every block's return value."""
        params = AlgoParams()
        w = sc.weights
        out = []
        st = lp.initial_lp_state(sc, ch0, params)
        pl, ch = pl0, ch0
        for k in range(sc.n_users):
            res = lp.optimize_user_positions(sc, pl, ch, st, k, params)
            out.append(res)
            pl, ch = res[:2]
        out.append(lp.optimize_bs_positions_alm(sc, pl, ch, st, w, sc.gamma0, params))
        zst = zf.initial_zf_state(sc, ch0, params)
        pl, ch = pl0, ch0
        for k in range(sc.n_users):
            res = zf.optimize_user_positions_alm_zf(sc, pl, ch, zst, w, sc.gamma0, k,
                                                    params)
            out.append(res)
            pl, ch, zst = res[:3]
        out.append(zf.optimize_bs_positions_alm_zf(sc, pl, ch, zst, w, sc.gamma0,
                                                   params))
        return out

    @pytest.mark.parametrize("trial", [0, 1, 2])
    def test_blocks_bit_identical(self, trial, monkeypatch):
        sc, pl0, ch0 = self._cell(trial)
        stacked = self._blocks(sc, pl0, ch0)
        with monkeypatch.context() as m:
            m.setattr(ao, "descend", _reference_descend)
            reference = self._blocks(sc, pl0, ch0)
        assert len(stacked) == len(reference) == 2 * sc.n_users + 2
        for got, want in zip(stacked, reference):
            assert _flat(got) == _flat(want)
        # the ZF states follow their channels
        for res in stacked[sc.n_users + 1:]:
            assert res[2].channel_tag == res[1].tag


class TestAlmPositions:
    """``ao.alm_positions`` on stub ``rates_of`` and ``descent``: rates that
    grow with every evaluated candidate, so the first candidate of every
    stack is adopted, and a gradient that shifts the whole array along x."""

    WEIGHTS = np.array([0.2, 0.8])

    @staticmethod
    def _growing_rates(evals):
        def rates_of(ch, st):
            lead = np.broadcast_shapes(*(H.shape[:-2] for H in ch.H))
            n0, c = len(evals), (lead[0] if lead else 1)
            evals.extend([ch.tag] * c)
            grown = np.arange(n0 + 1, n0 + c + 1, dtype=float).reshape(lead + (1,))
            return np.broadcast_to(grown, lead + (len(ch.H),)).copy()
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
        moves = []

        class FailsFirstCandidate(metrics.LpState):
            def at(self, channels, p_max):
                at_calls.append(channels.tag)
                if moves and any(np.array_equal(p, moves[0][0]) for p in moves[-1]):
                    raise RankDeficiencyError(np.inf)
                return self

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
        # the first stack raises, so its two trials are evaluated one at a
        # time: the first is rejected, the second adopted
        assert [len(m) for m in moves] == [2, 1, 1]
        assert moves[1][0].tobytes() == moves[0][0].tobytes()
        assert moves[2][0].tobytes() == moves[0][1].tobytes()
        assert len(at_calls) == 4 and len(evals) == 2
        np.testing.assert_allclose(moves[0][1] - t0, params.tau * (moves[0][0] - t0),
                                   atol=1e-15)
        assert (info.inner_steps, info.line_search_exhausted) == (1, False)
        assert pl.t.tobytes() == moves[0][1].tobytes() and st_out is st
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
