"""The AO loop's block gate and failure abort, driven through run_lp and
run_zf with one block replaced by a stub that misbehaves, its stop rule on
stub blocks and states, the shared projected-gradient descent, the SCA loop
and the one-round sensing-beam update on stub objectives, the ALM position
loop on stub rates and gradients, and the one parameter set."""

import dataclasses
import pathlib
import re

import numpy as np
import pytest

from nfisac import ao, geometry, lp, metrics, subsolver, zf
from nfisac.errors import NumericalError, OptimizationAbort, RankDeficiencyError
from nfisac.params import EPS_F, AlgoParams


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


@dataclasses.dataclass
class _ScoreState:
    """A state whose WSR is its ``score`` (``_score_rates``); the precoders,
    beam and combiner are real ones, for the sensing SINR."""

    score: float
    precoders: tuple
    v: np.ndarray
    u: np.ndarray

    def power(self):
        return 0.0


def _score_rates(channels, state):
    return np.array([state.score, state.score])


class TestStopRule:
    """``ao.run`` on stub blocks that add a scripted score to the WSR, or
    lose some (then the gate rejects them): when an AO loop ends the run."""

    def _run(self, scenario, placement, name, gains):
        calls = []

        def initial(sc, ch, params):
            st = lp.initial_lp_state(sc, ch)
            return _ScoreState(0.0, tuple(st.precoders), st.v, st.u)

        def block(pl, ch, st):
            gain = gains[min(len(calls), len(gains) - 1)]
            calls.append(st)
            return pl, ch, dataclasses.replace(st, score=st.score + gain), ()

        res = ao.run(scenario, placement, AlgoParams(), initial, _score_rates,
                     lambda ch, st: st.u, [(name, block)])
        return res, calls

    def test_quiet_loop_with_a_reject_does_not_end_the_run(self, scenario, placement):
        # loop 1 rejects, loop 2 gains, loop 3 is clean and quiet
        res, calls = self._run(scenario, placement, "t", [-1.0, 1.0, 0.0])
        assert (res.outer_iters, res.converged, len(calls)) == (3, True, 3)
        assert res.block_rejects == 1

    @pytest.mark.parametrize("name", ["W", "v", "t"])
    def test_two_quiet_loops_with_rejects_end_it(self, scenario, placement, name):
        res, calls = self._run(scenario, placement, name, [-1.0])
        assert (res.outer_iters, res.converged, len(calls)) == (2, True, 2)
        assert res.block_rejects == 2

    def test_clean_quiet_loop_ends_it(self, scenario, placement):
        res, calls = self._run(scenario, placement, "t", [EPS_F / 2])
        assert (res.outer_iters, res.converged, len(calls)) == (1, True, 1)
        assert res.block_rejects == 0


class TestAlmMultiplier:
    """A position block hands its next visit the ALM multiplier eta of its
    last adopted visit; the eta of a rejected visit is dropped."""

    def test_only_adopted_visits_pass_on_eta(self, scenario, placement):
        # visit 1 gains (eta 5), visit 2 loses (eta 1e6), visit 3 gains
        # (eta 7), visit 4 is quiet
        script = [(1.0, 5.0), (-1.0, 1e6), (1.0, 7.0), (0.0, 9.0)]
        seen = []

        def initial(sc, ch, params):
            st = lp.initial_lp_state(sc, ch)
            return _ScoreState(0.0, tuple(st.precoders), st.v, st.u)

        def step(pl, ch, st, eta):
            gain, eta_out = script[len(seen)]
            seen.append(eta)
            return pl, ch, dataclasses.replace(st, score=st.score + gain), eta_out

        res = ao.run(scenario, placement, AlgoParams(), initial, _score_rates,
                     lambda ch, st: st.u, [("t", ao.AlmBlock(step))])
        assert (res.outer_iters, res.block_rejects) == (4, 1)
        assert seen == [0.0, 5.0, 5.0, 7.0]

    @pytest.mark.parametrize("stack, name", [
        (lp, "optimize_bs_positions_alm"),
        (zf, "optimize_bs_positions_alm_zf"),
        (zf, "optimize_user_positions_alm_zf"),
    ])
    def test_rejected_visit_keeps_the_earlier_eta(self, scenario, placement,
                                                  monkeypatch, stack, name):
        # every visit of the patched block returns a candidate the gate
        # rejects with eta = 1e6: each next visit still starts at eta = 0
        seen = []

        def rejected(sc, pl, ch, st, *args):
            seen.append(args[-1])
            if stack is lp:                  # precoders kept: no rate on these channels
                return pl, ch.moved(tuple(0.0 * H for H in ch.H)), 1e6, None
            cand = st.copy()
            cand.v = 2.0 * st.v
            return pl, ch, cand, 1e6, None

        def kept(sc, pl, ch, st, *args):
            return pl, ch, st, args[-1], None

        if stack is zf:                      # the other ZF position blocks stay put
            for other in ("optimize_bs_positions_alm_zf", "optimize_user_positions_alm_zf"):
                monkeypatch.setattr(stack, other, kept)
        monkeypatch.setattr(stack, name, rejected)
        run = lp.run_lp if stack is lp else zf.run_zf
        res = run(scenario, placement, AlgoParams(), 1.0)
        assert len(seen) >= 2 and seen == [0.0] * len(seen)
        assert res.block_rejects >= len(seen)


class TestDescend:
    """``ao.descend`` on user 0's array with a stub objective: the iterate is
    (placement, value), the objective's gradient at it is -slope(value) in
    every coordinate (GRAD by default), ``move`` records the trial steps of
    every stack it is asked to evaluate, ``accept`` decides which trial
    steps pass the Armijo test (value - 1) and which fail it (value
    unchanged), ``unevaluable`` which get NaN, and ``raises`` which stacks
    raise."""

    GRAD = 1e-2

    def _run(self, scenario, placement, accept, params, max_steps=4,
             stop=lambda prev, cur: False, raises=lambda steps: None,
             unevaluable=lambda s: False, slope=lambda value: TestDescend.GRAD):
        k = 0
        stacks = []

        def grad(x):
            return np.full((scenario.n_u, 2), -slope(x[1]))

        def move(x, q):
            pl, value = x
            steps = np.max(np.abs(q[:, :, :2] - pl.q[k][:, :2]) / slope(value),
                           axis=(1, 2))
            stacks.append(steps.tolist())
            exc = raises(steps)
            if exc is not None:
                raise exc
            values = np.array([np.nan if unevaluable(s) else value - 1.0 if accept(s)
                               else value for s in steps])
            return values, lambda i: (pl.with_q(k, q[i]), float(values[i]))

        x, steps, exhausted = ao.descend(
            scenario, k, (placement, 0.0), grad, move, stop, max_steps, params)
        return x, steps, exhausted, stacks

    @staticmethod
    def _near(*steps):
        return lambda s: any(np.isclose(s, t, rtol=1e-6) for t in steps)

    @staticmethod
    def _schedule(params, trials):
        """The trial steps step0 tau^j, j in ``trials``."""
        return [params.step0 * params.tau ** j for j in trials]

    def _assert_steps(self, placement, stacks, expect):
        """The recorded stacks hold the expected trial steps, each within
        1e-6 (relative) or the step that moves user 0's largest coordinate
        by one ulp, the resolution ``move`` reads the steps at."""
        resolution = np.spacing(np.abs(placement.q[0]).max()) / self.GRAD
        assert [len(st) for st in stacks] == [len(st) for st in expect]
        for got, want in zip(stacks, expect):
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=resolution)

    def _moving(self, placement, params):
        """How many trials of the first step move user 0's array: the
        first that does not is the first below the positions' resolution."""
        q = placement.q[0]
        s, n = params.step0, 0
        while np.any(q[:, :2] + s * self.GRAD != q[:, :2]):
            s *= params.tau
            n += 1
        return n

    def test_backtracks_by_tau_and_doubles_after_accept(
            self, scenario, placement):
        params = AlgoParams(step0=1e-4, tau=0.25, delta=1e-12)
        # the first search rejects 1e-4 and 2.5e-5 and adopts the third
        # trial of its cold stack, which ends at its size or before the
        # first trial that does not move; the next search starts at twice
        # it and adopts the second trial of its stack of FIRST_STACK
        first = min(self._moving(placement, params), ao.USER_COLD_STACK)
        assert first > 3
        x, steps, exhausted, stacks = self._run(
            scenario, placement, self._near(6.25e-6, 1.5625e-6, 3.125e-6), params,
            max_steps=2)
        expect = [self._schedule(params, range(first)),
                  [1.25e-5, 3.125e-6, 7.8125e-7]]
        self._assert_steps(placement, stacks, expect)
        assert steps == 2 and not exhausted
        assert x[1] == -2.0
        moved = placement.q[0][:, :2] + (6.25e-6 + 3.125e-6) * self.GRAD
        np.testing.assert_allclose(x[0].q[0][:, :2], moved, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("slope2, want", [
        (0.4e-2, "spectral"),          # <dx, dx> / <dx, dg> = s / 0.6
        (0.8e-2, "cap"),               # the spectral step 5s is capped at 4s
        (1.2e-2, "double"),            # <dx, dg> < 0: 2s
        (1e-2, "double"),              # <dx, dg> = 0: 2s
    ])
    def test_second_first_trial_is_the_capped_spectral_step(
            self, scenario, placement, slope2, want):
        params = AlgoParams(step0=1e-4, tau=0.5, delta=1e-12)
        # the descent slope is GRAD at the start and slope2 after the first
        # step; the first search rejects step0 and adopts s = 5e-5
        slopes = {0.0: self.GRAD, -1.0: slope2}
        x, steps, _, stacks = self._run(
            scenario, placement, lambda s: s < 8e-5, params, max_steps=2,
            slope=slopes.__getitem__)
        assert steps == 2
        s = 5e-5
        np.testing.assert_allclose(stacks[0][:2], [1e-4, s], rtol=1e-6)
        n = scenario.n_u * 2
        dx = np.full(n, s * self.GRAD)               # the adopted xy move
        dg = np.full(n, self.GRAD - slope2)          # -slope2 - (-GRAD)
        if want == "spectral":
            expect = np.dot(dx, dx) / np.dot(dx, dg)
            assert 0 < expect < 4 * s and not np.isclose(expect, 2 * s)
        else:
            expect = 4 * s if want == "cap" else 2 * s
        np.testing.assert_allclose(stacks[1][0], expect, rtol=1e-6)

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
        assert self._moving(placement, params) > ao.USER_COLD_STACK
        x, steps, exhausted, stacks = self._run(
            scenario, placement, lambda s: True, params, max_steps=1,
            unevaluable=self._near(5e-5))
        assert checks == [ao.USER_COLD_STACK]        # one check per stack
        expect = [self._schedule(params, range(1, ao.USER_COLD_STACK))]
        self._assert_steps(placement, stacks, expect)
        assert steps == 1 and not exhausted
        np.testing.assert_allclose(
            x[0].q[0][:, :2], placement.q[0][:, :2] + 2.5e-5 * self.GRAD,
            rtol=0, atol=1e-12)

    def test_veto_inside_a_stack(self, scenario, placement, monkeypatch):
        # tau = 0.8 keeps all max_ls trials moving, so the second stack is
        # cut only by its doubled size or by max_ls: trials 13-36
        params = AlgoParams(step0=1e-4, tau=0.8, delta=1e-12)
        n = ao.USER_COLD_STACK
        m = min(2 * n, params.max_ls - n)
        assert self._moving(placement, params) > params.max_ls
        checks = []

        def spacing(pos, d_min):
            checks.append(len(pos))
            ok = np.ones(len(pos), dtype=bool)
            ok[0] = len(checks) != 2                 # trial n + 1, heading the second stack
            return ok

        monkeypatch.setattr(geometry, "min_spacing_ok", spacing)
        x, steps, _, stacks = self._run(
            scenario, placement, lambda s: s < params.step0 * params.tau ** (n - 0.5), params,
            max_steps=1)
        assert checks == [n, m]
        expect = [self._schedule(params, range(n)),
                  self._schedule(params, range(n + 1, n + m))]
        self._assert_steps(placement, stacks, expect)
        # the vetoed trial would pass; the next one is adopted
        assert steps == 1
        np.testing.assert_allclose(
            x[0].q[0][:, :2],
            placement.q[0][:, :2] + self._schedule(params, [n + 1])[0] * self.GRAD,
            rtol=0, atol=1e-12)

    def test_adopted_trial_past_a_veto_is_taken_by_its_step(
            self, scenario, placement, monkeypatch):
        params = AlgoParams(step0=1e-4, tau=0.5, delta=1e-12)

        def spacing(pos, d_min):
            ok = np.ones(len(pos), dtype=bool)
            ok[1] = False                            # 5e-5, mid first stack
            return ok

        monkeypatch.setattr(geometry, "min_spacing_ok", spacing)
        x, steps, _, stacks = self._run(
            scenario, placement, lambda s: s < 8e-5, params, max_steps=1)
        self._assert_steps(placement, stacks,
                           [self._schedule(params, [0, *range(2, ao.USER_COLD_STACK)])])
        # the vetoed trial would pass; the trial after the gap is adopted
        assert steps == 1 and x[1] == -1.0
        np.testing.assert_allclose(
            x[0].q[0][:, :2], placement.q[0][:, :2] + 2.5e-5 * self.GRAD,
            rtol=0, atol=1e-12)

    def test_every_line_search_is_the_shared_one(self, scenario, placement,
                                                 monkeypatch):
        searches = []

        def counting(*args, _real=subsolver.line_search):
            searches.append(_real(*args))
            return searches[-1]

        monkeypatch.setattr(subsolver, "line_search", counting)
        params = AlgoParams(step0=1e-4, delta=1e-12)
        x, steps, _, _ = self._run(scenario, placement, lambda s: True, params,
                                   max_steps=3)
        assert steps == len(searches) == 3
        assert searches[-1][1] is x

    def test_rank_deficient_candidate_in_a_stack_is_the_only_reject(
            self, scenario, placement):
        params = AlgoParams(step0=1e-4, tau=0.5, delta=1e-12)
        bad = self._near(5e-5 / 8)                  # the 5th trial, mid first stack

        def raises(steps):
            return RankDeficiencyError(np.inf) if any(bad(s) for s in steps) else None

        x, steps, exhausted, stacks = self._run(
            scenario, placement, lambda s: s < 1e-5 and not bad(s), params,
            max_steps=1, raises=raises)
        # the stack that raised is evaluated again one trial at a time, in
        # step order, up to the first that passes: the trials ahead of the
        # raising one fail the Armijo test, the raising one is rejected
        expect = [self._schedule(params, range(ao.USER_COLD_STACK)),
                  [1e-4], [5e-5], [2.5e-5], [1.25e-5], [6.25e-6], [3.125e-6]]
        self._assert_steps(placement, stacks, expect)
        assert steps == 1 and not exhausted
        np.testing.assert_allclose(
            x[0].q[0][:, :2], placement.q[0][:, :2] + 3.125e-6 * self.GRAD,
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
        assert [len(st) for st in stacks] == [ao.USER_COLD_STACK, 1, 1, 1, 1]
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
        # positions' resolution before max_ls trials, in the second stack
        params = AlgoParams(step0=1e-4, tau=0.5)
        first_still = self._moving(placement, params)
        assert ao.USER_COLD_STACK < first_still < params.max_ls
        x, steps, exhausted, stacks = self._run(
            scenario, placement, lambda s: False, params)
        sizes = [len(st) for st in stacks]
        assert sum(sizes) == first_still
        assert sizes[:-1] == [ao.USER_COLD_STACK * 2 ** j for j in range(len(sizes) - 1)]
        assert 0 < sizes[-1] <= ao.USER_COLD_STACK * 2 ** (len(sizes) - 1)
        assert (steps, exhausted) == (0, True)
        assert x[0] is placement

    def test_line_search_runs_out(self, scenario, placement):
        params = AlgoParams(step0=1e-4, max_ls=3)
        x, steps, exhausted, stacks = self._run(
            scenario, placement, lambda s: False, params)
        assert [len(st) for st in stacks] == [3]
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
        assert [len(st) for st in stacks] == [ao.USER_COLD_STACK]


def _reference_descend(scenario, k, x, grad, move, stop, max_steps, params):
    """The one-trial-at-a-time line search ``ao.descend`` must reproduce:
    each trial is evaluated on its own as a one-candidate stack, and a
    RankDeficiencyError rejects it.  The first trial after an adopted step
    s is the spectral step capped at 4s, or 2s on non-positive curvature."""
    region = scenario.tx_region if k is None else scenario.user_regions[k]
    step = params.step0
    steps = 0
    prev = None
    for _ in range(max_steps):
        g = grad(x)
        pos = x[0].array(k)
        if prev is not None:
            dx = pos[:, :2] - prev[0]
            curv = np.vdot(dx, g - prev[1])
            if curv > 0.0:
                step = min(np.vdot(dx, dx) / curv, 2.0 * step)
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
        prev = pos[:, :2], g
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
        # the first stack raises, so its trials are evaluated one at a time:
        # the first is rejected, the second adopted
        assert [len(m) for m in moves] == [ao.COLD_STACK, 1, 1]
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


class TestSenseBeam:
    """``ao.sense_beam`` on stubs: the subproblem class records how it is
    built, ``solve`` records what it is given and returns a fixed
    covariance of unit trace whose leading eigenvalue is ``lead``."""

    @pytest.mark.parametrize("lead, flags", [(0.995, []), (0.985, ["rank1_ratio_low"])])
    def test_one_subproblem_at_vvh_and_one_solve(self, monkeypatch, lead, flags):
        built, solved = [], []

        class Sub:                             # no bound_values: none is taken
            def __init__(self, *args):
                built.append(args)

        def solve(sub):
            solved.append(sub)
            return np.diag([1.0 - lead, lead, 0.0]).astype(complex)

        def model(channels, state, gamma0):
            return ("model", channels, gamma0)

        monkeypatch.setattr(subsolver, "CovarianceSubproblem", Sub)
        state = metrics.LpState(W=(), v=np.array([0.6, 0.8j, 0.0]), u=np.array([1.0, 0.0]))
        v, ratio, got = ao.sense_beam("channels", state, "weights", 0.5, 2.0, model,
                                      solve, subsolver.leading_eigpair)
        assert len(built) == 1 and len(solved) == 1 and isinstance(solved[0], Sub)
        channels, V0, weights, gamma0, u, zeta, interference = built[0]
        np.testing.assert_array_equal(V0, np.outer(state.v, state.v.conj()))
        assert (channels, weights, gamma0, zeta) == ("channels", "weights", 0.5, 2.0)
        assert u is state.u
        assert interference == ("model", "channels", 0.5)
        assert ratio == pytest.approx(lead) and got == flags
        np.testing.assert_allclose(np.abs(v), [0.0, 1.0, 0.0], atol=1e-12)


class TestSca:
    """``ao.sca`` on stubs: the point is the round number, ``solve`` moves
    it one on, and ``value`` reads the surrogate of each round from a list."""

    def _run(self, values, params):
        seen = []

        def make_sub(x):
            return ("sub", x)

        def solve(sub):
            seen.append(sub)
            return sub[1] + 1

        x, rounds = ao.sca(0, make_sub, solve, lambda sub, x: values[x - 1], params)
        return x, rounds, seen

    def test_stops_at_first_small_gain_and_counts_it(self):
        params = AlgoParams()
        x, rounds, seen = self._run([0.0, 1.0, 2.0, 2.005, 5.0, 9.0], params)
        assert (x, rounds) == (4, 4)
        assert seen == [("sub", 0), ("sub", 1), ("sub", 2), ("sub", 3)]

    def test_runs_at_most_sca_max_rounds(self):
        params = AlgoParams(sca_max=3)
        x, rounds, _ = self._run([0.0, 1.0, 2.0, 3.0, 4.0], params)
        assert (x, rounds) == (3, 3)


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

    def test_every_field_is_set_by_some_caller(self):
        # a field no AlgoParams(...) call sets is a constant (see params.py)
        root = pathlib.Path(__file__).resolve().parent.parent
        code = "\n".join(p.read_text() for d in ("src", "tests", "tools", "perfbench")
                         for p in sorted((root / d).rglob("*.py")))
        calls = re.findall(r"\bAlgoParams\(([^)]*)\)", code)
        passed = {name for args in calls for name in re.findall(r"(\w+)\s*=", args)}
        unset = [f.name for f in dataclasses.fields(AlgoParams) if f.name not in passed]
        assert unset == []

    @pytest.mark.parametrize("values, message", [
        ({"tau": 0.0}, "tau must lie in"), ({"tau": 1.0}, "tau must lie in"),
        ({"delta": 0.0}, "delta must be positive"),
        ({"delta": -1e-2}, "delta must be positive"),
        ({"step0": 0.0}, "step0 must be positive"),
        ({"step0": -1.0}, "step0 must be positive"),
    ])
    def test_out_of_range_value_rejected(self, values, message):
        with pytest.raises(ValueError, match=message):
            AlgoParams(**values)

    @pytest.mark.parametrize("value", [0, -1, 2.5, 1.0, True, None, "8"])
    @pytest.mark.parametrize("name", ["max_ls", "sca_max", "alm_max_outer",
                                      "inner_pgm_max"])
    def test_cap_that_is_not_a_positive_int_rejected(self, name, value):
        # 0 or a negative cap would skip its loop, a float fails in range()
        with pytest.raises(ValueError, match=f"{name} must be an int >= 1"):
            AlgoParams(**{name: value})

    @pytest.mark.parametrize("value", [1, np.int64(1)])
    @pytest.mark.parametrize("name", ["max_ls", "sca_max", "alm_max_outer",
                                      "inner_pgm_max"])
    def test_cap_of_one_accepted(self, name, value):
        assert getattr(AlgoParams(**{name: value}), name) == 1
