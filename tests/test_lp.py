import math

import numpy as np
import pytest

from nfisac import ao, geometry, harness, lp, metrics, verify
from nfisac.metrics import LpState
from nfisac.params import PGM_MAX_STEPS, PGM_TOL, TOL_FEAS, AlgoParams


class TestCombiner:
    def test_noise_only_gives_boresight(self, scenario, channels):
        W = [np.zeros((scenario.n_t, scenario.n_u), dtype=complex)
             for _ in range(scenario.n_users)]
        u = lp.optimal_combiner_lp(channels, W)
        expect = channels.f_r / math.sqrt(scenario.n_r)
        phase = np.vdot(expect, u)
        np.testing.assert_allclose(u, expect * phase / abs(phase), atol=1e-10)

    def test_beats_random_search(self, scenario, channels, lp_state):
        u_star = lp.optimal_combiner_lp(channels, lp_state.W)
        best = metrics.sinr(channels, lp_state.W, lp_state.v, u_star)
        rng = np.random.Generator(np.random.Philox(key=[31, 0]))
        for _ in range(10_000):
            u = verify._random_unit(rng, scenario.n_r)
            val = metrics.sinr(channels, lp_state.W, lp_state.v, u)
            assert val <= best * (1 + 1e-12)

    def test_noise_scale_invariance_without_precoders(self, scenario, channels):
        from dataclasses import replace
        W = [np.zeros((scenario.n_t, scenario.n_u), dtype=complex)
             for _ in range(scenario.n_users)]
        u1 = lp.optimal_combiner_lp(channels, W)
        ch2 = replace(channels, noise_radar=channels.noise_radar * 7.3)
        u2 = lp.optimal_combiner_lp(ch2, W)
        np.testing.assert_allclose(u1, u2, atol=1e-12)


def _feasible_state(scenario, channels, lp_state):
    """Random precoders with a sensing-feasible beam and boresight combiner."""
    st = lp_state.copy()
    st.u = channels.f_r / math.sqrt(scenario.n_r)
    st.v = ao.initial_sense_beam(channels, st.W, st.u, scenario.gamma0)
    return st


class TestPrecoderBlock:
    def test_true_wsr_never_decreases(self, scenario, channels, lp_state):
        params = AlgoParams()
        state = _feasible_state(scenario, channels, lp_state)
        before = float(scenario.weights @ metrics.lp_rates(channels, state))
        W_new, rounds = lp.optimize_precoders(
            channels, state, scenario.weights, scenario.p_max,
            scenario.gamma0, params)
        after_state = LpState(W_new, state.v, state.u)
        after = float(scenario.weights @ metrics.lp_rates(channels, after_state))
        assert after >= before - 1e-9
        assert rounds >= 1
        assert after_state.power() <= scenario.p_max * (1 + 1e-6)

    def test_surrogate_sequence_monotone(self, scenario, channels, lp_state):
        from nfisac.subsolver import PrecoderSubproblem, solve_precoder_subproblem
        state = _feasible_state(scenario, channels, lp_state)
        W = state.W
        hats = []
        for _ in range(6):
            sub = PrecoderSubproblem(channels, W, state.v, state.u,
                                     scenario.weights, scenario.p_max,
                                     scenario.gamma0)
            W = solve_precoder_subproblem(sub)
            hats.append(sub.surrogate_and_grad(np.stack(W))[0])
        assert all(b >= a - 1e-9 for a, b in zip(hats, hats[1:]))


class TestSenseBeamBlock:
    def test_rank_one_input_fixed_point_extraction(self, scenario, channels, lp_state):
        from nfisac.subsolver import leading_eigpair
        x = lp_state.v
        V = np.outer(x, x.conj())
        beta, chi = leading_eigpair(V)
        assert beta == pytest.approx(1.0, rel=1e-12)
        align = abs(np.vdot(chi, x))
        assert align == pytest.approx(1.0, rel=1e-12)

    def test_output_feasible_and_unit(self, scenario, channels, lp_state):
        state = lp_state.copy()
        state.u = channels.f_r / math.sqrt(scenario.n_r)
        v_new, _, _ = lp.optimize_sense_beam_lp(
            channels, state, scenario.weights, scenario.gamma0, 1.0)
        assert abs(np.linalg.norm(v_new) - 1.0) <= 1e-12
        scale = metrics.sinr_deficit_scale(channels, scenario.gamma0)
        kap = metrics.sinr_deficit(channels, state.W, v_new, state.u, scenario.gamma0)
        assert kap <= TOL_FEAS * scale

    def test_constraint_forces_alignment(self, scenario, channels):
        # weights zero, gamma0 near the achievable maximum: the solution must
        # align with the target response
        u = channels.f_r / math.sqrt(scenario.n_r)
        v0 = channels.f_t / math.sqrt(scenario.n_t)
        W = [np.zeros((scenario.n_t, scenario.n_u), dtype=complex)
             for _ in range(scenario.n_users)]
        gamma0 = 0.95 * channels.rho_s**2 * scenario.n_t * scenario.n_r \
            / channels.noise_radar
        state = LpState(W=W, v=v0, u=u)
        v_new, _, _ = lp.optimize_sense_beam_lp(
            channels, state, np.zeros(scenario.n_users), gamma0, 1.0)
        align = abs(np.vdot(channels.f_t, v_new)) / math.sqrt(scenario.n_t)
        assert align >= 0.97


class TestUserPgm:
    def test_zero_gradient_stays(self, scenario, placement, channels):
        # zero precoders + zero beam: the rate is identically zero
        st = LpState(W=[np.zeros((scenario.n_t, scenario.n_u), dtype=complex)
                        for _ in range(scenario.n_users)],
                     v=np.zeros(scenario.n_t, dtype=complex),
                     u=channels.f_r / math.sqrt(scenario.n_r))
        g = lp.grad_user_rate_lp(scenario, channels, st.W, st.v,
                                 geometry.user_geometry(placement, channels, 0), 0)
        np.testing.assert_allclose(g, 0.0, atol=1e-30)
        pl2, ch2, steps = lp.optimize_user_positions(
            scenario, placement, channels, st, 0, AlgoParams())
        assert steps == 0
        np.testing.assert_array_equal(pl2.q[0], placement.q[0])

    def test_rate_increases_and_stays_feasible(self, scenario, placement,
                                               channels, lp_state):
        params = AlgoParams()
        before = metrics.rate_lp(channels, lp_state, 0)
        pl2, ch2, steps = lp.optimize_user_positions(
            scenario, placement, channels, lp_state, 0, params)
        after = metrics.rate_lp(ch2, lp_state, 0)
        assert after >= before
        if steps:
            assert after > before
        pl2.validate(scenario)

    @pytest.mark.parametrize("trial", [0, 1])
    def test_visit_capped_at_pgm_max_steps(self, scenario, trial, monkeypatch):
        placement = harness.initial_placement(scenario, harness.trial_rng(2026, trial))
        channels = geometry.build_channels(scenario, placement)
        state = lp.initial_lp_state(scenario, channels)

        def steps():
            return [lp.optimize_user_positions(scenario, placement, channels, state, k,
                                               AlgoParams())[2]
                    for k in range(scenario.n_users)]

        capped = steps()
        assert max(capped) == PGM_MAX_STEPS
        # the cap binds: without it these visits take more steps
        monkeypatch.setattr(lp, "PGM_MAX_STEPS", 12 * PGM_MAX_STEPS)
        free = steps()
        assert all(c == min(f, PGM_MAX_STEPS) for c, f in zip(capped, free))
        assert max(free) > PGM_MAX_STEPS

    def test_projection_keeps_region(self, scenario, placement, channels, lp_state):
        params = AlgoParams(step0=1e6)  # absurd step: projection must clamp
        pl2, ch2, _ = lp.optimize_user_positions(
            scenario, placement, channels, lp_state, 1, params)
        region = scenario.user_regions[1]
        for b in range(scenario.n_u):
            assert region.contains(pl2.q[1][b], tol=1e-9)
        assert geometry.min_spacing_ok(pl2.q[1], scenario.d_min)


def _reference_user_positions(scenario, placement, channels, state, k, params):
    """The stand-alone user PGM loop that ``optimize_user_positions`` replaced
    by ``ao.descend`` on -R_{L,k}; kept as the reference it must reproduce
    bit for bit.  After an accepted step s the first trial is the spectral
    step of -R_{L,k}, capped at 4s, or 2s on non-positive curvature."""
    region = scenario.user_regions[k]
    q = placement.q[k]
    rate = metrics.rate_lp(channels, state, k)
    mu = params.step0
    steps = 0
    prev = None
    for _ in range(PGM_MAX_STEPS):
        grad = lp.grad_user_rate_lp(scenario, channels, state.W, state.v,
                                    geometry.user_geometry(placement, channels, k), k)
        if prev is not None:
            dx = q[:, :2] - prev[0]
            curv = np.vdot(dx, -grad - prev[1])
            if curv > 0.0:
                mu = min(np.vdot(dx, dx) / curv, 2.0 * mu)
        s = mu
        accepted = False
        for _ls in range(params.max_ls):
            qc = q.copy()
            qc[:, :2] = q[:, :2] + s * grad
            qc = geometry.project_points_to_region(qc, region)
            delta2 = float(np.sum((qc - q) ** 2))
            if delta2 == 0.0:
                break
            if not geometry.min_spacing_ok(qc, scenario.d_min):
                s *= params.tau
                continue
            pl_c = placement.with_q(k, qc)
            ch_c = geometry.rebuild_user_channel(scenario, channels, pl_c, k)
            rate_c = metrics.rate_lp_w(ch_c, state.W, state.v, k)
            if rate_c - rate >= params.delta * delta2:
                improvement = rate_c - rate
                prev = q[:, :2], -grad
                q, placement, channels, rate = qc, pl_c, ch_c, rate_c
                mu = s * 2.0
                accepted = True
                steps += 1
                break
            s *= params.tau
        if not accepted:
            break
        if improvement < PGM_TOL * (1.0 + abs(rate)):
            break
    return placement, channels, steps


class TestUserPgmMatchesReference:
    def _assert_same(self, scenario, placement, channels, state):
        params = AlgoParams()
        for k in range(scenario.n_users):
            pl, ch, steps = lp.optimize_user_positions(
                scenario, placement, channels, state, k, params)
            pl_r, ch_r, steps_r = _reference_user_positions(
                scenario, placement, channels, state, k, params)
            assert steps == steps_r
            assert pl.q[k].tobytes() == pl_r.q[k].tobytes()
            assert ch.H[k].tobytes() == ch_r.H[k].tobytes()

    def test_fixture(self, scenario, placement, channels, lp_state):
        self._assert_same(scenario, placement, channels, lp_state)

    @pytest.mark.parametrize("trial", [0, 1, 2])
    def test_trend_cells(self, scenario, trial):
        placement = harness.initial_placement(scenario, harness.trial_rng(2026, trial))
        channels = geometry.build_channels(scenario, placement)
        state = lp.initial_lp_state(scenario, channels)
        self._assert_same(scenario, placement, channels, state)


class TestAlignedGeometryZeros:
    def test_user_gradient_x_component_vanishes(self, scenario):
        # single transmit antenna sharing the user antenna's x coordinate
        from dataclasses import replace
        import nfisac.harness as harness
        from tests.conftest import desk_config

        sc = harness.build_scenario(desk_config(n_t=1, n_r=4, n_u=1))
        region = sc.user_regions[0]
        cx = sc.tx_region.center.copy()
        pl = geometry.Placement(
            t=np.array([[cx[0], cx[1], 0.0]]),
            q=(np.array([[cx[0], region.center[1], region.z]]),
               np.array([[sc.user_regions[1].center[0],
                          sc.user_regions[1].center[1],
                          sc.user_regions[1].z]])),
        )
        ch = geometry.build_channels(sc, pl)
        rng = np.random.Generator(np.random.Philox(key=[37, 0]))
        st = verify.random_lp_state(sc, ch, rng)
        g = lp.grad_user_rate_lp(sc, ch, st.W, st.v, geometry.user_geometry(pl, ch, 0), 0)
        assert abs(g[0, 0]) < 1e-25 * max(1.0, abs(g[0, 1]))

    def test_bs_user_gradient_antisymmetry_1x1(self):
        # single-antenna link: the distance derivative flips sign between the
        # two endpoints, so the BS and user rate gradients are negatives
        import nfisac.harness as harness
        from tests.conftest import desk_config

        sc = harness.build_scenario(desk_config(n_t=1, n_r=4, n_u=1))
        pl = harness.initial_placement(sc, harness.trial_rng(53, 0))
        ch = geometry.build_channels(sc, pl)
        rng = np.random.Generator(np.random.Philox(key=[53, 1]))
        st = verify.random_lp_state(sc, ch, rng)
        g_user = lp.grad_user_rate_lp(sc, ch, st.W, st.v,
                                      geometry.user_geometry(pl, ch, 0), 0)
        g_bs = lp.grad_bs_rate_lp(sc, ch, st.W, lp.transmit_covariance(st.W, st.v),
                                  geometry.bs_geometry(pl, ch), 0)
        np.testing.assert_allclose(g_bs, -g_user, rtol=1e-12)

    def test_bs_sinr_deficit_zero_when_unconstrained(self, scenario, placement, channels):
        st = LpState(W=[np.zeros((scenario.n_t, scenario.n_u), dtype=complex)
                        for _ in range(scenario.n_users)],
                     v=np.zeros(scenario.n_t, dtype=complex),
                     u=channels.f_r / math.sqrt(scenario.n_r))
        g = lp.grad_bs_sinr_deficit_lp(scenario, placement, channels, st.W, st.v,
                               st.u, 0.0)
        np.testing.assert_allclose(g, 0.0, atol=1e-40)

    def test_bs_deficit_x_component_vanishes_when_target_aligned(self):
        import nfisac.harness as harness
        from tests.conftest import desk_config

        sc = harness.build_scenario(desk_config(n_t=1, n_r=4, n_u=1))
        pl = geometry.Placement(
            t=np.array([[sc.target[0], sc.tx_region.center[1], 0.0]]),
            q=tuple(np.array([[r.center[0], r.center[1], r.z]])
                    for r in sc.user_regions),
        )
        object.__setattr__(sc.tx_region, "center",
                           np.array([sc.target[0], 10.0, 0.0]))
        ch = geometry.build_channels(sc, pl)
        rng = np.random.Generator(np.random.Philox(key=[37, 1]))
        st = verify.random_lp_state(sc, ch, rng)
        g = lp.grad_bs_sinr_deficit_lp(sc, pl, ch, st.W, st.v, st.u, sc.gamma0)
        assert abs(g[0, 0]) < 1e-12 * max(abs(g[0, 1]), 1e-30)


class TestBsAlm:
    def test_pure_ascent_branch_when_feasible(self, scenario, placement,
                                              channels, lp_state):
        # deficit <= 0 and eta = 0 at start: the first round optimizes -WSR only
        params = AlgoParams(alm_max_outer=2, inner_pgm_max=25)
        state = lp_state.copy()
        state.v = ao.initial_sense_beam(channels, state.W, state.u, scenario.gamma0)
        before = float(scenario.weights @ metrics.lp_rates(channels, state))
        pl2, ch2, eta, info = lp.optimize_bs_positions_alm(
            scenario, placement, channels, state, scenario.weights,
            scenario.gamma0, params, eta=0.0)
        after = float(scenario.weights @ metrics.lp_rates(ch2, state))
        assert after >= before - 1e-9
        pl2.validate(scenario)

    def test_output_spacing_preserved(self, scenario, placement, channels, lp_state):
        params = AlgoParams(alm_max_outer=2, inner_pgm_max=15)
        pl2, _, _, _ = lp.optimize_bs_positions_alm(
            scenario, placement, channels, lp_state, scenario.weights,
            scenario.gamma0, params, eta=0.0)
        assert geometry.min_spacing_ok(pl2.t, scenario.d_min)


class TestRunLp:
    @pytest.fixture(scope="class")
    def result(self):
        import nfisac.harness as harness
        from tests.conftest import desk_config

        sc = harness.build_scenario(desk_config())
        rng = harness.trial_rng(41, 0)
        pl = harness.initial_placement(sc, rng)
        return sc, lp.run_lp(sc, pl, AlgoParams(), 1.0)

    def test_monotone_trace(self, result):
        _, res = result
        ws = [t.wsr for t in res.trace]
        assert all(b >= a - 1e-6 for a, b in zip(ws, ws[1:]))

    def test_converged_within_cap(self, result):
        _, res = result
        assert res.converged
        assert res.outer_iters <= 30

    def test_terminal_feasibility(self, result):
        sc, res = result
        assert res.gamma_s >= sc.gamma0 * (1 - 1e-3)
        assert res.state.power() <= sc.p_max * (1 + 1e-6)
        assert abs(np.linalg.norm(res.state.u) - 1.0) <= 1e-9
        res.placement.validate(sc)

    def test_combiner_block_leaves_wsr_unchanged(self, result):
        _, res = result
        by_block = {}
        for rec in res.trace:
            if rec.block == "u" and rec.iteration in by_block:
                assert abs(rec.wsr - by_block[rec.iteration]) <= 1e-12
            by_block[rec.iteration] = rec.wsr

    def test_fix_mode_skips_positions(self):
        import nfisac.harness as harness
        from tests.conftest import desk_config

        sc = harness.build_scenario(desk_config())
        rng = harness.trial_rng(41, 1)
        pl = harness.initial_placement(sc, rng)
        res = lp.run_lp(sc, pl, AlgoParams(), 1.0, fixed_positions=True)
        np.testing.assert_array_equal(res.placement.t, pl.t)
        for k in range(sc.n_users):
            np.testing.assert_array_equal(res.placement.q[k], pl.q[k])
        assert not any(rec.block.startswith(("q", "t")) for rec in res.trace)
