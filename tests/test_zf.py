import math

import numpy as np
import pytest

from nfisac import geometry, metrics, verify, zf
from nfisac.params import TOL_FEAS, AlgoParams


class TestCombinerZf:
    def test_zero_precoder_gives_boresight(self, scenario, channels, zf_state):
        st = zf_state.copy()
        st.P = np.zeros_like(st.P)
        u = zf.optimal_combiner_zf(channels, st)
        expect = channels.f_r / math.sqrt(scenario.n_r)
        phase = np.vdot(expect, u)
        np.testing.assert_allclose(u, expect * phase / abs(phase), atol=1e-10)

    def test_beats_random_search(self, scenario, channels, zf_state):
        u_star = zf.optimal_combiner_zf(channels, zf_state)
        st = zf_state.copy()
        st.u = u_star
        best = metrics.sinr(channels, (st.P,), st.v, st.u)
        rng = np.random.Generator(np.random.Philox(key=[43, 0]))
        for _ in range(10_000):
            st.u = verify._random_unit(rng, scenario.n_r)
            assert metrics.sinr(channels, (st.P,), st.v, st.u) <= best * (1 + 1e-12)

    def test_global_phase_equivariance(self, scenario, channels, zf_state):
        from dataclasses import replace
        u1 = zf.optimal_combiner_zf(channels, zf_state)
        phase = np.exp(0.71j)
        ch2 = replace(channels, f_r=channels.f_r * phase,
                      G=channels.G * phase)
        u2 = zf.optimal_combiner_zf(ch2, zf_state)
        np.testing.assert_allclose(u2, phase * u1, atol=1e-10)


class TestSenseBeamZf:
    def test_output_unit_and_feasible(self, scenario, channels, zf_state):
        state = zf_state.copy()
        state.u = channels.f_r / math.sqrt(scenario.n_r)
        state.v = channels.f_t / math.sqrt(scenario.n_t)
        v_new, _, _ = zf.optimize_sense_beam_zf(
            channels, state, scenario.weights, scenario.gamma0, 1.0)
        assert abs(np.linalg.norm(v_new) - 1.0) <= 1e-12
        kap = metrics.sinr_deficit(channels, (state.P,), v_new, state.u, scenario.gamma0)
        scale = metrics.sinr_deficit_scale(channels, scenario.gamma0)
        assert kap <= TOL_FEAS * scale

    def test_surrogate_rounds_monotone(self, scenario, channels, zf_state):
        from nfisac.subsolver import CovarianceSubproblem, solve_covariance_subproblem
        state = zf_state.copy()
        state.u = channels.f_r / math.sqrt(scenario.n_r)
        state.v = channels.f_t / math.sqrt(scenario.n_t)
        V = np.outer(state.v, state.v.conj())
        model = zf.interference_model(channels, state, scenario.gamma0)
        objs = []
        for _ in range(5):
            sub = CovarianceSubproblem(channels, V, scenario.weights,
                                       scenario.gamma0, state.u, 1.0, model)
            V = solve_covariance_subproblem(sub)
            objs.append(float(scenario.weights @ sub.bound_values(V)))
        true_rates = [metrics.rate_zf_cov(channels, state.gain, V, k)
                      for k in range(scenario.n_users)]
        assert float(scenario.weights @ np.array(true_rates)) >= objs[-1] - 1e-9


class TestUserAlmZf:
    def test_improves_wsr_and_recomputes_precoder(self, scenario, placement,
                                                  channels, zf_state):
        params = AlgoParams(alm_max_outer=2, inner_pgm_max=20)
        state = zf.initial_zf_state(scenario, channels, params)
        before = float(scenario.weights @ metrics.zf_rates(channels, state))
        pl2, ch2, st2, eta, info = zf.optimize_user_positions_alm_zf(
            scenario, placement, channels, state, scenario.weights,
            scenario.gamma0, 0, params, 0.0)
        after = float(scenario.weights @ metrics.zf_rates(ch2, st2))
        assert after >= before - 1e-9
        assert st2.channel_tag == ch2.tag
        pl2.validate(scenario)
        # fresh ZF identity at the new point
        H_e = np.vstack(ch2.H)
        off = H_e @ st2.P - st2.gain * np.eye(H_e.shape[0])
        assert np.max(np.abs(off)) <= 1e-8 * st2.gain

    def test_zero_incentive_start_unchanged(self, scenario, placement, channels):
        # zero weights, eta = p = 0 and slack constraint: no reason to move
        params = AlgoParams(alm_max_outer=1, inner_pgm_max=10)
        state = zf.initial_zf_state(scenario, channels, params)
        pl2, ch2, st2, _, _ = zf.optimize_user_positions_alm_zf(
            scenario, placement, channels, state, np.zeros(scenario.n_users),
            scenario.gamma0, 0, params, 0.0)
        np.testing.assert_array_equal(pl2.q[0], placement.q[0])


class TestBsAlmZf:
    def test_pure_ascent_when_constraint_inactive(self, scenario, placement,
                                                  channels):
        # gamma0 = 0 keeps the deficit <= 0 everywhere, so eta stays 0 and every
        # round minimizes -WSR only
        params = AlgoParams(alm_max_outer=2, inner_pgm_max=15)
        state = zf.initial_zf_state(scenario, channels, params)
        before = float(scenario.weights @ metrics.zf_rates(channels, state))
        pl2, ch2, st2, eta, _ = zf.optimize_bs_positions_alm_zf(
            scenario, placement, channels, state, scenario.weights,
            0.0, params, 0.0)
        after = float(scenario.weights @ metrics.zf_rates(ch2, st2))
        assert after >= before - 1e-9
        assert eta == 0.0

    def test_spacing_and_freshness(self, scenario, placement, channels):
        params = AlgoParams(alm_max_outer=2, inner_pgm_max=15)
        state = zf.initial_zf_state(scenario, channels, params)
        pl2, ch2, st2, _, _ = zf.optimize_bs_positions_alm_zf(
            scenario, placement, channels, state, scenario.weights,
            scenario.gamma0, params, 0.0)
        assert geometry.min_spacing_ok(pl2.t, scenario.d_min)
        for m in range(scenario.n_t):
            assert scenario.tx_region.contains(pl2.t[m], tol=1e-9)
        assert st2.channel_tag == ch2.tag


class TestRunZf:
    @pytest.fixture(scope="class")
    def result(self):
        import nfisac.harness as harness
        from tests.conftest import desk_config

        sc = harness.build_scenario(desk_config())
        rng = harness.trial_rng(47, 0)
        pl = harness.initial_placement(sc, rng)
        return sc, zf.run_zf(sc, pl, AlgoParams(), 1.0)

    def test_monotone_trace(self, result):
        _, res = result
        ws = [t.wsr for t in res.trace]
        assert all(b >= a - 1e-6 for a, b in zip(ws, ws[1:]))

    def test_converged_and_feasible(self, result):
        sc, res = result
        assert res.converged and res.outer_iters <= 30
        assert res.gamma_s >= sc.gamma0 * (1 - 1e-3)
        assert abs(np.linalg.norm(res.state.u) - 1.0) <= 1e-9
        res.placement.validate(sc)

    def test_power_identity(self, result):
        sc, res = result
        power = float(np.sum(np.abs(res.state.P) ** 2))
        assert power == pytest.approx(sc.p_max, rel=1e-6)

    def test_state_fresh_at_exit(self, result):
        _, res = result
        assert res.state.channel_tag == res.channels.tag

    def test_fix_mode_freezes_positions(self):
        import nfisac.harness as harness
        from tests.conftest import desk_config

        sc = harness.build_scenario(desk_config())
        rng = harness.trial_rng(47, 1)
        pl = harness.initial_placement(sc, rng)
        res = zf.run_zf(sc, pl, AlgoParams(), 1.0, fixed_positions=True)
        np.testing.assert_array_equal(res.placement.t, pl.t)
        for k in range(sc.n_users):
            np.testing.assert_array_equal(res.placement.q[k], pl.q[k])
        assert not any(rec.block.startswith(("q", "t")) for rec in res.trace)


class TestZfWorkspaceConsistency:
    def test_beta_matches_precoder(self, scenario, channels, zf_state):
        ws = zf.ZfWorkspace(channels, zf_state, scenario.p_max, scenario.gamma0)
        assert math.sqrt(ws.beta2) == pytest.approx(zf_state.gain, rel=1e-10)

    def test_kronecker_delta_structure(self, scenario, placement, channels, zf_state):
        # the own-user gradient includes the G_k term, the cross gradient does not
        ws = zf.ZfWorkspace(channels, zf_state, scenario.p_max, scenario.gamma0)
        geo = geometry.user_geometry(placement, channels, 0)
        one_hot = np.eye(scenario.n_users)
        g_own = zf.grad_user_wsr_zf(scenario, channels, ws, geo, one_hot[0], 0)
        g_cross = zf.grad_user_wsr_zf(scenario, channels, ws, geo, one_hot[1], 0)
        assert not np.allclose(g_own, g_cross)

    def test_stacked_inverse_matches_per_user_inv(self, scenario, channels, zf_state):
        ws = zf.ZfWorkspace(channels, zf_state, scenario.p_max, scenario.gamma0)
        v = zf_state.v
        assert len(ws.tr_f_inv) == len(ws.beam_sens) == scenario.n_users
        for k, Hk in enumerate(channels.H):
            eye = np.eye(Hk.shape[0], dtype=complex)
            hv = Hk @ v
            E = np.outer(hv, hv.conj()) + channels.noise_user[k] * eye
            Fi = np.linalg.inv(E + ws.beta2 * eye)
            tr = float(np.real(np.trace(Fi)))
            beam = np.outer(v, hv.conj() @ (Fi - np.linalg.inv(E)))
            assert ws.tr_f_inv[k] == tr
            assert ws.beam_sens[k].tobytes() == beam.tobytes()
