import dataclasses
import math

import numpy as np
import pytest

from nfisac import geometry, metrics, verify
from nfisac.errors import NumericalError, RankDeficiencyError
from nfisac.metrics import (
    LpState, rate_lp, rate_zf, sinr, sinr_deficit, zf_precoder,
)


def _scalar_channels(h, sigma_user, sigma_radar=1.0):
    """1x1 system with a prescribed complex channel coefficient."""
    from dataclasses import replace

    base = geometry.ChannelSet(
        H=(np.array([[h]], dtype=complex),),
        G=np.array([[1.0 + 0j]]), f_t=np.array([1.0 + 0j]),
        f_r=np.array([1.0 + 0j]), rho=np.array([abs(h)]), rho_s=1.0,
        noise_user=np.array([sigma_user]), noise_radar=sigma_radar)
    return base


def _random_hpd_stack(rng, shape, n):
    X = rng.normal(size=shape + (n, n)) + 1j * rng.normal(size=shape + (n, n))
    return X @ np.swapaxes(X.conj(), -1, -2) + 0.1 * np.eye(n)


class TestLogdetHpd:
    def test_stack_matches_slices_bitwise(self):
        rng = np.random.Generator(np.random.Philox(key=[41, 0]))
        for shape, n in (((3,), 2), ((5,), 4), ((2, 3), 8)):
            M = _random_hpd_stack(rng, shape, n)
            vals, flag = metrics.logdet_hpd(M)
            assert vals.shape == shape and not flag
            for idx in np.ndindex(*shape):
                ld, f = metrics.logdet_hpd(M[idx])
                assert isinstance(ld, float) and not f
                assert vals[idx] == ld
                assert ld == pytest.approx(np.linalg.slogdet(M[idx])[1], rel=1e-12)

    def test_jitter_only_on_the_failing_slice(self):
        rng = np.random.Generator(np.random.Philox(key=[41, 1]))
        M = _random_hpd_stack(rng, (3,), 2)
        M[1] = np.diag([2.0, 0.0])          # PSD but singular: plain Cholesky fails
        vals, flag = metrics.logdet_hpd(M)
        assert flag
        jittered, f1 = metrics.logdet_hpd(M[1])
        assert f1 and vals[1] == jittered
        assert jittered == pytest.approx(math.log(2.0 + 1e-14) + math.log(1e-14), rel=1e-12)
        for i in (0, 2):
            ld, f = metrics.logdet_hpd(M[i])
            assert not f and vals[i] == ld

    def test_indefinite_slice_raises(self):
        rng = np.random.Generator(np.random.Philox(key=[41, 2]))
        M = _random_hpd_stack(rng, (2,), 2)
        M[0] = np.diag([1.0, -1.0])         # jitter is 0 here: still indefinite
        with pytest.raises(NumericalError):
            metrics.logdet_hpd(M)
        with pytest.raises(NumericalError):
            metrics.logdet_hpd(M[0])


class TestRateLp:
    def test_unit_snr_gives_ln2(self):
        ch = _scalar_channels(1.0, sigma_user=1.0)
        st = LpState(W=[np.array([[1.0 + 0j]])], v=np.array([0.0 + 0j]),
                     u=np.array([1.0 + 0j]))
        assert rate_lp(ch, st, 0) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_zero_precoder_zero_rate(self, channels, lp_state):
        st = LpState(W=[np.zeros_like(Wk) for Wk in lp_state.W],
                     v=lp_state.v, u=lp_state.u)
        assert rate_lp(channels, st, 0) == 0.0
        assert rate_lp(channels, st, 1) == 0.0

    def test_matches_split_determinant_form(self, channels, lp_state, scenario):
        # independent evaluation of the split log-det form at the array level
        for k in range(scenario.n_users):
            Hk = channels.H[k]
            n_u = Hk.shape[0]
            cov_all = sum(Wu @ Wu.conj().T for Wu in lp_state.W)
            cov_all = cov_all + np.outer(lp_state.v, lp_state.v.conj())
            cov_rest = cov_all - lp_state.W[k] @ lp_state.W[k].conj().T
            eye = channels.noise_user[k] * np.eye(n_u)
            rx_all = Hk @ cov_all @ Hk.conj().T + eye
            rx_rest = Hk @ cov_rest @ Hk.conj().T + eye
            oracle = math.log(abs(np.linalg.det(rx_all))) - math.log(abs(np.linalg.det(rx_rest)))
            assert rate_lp(channels, lp_state, k) == pytest.approx(oracle, abs=1e-10)

    def test_nonnegative_on_random_states(self, scenario, channels):
        rng = np.random.Generator(np.random.Philox(key=[9, 9]))
        for _ in range(25):
            st = verify.random_lp_state(scenario, channels, rng)
            for k in range(scenario.n_users):
                assert rate_lp(channels, st, k) >= 0.0


class TestSinrLp:
    def test_noise_only_denominator(self, scenario, channels):
        st = LpState(W=[np.zeros((scenario.n_t, scenario.n_u), dtype=complex)
                        for _ in range(scenario.n_users)],
                     v=channels.f_t / math.sqrt(scenario.n_t),
                     u=channels.f_r / math.sqrt(scenario.n_r))
        expect = (channels.rho_s**2 * scenario.n_t * scenario.n_r
                  / channels.noise_radar)
        assert sinr(channels, st.W, st.v, st.u) == pytest.approx(expect, rel=1e-9)

    def test_orthogonal_beam_zero(self, scenario, channels, lp_state):
        g = channels.G.conj().T @ lp_state.u
        v = np.zeros(scenario.n_t, dtype=complex)
        v[0], v[1] = -np.conj(g[1]), np.conj(g[0])
        v /= np.linalg.norm(v)
        st = LpState(W=lp_state.W, v=v, u=lp_state.u)
        assert sinr(channels, st.W, st.v, st.u) <= 1e-18

    def test_matches_bruteforce_quadratic_forms(self, channels, lp_state):
        u, v = lp_state.u, lp_state.v
        G = channels.G
        num = abs(u.conj() @ G @ v) ** 2
        D = channels.noise_radar * np.eye(G.shape[0], dtype=complex)
        for Wu in lp_state.W:
            GW = G @ Wu
            D += GW @ GW.conj().T
        oracle = num / float(np.real(u.conj() @ D @ u))
        assert sinr(channels, lp_state.W, v, u) == pytest.approx(oracle, rel=1e-12)


class TestZfPrecoder:
    def test_identity_channel(self):
        from dataclasses import replace
        n = 2
        ch = geometry.ChannelSet(
            H=(np.eye(1, n, dtype=complex) * 3.0, np.eye(1, n, k=1, dtype=complex) * 3.0),
            G=np.eye(2, n, dtype=complex), f_t=np.ones(n, dtype=complex),
            f_r=np.ones(2, dtype=complex), rho=np.array([3.0, 3.0]), rho_s=1.0,
            noise_user=np.array([1.0, 1.0]), noise_radar=1.0)
        P, gain, _ = zf_precoder(ch, p_max=4.0)
        assert gain == pytest.approx(3.0 * math.sqrt(4.0 / 2), rel=1e-12)
        np.testing.assert_allclose(P, math.sqrt(2.0) * np.eye(n), atol=1e-12)

    def test_power_and_zero_forcing_identity(self, channels, scenario):
        P, gain, _ = zf_precoder(channels, scenario.p_max)
        assert float(np.sum(np.abs(P) ** 2)) == pytest.approx(scenario.p_max, rel=1e-9)
        H_e = np.vstack(channels.H)
        prod = H_e @ P
        off = prod - gain * np.eye(prod.shape[0])
        assert np.max(np.abs(off)) <= 1e-8 * gain

    def test_rank_deficient_rejected(self):
        h = np.full((1, 2), 1.0 + 0j)
        ch = geometry.ChannelSet(
            H=(h, h.copy()), G=np.eye(2, dtype=complex),
            f_t=np.ones(2, dtype=complex), f_r=np.ones(2, dtype=complex),
            rho=np.array([1.0, 1.0]), rho_s=1.0,
            noise_user=np.array([1.0, 1.0]), noise_radar=1.0)
        with pytest.raises(RankDeficiencyError) as err:
            zf_precoder(ch, 1.0)
        assert err.value.cond > metrics.COND_LIMIT or not np.isfinite(err.value.cond)

    def test_overloaded_user_count_rejected(self):
        h = np.ones((3, 2), dtype=complex)
        ch = geometry.ChannelSet(
            H=(h,), G=np.eye(2, dtype=complex), f_t=np.ones(2, dtype=complex),
            f_r=np.ones(2, dtype=complex), rho=np.array([1.0]), rho_s=1.0,
            noise_user=np.array([1.0]), noise_radar=1.0)
        with pytest.raises(RankDeficiencyError):
            zf_precoder(ch, 1.0)


class TestRateZf:
    def test_zero_beam_closed_form(self, channels, zf_state, scenario):
        st = zf_state.copy()
        st.v = np.zeros(scenario.n_t, dtype=complex)
        for k in range(scenario.n_users):
            expect = scenario.n_u * math.log(1 + st.gain**2 / channels.noise_user[k])
            assert rate_zf(channels, st, k) == pytest.approx(expect, rel=1e-10)

    def test_zero_gain_zero_rate(self, channels, zf_state):
        st = zf_state.copy()
        st.gain = 0.0
        assert rate_zf(channels, st, 0) == 0.0

    def test_matches_eigenvalue_oracle(self, channels, zf_state, scenario):
        # rank-1 + identity determinants via their eigenvalues
        for k in range(scenario.n_users):
            hv = channels.H[k] @ zf_state.v
            sig = channels.noise_user[k]
            b2 = zf_state.gain**2
            n_u = scenario.n_u
            oracle = (n_u - 1) * math.log((b2 + sig) / sig)
            oracle += math.log((b2 + sig + np.linalg.norm(hv) ** 2)
                               / (sig + np.linalg.norm(hv) ** 2))
            assert rate_zf(channels, zf_state, k) == pytest.approx(oracle, rel=1e-10)

    def test_depends_only_on_own_channel(self, scenario, placement, channels, zf_state):
        # moving user 1 while holding the common gain fixed leaves user 0's rate alone
        rng = np.random.default_rng(7)
        q1 = placement.q[1].copy()
        q1[:, :2] += rng.uniform(-0.01, 0.01, q1[:, :2].shape)
        pl2 = placement.with_q(1, q1)
        ch2 = geometry.rebuild_user_channel(scenario, channels, pl2, 1)
        r0_before = rate_zf(channels, zf_state, 0)
        r0_after = rate_zf(ch2, zf_state, 0)
        assert r0_after == r0_before


class TestSinrZf:
    def test_no_interference_closed_form(self, scenario, channels):
        st = metrics.ZfState(
            v=channels.f_t / math.sqrt(scenario.n_t),
            u=channels.f_r / math.sqrt(scenario.n_r),
            P=np.zeros((scenario.n_t, scenario.n_users * scenario.n_u),
                       dtype=complex),
            gain=0.0, channel_tag=channels.tag, gram_inv=None)
        expect = (channels.rho_s**2 * scenario.n_t * scenario.n_r
                  / channels.noise_radar)
        assert sinr(channels, (st.P,), st.v, st.u) == pytest.approx(expect, rel=1e-9)

    def test_matches_bruteforce(self, channels, zf_state):
        u, v, P = zf_state.u, zf_state.v, zf_state.P
        G = channels.G
        num = abs(u.conj() @ G @ v) ** 2
        GP = G @ P
        D = GP @ GP.conj().T + channels.noise_radar * np.eye(G.shape[0])
        oracle = num / float(np.real(u.conj() @ D @ u))
        assert sinr(channels, (P,), v, u) == pytest.approx(oracle, rel=1e-12)

    def test_orthogonal_beam_zero(self, scenario, channels, zf_state):
        g = channels.G.conj().T @ zf_state.u
        v = np.zeros(scenario.n_t, dtype=complex)
        v[0], v[1] = -np.conj(g[1]), np.conj(g[0])
        st = zf_state.copy()
        st.v = v / np.linalg.norm(v)
        assert sinr(channels, (st.P,), st.v, st.u) <= 1e-18


class TestKappa:
    def test_lp_substitution_identity(self, scenario, channels):
        st = LpState(W=[np.zeros((scenario.n_t, scenario.n_u), dtype=complex)
                        for _ in range(scenario.n_users)],
                     v=channels.f_t / math.sqrt(scenario.n_t),
                     u=channels.f_r / math.sqrt(scenario.n_r))
        gamma0 = 1e-5
        p_s = metrics.sensing_power(channels, st.v, st.u)
        expect = gamma0 * channels.noise_radar - p_s
        assert sinr_deficit(channels, st.W, st.v, st.u, gamma0) == pytest.approx(
            expect, rel=1e-12)

    def test_gamma0_zero_nonpositive(self, channels, lp_state):
        assert sinr_deficit(channels, lp_state.W, lp_state.v, lp_state.u, 0.0) <= 0.0

    def test_sign_consistency_lp_and_zf(self, scenario, channels):
        # deficit <= 0 exactly when gamma_s >= gamma0, checked on random states
        rng = np.random.Generator(np.random.Philox(key=[21, 4]))
        checked_lp = checked_zf = 0
        for _ in range(1000):
            st = verify.random_lp_state(scenario, channels, rng)
            gam = sinr(channels, st.W, st.v, st.u)
            gamma0 = gam * rng.uniform(0.2, 5.0)
            kap = sinr_deficit(channels, st.W, st.v, st.u, gamma0)
            assert (kap <= 0) == (gam >= gamma0) or math.isclose(gam, gamma0, rel_tol=1e-12)
            checked_lp += 1
        zst = metrics.make_zf_state(channels, verify._random_unit(rng, scenario.n_t),
                                    verify._random_unit(rng, scenario.n_r),
                                    scenario.p_max)
        for _ in range(200):
            zst.v = verify._random_unit(rng, scenario.n_t)
            zst.u = verify._random_unit(rng, scenario.n_r)
            gam = sinr(channels, (zst.P,), zst.v, zst.u)
            gamma0 = gam * rng.uniform(0.2, 5.0)
            kap = sinr_deficit(channels, (zst.P,), zst.v, zst.u, gamma0)
            assert (kap <= 0) == (gam >= gamma0) or math.isclose(gam, gamma0, rel_tol=1e-12)
            checked_zf += 1
        assert checked_lp == 1000 and checked_zf == 200

    def test_zf_substitution_identity(self, scenario, channels):
        zeros = np.zeros((scenario.n_t, scenario.n_users * scenario.n_u),
                         dtype=complex)
        st = metrics.ZfState(v=channels.f_t / math.sqrt(scenario.n_t),
                             u=channels.f_r / math.sqrt(scenario.n_r),
                             P=zeros, gain=0.0, channel_tag=channels.tag,
                             gram_inv=None)
        gamma0 = 3e-5
        p_s = metrics.sensing_power(channels, st.v, st.u)
        assert sinr_deficit(channels, (st.P,), st.v, st.u, gamma0) == pytest.approx(
            gamma0 * channels.noise_radar - p_s, rel=1e-12)

    def test_zf_gamma0_zero_nonpositive(self, channels, zf_state):
        assert sinr_deficit(channels, (zf_state.P,), zf_state.v, zf_state.u, 0.0) <= 0.0

    def test_cov_forms_agree_on_rank_one(self, channels, lp_state, zf_state):
        V = np.outer(lp_state.v, lp_state.v.conj())
        a = metrics.sinr_deficit_cov(channels, lp_state.W, V, lp_state.u, 2e-5)
        b = sinr_deficit(channels, lp_state.W, lp_state.v, lp_state.u, 2e-5)
        assert a == pytest.approx(b, rel=1e-10)
        Vz = np.outer(zf_state.v, zf_state.v.conj())
        az = metrics.sinr_deficit_cov(channels, (zf_state.P,), Vz, zf_state.u, 2e-5)
        bz = sinr_deficit(channels, (zf_state.P,), zf_state.v, zf_state.u, 2e-5)
        assert az == pytest.approx(bz, rel=1e-10)


class TestZfFreshness:
    """``state.at(channels, p_max)``: the state on the channels in hand."""

    def test_refresh_detects_stale_tag(self, scenario, placement, channels, zf_state):
        assert zf_state.channel_tag == channels.tag
        assert zf_state.at(channels, scenario.p_max) is zf_state
        q = placement.q[0].copy()
        q[:, 0] += 0.01
        _, ch2 = geometry.move_array(scenario, placement, channels, 0, q)
        st2 = zf_state.at(ch2, scenario.p_max)
        assert st2 is not zf_state
        assert st2.channel_tag == ch2.tag
        ref = metrics.make_zf_state(ch2, zf_state.v, zf_state.u, scenario.p_max)
        assert st2.P.tobytes() == ref.P.tobytes()
        assert repr(st2.gain) == repr(ref.gain)
        assert st2.gram_inv.tobytes() == ref.gram_inv.tobytes()
        assert st2.P.tobytes() != zf_state.P.tobytes()

    def test_lp_state_is_kept(self, scenario, placement, channels, lp_state):
        _, ch2 = geometry.move_array(scenario, placement, channels, None,
                                     placement.t + [0.01, 0.0, 0.0])
        assert lp_state.at(channels, scenario.p_max) is lp_state
        assert lp_state.at(ch2, scenario.p_max) is lp_state


class TestStackedCandidates:
    """Rates, the ZF precoder and the SINR deficit on a stack of candidate
    channels equal, per candidate, the bytes of the candidate's 2-D call."""

    @staticmethod
    def _stack(scenario, placement, channels, k, c=6, seed=4):
        rng = np.random.default_rng(seed)
        pos = placement.array(k)
        region = scenario.tx_region if k is None else scenario.user_regions[k]
        stack = np.repeat(pos[None], c, axis=0)
        stack[:, :, :2] += rng.normal(scale=3e-3, size=(c,) + pos[:, :2].shape)
        stack = geometry.project_points_to_region(stack, region)
        pl, ch = geometry.move_array(scenario, placement, channels, k, stack)
        return [geometry.candidate(pl, ch, k, i)[1] for i in range(c)], ch

    @pytest.mark.parametrize("k", [None, 1])
    def test_zf_precoder_and_state(self, scenario, placement, channels, zf_state, k):
        singles, ch = self._stack(scenario, placement, channels, k)
        P, gain, A_inv = zf_precoder(ch, scenario.p_max)
        st = zf_state.at(ch, scenario.p_max)
        for i, ch_i in enumerate(singles):
            P_i, gain_i, A_inv_i = zf_precoder(ch_i, scenario.p_max)
            assert P[i].tobytes() == P_i.tobytes()
            assert repr(float(gain[i])) == repr(gain_i)
            assert A_inv[i].tobytes() == A_inv_i.tobytes()
            st_i = st.candidate(i, ch_i)
            assert st_i.channel_tag == ch_i.tag and type(st_i.gain) is float
            assert st_i.P.tobytes() == P_i.tobytes()

    @pytest.mark.parametrize("k", [None, 0])
    def test_rates_and_deficit(self, scenario, placement, channels, zf_state,
                               lp_state, k):
        singles, ch = self._stack(scenario, placement, channels, k)
        zst = zf_state.at(ch, scenario.p_max)
        zf_r = metrics.zf_rates(ch, zst)
        lp_r = metrics.lp_rates(ch, lp_state)
        own = metrics.rate_lp_w(ch, lp_state.W, lp_state.v, 0)   # a moved user
        z_def = sinr_deficit(ch, zst.precoders, zst.v, zst.u, scenario.gamma0)
        # a user move leaves G, and so the LP deficit, unstacked
        l_def = np.broadcast_to(sinr_deficit(ch, lp_state.W, lp_state.v, lp_state.u,
                                             scenario.gamma0), (len(singles),))
        for i, ch_i in enumerate(singles):
            zst_i = zst.candidate(i, ch_i)
            assert zf_r[i].tobytes() == metrics.zf_rates(ch_i, zst_i).tobytes()
            for j in range(scenario.n_users):
                assert repr(float(zf_r[i, j])) == repr(rate_zf(ch_i, zst_i, j))
            assert lp_r[i].tobytes() == metrics.lp_rates(ch_i, lp_state).tobytes()
            assert repr(float(own[i])) == repr(metrics.rate_lp_w(ch_i, lp_state.W,
                                                                  lp_state.v, 0))
            assert repr(float(z_def[i])) == repr(sinr_deficit(
                ch_i, zst_i.precoders, zst.v, zst.u, scenario.gamma0))
            assert repr(float(l_def[i])) == repr(sinr_deficit(
                ch_i, lp_state.W, lp_state.v, lp_state.u, scenario.gamma0))

    def test_one_user_rate_is_a_float(self, channels, lp_state, zf_state):
        assert type(metrics.rate_lp_w(channels, lp_state.W, lp_state.v, 0)) is float
        assert type(rate_zf(channels, zf_state, 1)) is float
        assert metrics.lp_rates(channels, lp_state).shape == (len(channels.H),)

    def test_rank_deficient_candidate_raises_for_its_stack(self, scenario, placement,
                                                           channels):
        _, ch = self._stack(scenario, placement, channels, 0, c=3)
        H0 = ch.H[0].copy()
        H0[1] = channels.H[1]            # candidate 1 of user 0 copies user 1
        with pytest.raises(RankDeficiencyError) as err:
            zf_precoder(dataclasses.replace(ch, H=(H0, ch.H[1])), scenario.p_max)
        assert not err.value.cond <= metrics.COND_LIMIT
