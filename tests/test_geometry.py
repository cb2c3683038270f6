import math

import numpy as np
import pytest

from nfisac import geometry
from nfisac.errors import GeometryError, ScenarioError
from nfisac.geometry import (
    SquareRegion, build_sensing_channel, build_user_channel, min_spacing_ok,
    path_loss_comm, path_loss_sense, project_points_to_region,
    receive_ula_positions, vec3,
)


def _ula_scenario(o_r, l_r, n_r):
    from tests.conftest import desk_config
    from nfisac import harness
    from dataclasses import replace

    sc = harness.build_scenario(desk_config(n_r=max(n_r, 2), l_r=l_r))
    object.__setattr__(sc, "rx_mid", np.asarray(o_r, dtype=float))
    object.__setattr__(sc, "n_r", n_r)
    return sc


class TestReceiveUla:
    def test_matches_reference_grid(self):
        sc = _ula_scenario((3.0, 10.0, 0.0), 1.0, 8)
        pos = receive_ula_positions(sc)
        expect_x = 2.5 + np.arange(8) / 7.0
        np.testing.assert_allclose(pos[:, 0], expect_x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pos[:, 1], 10.0)
        np.testing.assert_allclose(pos[:, 2], 0.0)
        assert abs(np.linalg.norm(pos[-1] - pos[0]) - 1.0) < 1e-12

    def test_two_elements_are_endpoints(self):
        sc = _ula_scenario((0.0, 0.0, 0.0), 2.0, 2)
        pos = receive_ula_positions(sc)
        np.testing.assert_allclose(pos, [[-1, 0, 0], [1, 0, 0]], atol=1e-15)

    def test_odd_count_has_center_element(self):
        sc = _ula_scenario((0.0, 0.0, 0.0), 1.0, 3)
        pos = receive_ula_positions(sc)
        np.testing.assert_allclose(pos[1], [0, 0, 0], atol=1e-15)

    def test_single_element_rejected(self):
        sc = _ula_scenario((0.0, 0.0, 0.0), 1.0, 1)
        with pytest.raises(ScenarioError):
            receive_ula_positions(sc)


class TestPathLoss:
    def test_reference_value_30m(self):
        # lam^2 / (4 pi d)^2 at lam = 1 cm, d = 30 m
        rho = path_loss_comm(vec3(0, 0, 0), vec3(0, 0, 30), 0.01)
        assert rho == pytest.approx(7.036e-10, rel=2e-4)
        assert rho == pytest.approx(1e-4 / (120 * math.pi) ** 2, rel=1e-14)

    def test_unity_cancellation(self):
        assert path_loss_comm(vec3(0, 0, 0), vec3(1, 0, 0), 4 * math.pi) == \
            pytest.approx(1.0, rel=1e-14)

    def test_inverse_square(self):
        r1 = path_loss_comm(vec3(0, 0, 0), vec3(0, 0, 10), 0.01)
        r2 = path_loss_comm(vec3(0, 0, 0), vec3(0, 0, 20), 0.01)
        assert r1 == pytest.approx(4 * r2, rel=1e-12)

    def test_zero_distance_raises(self):
        with pytest.raises(GeometryError):
            path_loss_comm(vec3(1, 2, 3), vec3(1, 2, 3), 0.01)

    def test_sense_equal_legs(self):
        rho = path_loss_sense(vec3(0, 0, 0), vec3(0, 0, 0.0001), vec3(0, 0, 5), 0.01)
        # both legs ~5 m
        assert rho == pytest.approx(1e-4 / ((4 * math.pi) ** 3 * 5**2 * 4.9999**2), rel=1e-6)

    def test_sense_independent_distances(self):
        o_t, o_r, s = vec3(-3, 10, 0), vec3(3, 10, 0), vec3(10, 1.5, 10)
        r_t = math.dist(o_t, s)
        r_r = math.dist(o_r, s)
        expect = 0.01**2 / ((4 * math.pi) ** 3 * r_t**2 * r_r**2)
        assert path_loss_sense(o_t, o_r, s, 0.01) == pytest.approx(expect, rel=1e-12)

    def test_sense_quartic_scaling(self):
        base = path_loss_sense(vec3(0, 0, 0), vec3(1, 0, 0), vec3(0, 0, 4), 0.01)
        # scaling both legs by c divides the result by c^4
        o_r = vec3(3, 0, 0)
        far = path_loss_sense(vec3(0, 0, 0), o_r, vec3(0, 0, 12), 0.01)
        r_t1, r_r1 = 4.0, math.dist((1, 0, 0), (0, 0, 4))
        r_t3, r_r3 = 12.0, math.dist((3, 0, 0), (0, 0, 12))
        assert far / base == pytest.approx((r_t1 * r_r1) ** 2 / (r_t3 * r_r3) ** 2, rel=1e-9)

    def test_sense_coincident_raises(self):
        with pytest.raises(GeometryError):
            path_loss_sense(vec3(0, 0, 0), vec3(1, 0, 0), vec3(0, 0, 0), 0.01)


class TestUserChannel:
    def test_full_wavelength_separation(self):
        H = build_user_channel(np.array([[0.0, 0, 0]]), np.array([[0.0, 0, 0.01]]),
                               2.5, 0.01)
        assert H.shape == (1, 1)
        assert H[0, 0] == pytest.approx(2.5, rel=1e-9)

    def test_half_wavelength_sign_flip(self):
        H = build_user_channel(np.array([[0.0, 0, 0]]), np.array([[0.0, 0, 0.005]]),
                               1.0, 0.01)
        assert H[0, 0] == pytest.approx(-1.0, rel=1e-9)

    def test_unit_modulus_everywhere(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(-0.5, 0.5, (2, 3))
        q = rng.uniform(9.5, 10.5, (4, 3))
        H = build_user_channel(t, q, 3.7e-9, 0.01)
        assert H.shape == (4, 2)
        np.testing.assert_allclose(np.abs(H) / 3.7e-9, 1.0, atol=1e-12)

    def test_coincident_raises(self):
        p = np.array([[1.0, 2.0, 3.0]])
        with pytest.raises(GeometryError):
            build_user_channel(p, p.copy(), 1.0, 0.01)


class TestSensingChannel:
    def test_scalar_case_collapses(self):
        t = np.array([[0.0, 0, 0]])
        rx = np.array([[1.0, 0, 0]])
        s = vec3(0, 0, 7)
        f_t, f_r, G = build_sensing_channel(t, rx, s, 0.3, 0.01)
        d_t, d_r = 7.0, math.dist((1, 0, 0), (0, 0, 7))
        expect = 0.3 * np.exp(2j * np.pi * ((d_r - d_t) / 0.01 % 1.0))
        assert G.shape == (1, 1)
        assert G[0, 0] == pytest.approx(expect, rel=1e-9)

    def test_gram_identity(self, scenario, placement):
        ch = geometry.build_channels(scenario, placement)
        gram = ch.G.conj().T @ ch.G
        expect = ch.rho_s**2 * scenario.n_r * np.outer(ch.f_t, ch.f_t.conj())
        np.testing.assert_allclose(gram, expect, rtol=1e-10)

    def test_equidistant_antennas_give_constant_phase(self):
        # all antennas on a circle around the target's axis
        ang = np.linspace(0, 2 * np.pi, 5)[:4]
        t = np.stack([np.cos(ang), np.sin(ang), np.zeros(4)], axis=1)
        rx = np.stack([np.cos(ang + 0.3), np.sin(ang + 0.3), np.zeros(4)], axis=1)
        s = vec3(0, 0, 5)
        f_t, f_r, G = build_sensing_channel(t, rx, s, 1.0, 0.01)
        assert np.ptp(np.angle(f_t)) < 1e-9
        ratio = G / G[0, 0]
        np.testing.assert_allclose(ratio, np.ones((4, 4)), atol=1e-9)

    def test_rank_one(self, channels, scenario):
        svals = np.linalg.svd(channels.G, compute_uv=False)
        bound = 1e-10 * channels.rho_s * math.sqrt(scenario.n_t * scenario.n_r)
        assert svals[1] <= bound


class TestProjection:
    REGION = SquareRegion(center=np.array([1.0, 2.0, 5.0]), side=2.0)

    def project(self, p):
        return project_points_to_region(p[None, :], self.REGION)[0]

    def test_interior_unchanged(self):
        p = vec3(1.2, 1.5, 5.0)
        np.testing.assert_array_equal(self.project(p), p)

    def test_clamps_x_only(self):
        out = self.project(vec3(9.0, 1.5, 5.0))
        np.testing.assert_allclose(out, [2.0, 1.5, 5.0])

    def test_clamps_to_corner(self):
        out = self.project(vec3(-9.0, -9.0, 5.0))
        np.testing.assert_allclose(out, [0.0, 1.0, 5.0])

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = vec3(*rng.uniform(-5, 5, 3))
            once = self.project(p)
            np.testing.assert_array_equal(self.project(once), once)

    def test_z_untouched(self):
        out = self.project(vec3(0.0, 0.0, -3.0))
        assert out[2] == -3.0


class TestSpacing:
    def test_boundary_inclusive(self):
        pts = np.array([[0.0, 0, 0], [0.005, 0, 0]])
        assert min_spacing_ok(pts, 0.005)

    def test_duplicates_fail(self):
        pts = np.array([[1.0, 1, 0], [1.0, 1, 0]])
        assert not min_spacing_ok(pts, 1e-6)

    def test_single_point_vacuous(self):
        assert min_spacing_ok(np.array([[0.0, 0, 0]]), 10.0)

    def test_matches_upper_triangle_rule(self):
        # the rule as first written: every pair i < j at least d_min apart;
        # d_min is drawn at, just below and just above a pair's exact distance
        rng = np.random.Generator(np.random.Philox(key=[71, 0]))
        for _ in range(300):
            n = int(rng.integers(2, 9))
            pts = rng.uniform(-0.05, 0.05, size=(n, 3))
            pts[:, 2] = rng.choice([0.0, 1.5])
            if rng.uniform() < 0.2:
                pts[-1] = pts[0]
            d = geometry.pairwise_distances(pts, pts)
            iu = np.triu_indices(n, k=1)
            pair = d[iu][rng.integers(len(iu[0]))]
            for d_min in (pair, np.nextafter(pair, 0.0), np.nextafter(pair, 1.0),
                          rng.uniform(0.0, 0.05)):
                assert min_spacing_ok(pts, d_min) == bool(np.all(d[iu] >= d_min))


class TestChannelSetInvariants:
    def test_unit_modulus_invariant(self, channels):
        for k, H in enumerate(channels.H):
            np.testing.assert_allclose(np.abs(H) / channels.rho[k], 1.0, atol=1e-12)
        np.testing.assert_allclose(np.abs(channels.f_t), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.abs(channels.f_r), 1.0, atol=1e-12)

    def test_translation_covariance(self, scenario, placement):
        shift = np.array([0.37, -1.2, 2.05])
        t2 = placement.t + shift
        q2 = placement.q[0] + shift
        s2 = scenario.target + shift
        rx = geometry.receive_ula_positions(scenario)
        H1 = build_user_channel(placement.t, placement.q[0], 1.0, scenario.lam)
        H2 = build_user_channel(t2, q2, 1.0, scenario.lam)
        np.testing.assert_allclose(H1, H2, atol=1e-9)
        f_t1, _, _ = build_sensing_channel(placement.t, rx, scenario.target, 1.0,
                                           scenario.lam)
        f_t2, _, _ = build_sensing_channel(t2, rx + shift, s2, 1.0, scenario.lam)
        np.testing.assert_allclose(f_t1, f_t2, atol=1e-9)

    def test_tags_increase(self, scenario, placement):
        c1 = geometry.build_channels(scenario, placement)
        c2 = geometry.build_channels(scenario, placement)
        assert c2.tag > c1.tag
        c3 = geometry.rebuild_user_channel(scenario, c2, placement, 0)
        assert c3.tag > c2.tag


class TestPlacementValidation:
    def test_valid_placement_passes(self, scenario, placement):
        placement.validate(scenario)

    def test_out_of_region_rejected(self, scenario, placement):
        bad = placement.t.copy()
        bad[0, 0] += 100.0
        with pytest.raises(ScenarioError):
            placement.with_t(bad).validate(scenario)

    def test_spacing_violation_rejected(self, scenario, placement):
        bad = placement.q[0].copy()
        bad[1] = bad[0]
        with pytest.raises(ScenarioError):
            placement.with_q(0, bad).validate(scenario)


class TestMoveArray:
    def _moved(self, pos, region, shift):
        out = pos.copy()
        out[:, :2] += shift
        return project_points_to_region(out, region)

    def test_user_move_matches_rebuild_user_channel(self, scenario, placement, channels):
        k = 1
        qk = self._moved(placement.q[k], scenario.user_regions[k], 0.003)
        pl, ch = geometry.move_array(scenario, placement, channels, k, qk)
        np.testing.assert_array_equal(pl.q[k], qk)
        assert pl.array(k) is pl.q[k]
        ref = geometry.rebuild_user_channel(scenario, channels, placement.with_q(k, qk), k)
        for a, b in zip(ch.H, ref.H):
            assert a.tobytes() == b.tobytes()
        for j in range(scenario.n_users):
            if j != k:
                assert ch.H[j] is channels.H[j]
        assert ch.G is channels.G and ch.f_t is channels.f_t
        assert ch.tag > channels.tag

    def test_bs_move_matches_build_channels(self, scenario, placement, channels):
        t = self._moved(placement.t, scenario.tx_region, -0.01)
        pl, ch = geometry.move_array(scenario, placement, channels, None, t)
        np.testing.assert_array_equal(pl.t, t)
        assert pl.array(None) is pl.t
        for a, b in zip(pl.q, placement.q):
            assert a is b
        ref = geometry.build_channels(scenario, placement.with_t(t))
        for name in ("G", "f_t", "f_r", "rho"):
            assert getattr(ch, name).tobytes() == getattr(ref, name).tobytes()
        for a, b in zip(ch.H, ref.H):
            assert a.tobytes() == b.tobytes()
        assert ch.rho_s == ref.rho_s


class TestStackedCandidates:
    """A stack of candidate positions gives, per candidate, exactly the
    bytes of that candidate's own 2-D call."""

    def _stack(self, pos, region, c=5, seed=3):
        rng = np.random.default_rng(seed)
        out = np.repeat(pos[None], c, axis=0)
        out[:, :, :2] += rng.normal(scale=2e-3, size=(c,) + pos[:, :2].shape)
        return project_points_to_region(out, region)

    @staticmethod
    def _assert_same_channels(a, b):
        for name in ("G", "f_t", "f_r", "rho", "noise_user"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        assert len(a.H) == len(b.H)
        for x, y in zip(a.H, b.H):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()
        assert (a.rho_s, a.noise_radar) == (b.rho_s, b.noise_radar)

    @pytest.mark.parametrize("k", [None, 0, 1])
    def test_move_array_stack_matches_one_at_a_time(self, scenario, placement,
                                                    channels, k):
        region = scenario.tx_region if k is None else scenario.user_regions[k]
        stack = self._stack(placement.array(k), region)
        pl_s, ch_s = geometry.move_array(scenario, placement, channels, k, stack)
        tags = set()
        for i in range(len(stack)):
            pl_i, ch_i = geometry.candidate(pl_s, ch_s, k, i)
            pl_r, ch_r = geometry.move_array(scenario, placement, channels, k, stack[i])
            assert pl_i.t.tobytes() == pl_r.t.tobytes()
            for a, b in zip(pl_i.q, pl_r.q):
                assert a.tobytes() == b.tobytes()
            self._assert_same_channels(ch_i, ch_r)
            tags.add(ch_i.tag)
        assert len(tags) == len(stack) and min(tags) > ch_s.tag

    def test_build_channels_stack_matches_one_at_a_time(self, scenario, placement):
        stack = self._stack(placement.t, scenario.tx_region)
        ch_s = geometry.build_channels(scenario, placement.with_t(stack))
        for i in range(len(stack)):
            ref = geometry.build_channels(scenario, placement.with_t(stack[i]))
            _, ch_i = geometry.candidate(placement.with_t(stack), ch_s, None, i)
            self._assert_same_channels(ch_i, ref)

    def test_bs_move_keeps_what_the_array_does_not_change(self, scenario, placement,
                                                          channels):
        stack = self._stack(placement.t, scenario.tx_region)
        _, ch = geometry.move_array(scenario, placement, channels, None, stack)
        assert ch.f_r is channels.f_r and ch.rho is channels.rho
        assert ch.noise_user is channels.noise_user and ch.rho_s == channels.rho_s
        assert ch.G.shape == (len(stack), scenario.n_r, scenario.n_t)

    def test_min_spacing_stack_matches_one_at_a_time(self, scenario, placement):
        stack = self._stack(placement.t, scenario.tx_region, c=6)
        stack[2, 1] = stack[2, 0]                    # one candidate collapses
        ok = min_spacing_ok(stack, scenario.d_min)
        assert ok.tolist() == [min_spacing_ok(p, scenario.d_min) for p in stack]
        assert not ok[2] and ok.sum() == 5
