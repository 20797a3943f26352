"""Tests of the lifted-circle and cone-plank primitives."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tangencylab.errors import ConcentricError, NotNearTangentError
from tangencylab.geometry import (
    Circle3,
    Lightplank,
    Rect2,
    annulus_contains_rect,
    comparability_gap_limit,
    containment_slack,
    containment_window,
    delta_gap,
    is_exact_tangent_int,
    mixed_abs_matrix,
    mutual_containment,
    plank_axes,
    plank_comparable,
    plank_contained_in_dilation,
    plank_contains,
    plank_corners,
    point_rect_distance,
    point_window,
    rect_axes,
    rect_corners,
    rotate_plank_z,
    tangency_rect,
    wrap_angle,
)
from tangencylab.planks import _comparability_window

SQRT2 = math.sqrt(2.0)


def C(x1, x2, x3):
    return Circle3(center=(x1, x2), radius=x3)


class TestDeltaGap:
    def test_tangent_pair(self):
        assert delta_gap(C(0.0, 0.0, 1.0), C(1.0, 0.0, 2.0)) == 0.0

    def test_concentric(self):
        assert delta_gap(C(0.0, 0.0, 1.0), C(0.0, 0.0, 1.5)) == pytest.approx(0.5)

    def test_three_four_five(self):
        assert delta_gap(C(3.0, 4.0, 1.0), C(0.0, 0.0, 2.0)) == pytest.approx(4.0)

    def test_symmetric_and_zero_on_diagonal(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = C(*rng.uniform(-1, 1, 2), rng.uniform(1, 2))
            b = C(*rng.uniform(-1, 1, 2), rng.uniform(1, 2))
            assert delta_gap(a, b) == delta_gap(b, a)
            assert delta_gap(a, a) == 0.0

    def test_lipschitz_bound_bulk(self):
        # |gap(x,y) - gap(x',y)| <= 2 |x - x'| over 1e5 random triples
        rng = np.random.default_rng(42)
        n = 100_000
        x = rng.uniform(-1, 1, (n, 3)) + np.array([0, 0, 2.5])
        xp = rng.uniform(-1, 1, (n, 3)) + np.array([0, 0, 2.5])
        y = rng.uniform(-1, 1, (n, 3)) + np.array([0, 0, 2.5])

        def gaps(a, b):
            return np.abs(np.hypot(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1]) - np.abs(a[:, 2] - b[:, 2]))

        lhs = np.abs(gaps(x, y) - gaps(xp, y))
        rhs = 2.0 * np.linalg.norm(x - xp, axis=1)
        assert np.all(lhs <= rhs + 1e-12)


class TestExactTangency:
    def test_examples(self):
        assert is_exact_tangent_int(C(0, 0, 1), C(1, 0, 2)) is True
        assert is_exact_tangent_int(C(0, 0, 1), C(3, 4, 6)) is True
        assert is_exact_tangent_int(C(0, 0, 1), C(1, 1, 2)) is False

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            is_exact_tangent_int(C(0.0, 0, 1), C(1, 0, 2))

    def test_rejects_identical(self):
        with pytest.raises(ValueError):
            is_exact_tangent_int(C(1, 2, 3), C(1, 2, 3))

    def test_huge_coordinates_cannot_wrap(self):
        # Python integers are unbounded; a Pythagorean triple scaled by 1e12
        # still decides exactly
        s = 10**12
        assert is_exact_tangent_int(C(0, 0, s), C(3 * s, 4 * s, 6 * s)) is True
        assert is_exact_tangent_int(C(0, 0, s), C(3 * s, 4 * s, 6 * s + 1)) is False

    def test_integer_float_agreement(self):
        # tangent integer circles with coordinates up to 1e6 have float gap
        # below 1e-6
        rng = np.random.default_rng(3)
        for _ in range(500):
            a, b = int(rng.integers(1, 1000)), int(rng.integers(1, 1000))
            x0, y0 = int(rng.integers(0, 10**6)), int(rng.integers(0, 10**6))
            r = int(rng.integers(1, 10**6))
            d = int(math.isqrt(a * a + b * b) ** 2)
            # build an exactly tangent pair from a Pythagorean-compatible offset
            m, n = int(rng.integers(2, 40)), int(rng.integers(1, 2))
            dx, dy, dz = m * m - n * n, 2 * m * n, m * m + n * n
            xi = C(x0, y0, r)
            yi = C(x0 + dx, y0 + dy, r + dz)
            assert is_exact_tangent_int(xi, yi)
            xf = C(float(x0), float(y0), float(r))
            yf = C(float(x0 + dx), float(y0 + dy), float(r + dz))
            assert delta_gap(xf, yf) < 1e-6


class TestNearTangent:
    def test_default_tolerance_scales(self):
        from tangencylab.geometry import is_near_tangent

        x, y = C(0.0, 0.0, 1.0), C(1.0 + 1e-12, 0.0, 2.0)
        assert is_near_tangent(x, y)
        assert not is_near_tangent(x, C(1.01, 0.0, 2.0))
        # at scale 1000 the same relative perturbation still counts
        assert is_near_tangent(
            C(0.0, 0.0, 1000.0), C(1000.0 + 1e-9, 0.0, 2000.0), scale=1000.0
        )


class TestPlankAxes:
    def test_axes_at_zero(self):
        f = plank_axes(0.0)
        np.testing.assert_allclose(f.axis_a, [1 / SQRT2, 0, 1 / SQRT2], atol=1e-15)
        np.testing.assert_allclose(f.axis_b, [0, 1, 0], atol=1e-15)
        np.testing.assert_allclose(f.axis_c, [-1 / SQRT2, 0, 1 / SQRT2], atol=1e-15)

    def test_axes_at_half_pi(self):
        f = plank_axes(math.pi / 2)
        np.testing.assert_allclose(f.axis_a, [0, 1 / SQRT2, 1 / SQRT2], atol=1e-15)
        np.testing.assert_allclose(f.axis_b, [-1, 0, 0], atol=1e-15)
        np.testing.assert_allclose(f.axis_c, [0, -1 / SQRT2, 1 / SQRT2], atol=1e-15)

    def test_orthonormality_bulk(self):
        rng = np.random.default_rng(1)
        for theta in rng.uniform(-math.pi, math.pi, 1000):
            m = plank_axes(theta).matrix()
            np.testing.assert_allclose(m @ m.T, np.eye(3), atol=1e-12)


def _random_plank(rng) -> Lightplank:
    theta = rng.uniform(-math.pi, math.pi)
    v = rng.uniform(-5, 5, 3)
    A = rng.uniform(0.1, 2.0)
    B = rng.uniform(A, 20.0)
    return Lightplank(frame=plank_axes(theta), v=v, A=A, B=B)


class TestPlankContains:
    def test_center_inside(self):
        rng = np.random.default_rng(0)
        P = _random_plank(rng)
        assert plank_contains(P, P.v, K=1.0)

    def test_just_outside_short_axis(self):
        P = Lightplank(frame=plank_axes(0.3), v=np.zeros(3), A=1.0, B=16.0)
        for K in (1.0, 2.0, 5.0):
            x = P.v + (K * P.A / 2 + 1e-6) * P.frame.axis_a
            assert not plank_contains(P, x, K=K)

    def test_agreement_with_transform_oracle(self):
        # membership must match an independent explicit coordinate transform
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            P = _random_plank(rng)
            x = P.v + rng.uniform(-1.5, 1.5, 3) * P.half_widths() @ P.frame.matrix()
            K = rng.uniform(1.0, 3.0)
            coords = np.linalg.solve(P.frame.matrix().T, x - P.v)
            expected = bool(np.all(np.abs(coords) <= K * P.half_widths() + 0.0))
            got = plank_contains(P, x, K=K)
            if abs(np.abs(coords) - K * P.half_widths()).min() > 1e-9:
                assert got == expected

    def test_dilation_monotonicity(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            P = _random_plank(rng)
            x = P.v + rng.uniform(-2, 2, 3) * P.half_widths() @ P.frame.matrix()
            K1 = rng.uniform(1.0, 2.0)
            K2 = K1 + rng.uniform(0.0, 2.0)
            if plank_contains(P, x, K=K1):
                assert plank_contains(P, x, K=K2)


class TestPlankComparable:
    def test_self_comparable(self):
        P = _random_plank(np.random.default_rng(5))
        assert plank_comparable(P, P, K=1.0)

    def test_far_translate_incomparable(self):
        rng = np.random.default_rng(6)
        P = _random_plank(rng)
        for K in (1.0, 2.0, 4.0):
            Q = Lightplank(
                frame=P.frame, v=P.v + 10.0 * K * P.B * P.frame.axis_c, A=P.A, B=P.B
            )
            assert not plank_comparable(P, Q, K=K)

    def test_agreement_with_sampling_oracle(self):
        # containment decided by corners must agree with a point-sampling
        # oracle whose samples include the corners
        rng = np.random.default_rng(8)
        for _ in range(1000):
            P = _random_plank(rng)
            if rng.random() < 0.5:
                Q = Lightplank(
                    frame=plank_axes(wrap_angle(P.frame.theta + rng.normal(0, 0.02))),
                    v=P.v + rng.normal(0, 0.1, 3),
                    A=P.A, B=P.B,
                )
            else:
                Q = _random_plank(rng)
            K = rng.uniform(1.0, 3.0)
            samples = np.vstack([
                plank_corners(Q),
                Q.v + (rng.uniform(-1, 1, (992, 3)) * Q.half_widths()) @ Q.frame.matrix(),
            ])
            coords = np.abs((samples - P.v) @ P.frame.matrix().T)
            oracle_q_in_p = bool(np.all(coords <= K * P.half_widths() + 1e-12))
            assert plank_contained_in_dilation(Q, P, K) == oracle_q_in_p

    def test_reflexive_and_symmetric(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            P, Q = _random_plank(rng), _random_plank(rng)
            assert plank_comparable(P, P, K=1.0)
            assert plank_comparable(P, Q, K=2.0) == plank_comparable(Q, P, K=2.0)

    def test_rotation_preserves_comparability(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            P, Q = _random_plank(rng), _random_plank(rng)
            phi = rng.uniform(0, 2 * math.pi)
            assert plank_comparable(P, Q, K=2.0) == plank_comparable(
                rotate_plank_z(P, phi), rotate_plank_z(Q, phi), K=2.0
            )


_DILATIONS = (1.0, 1.5, 2.0, 3.0, 3.5)


@st.composite
def _boundary_plank_pairs(draw):
    """Two planks of equal dimensions and a K probing Q in the K-dilation of P.

    Returns (P, Q, K, face) where face is None for a free offset, else
    (all windows nonnegative, step) for an offset that puts Q's extreme corner
    on P's K-dilation face along one axis, step slacks outward (-10, 0, 10).
    """
    K = draw(st.sampled_from(_DILATIONS))
    theta = draw(st.one_of(
        st.floats(-math.pi, math.pi, exclude_max=True),
        st.sampled_from([-math.pi, -math.pi + 1e-3, math.pi - 1e-3, math.pi - 1e-12]),
    ))
    if draw(st.booleans()):
        # lattice dimensions at _comparability_window's last feasible gap,
        # or the first infeasible one after it
        S = draw(st.integers(1, 300))
        A, B = 1.0, float(S)
        T = int(math.ceil(2.0 * math.pi * math.sqrt(S)))
        step = 2.0 * math.pi / T
        m = _comparability_window(step, T, np.array([A, math.sqrt(A * B), B]) / 2.0, K)
        gap = draw(st.sampled_from([m + 1, m])) * step * draw(st.sampled_from([1, -1]))
    else:
        side = st.floats(1e-2, 1e2)
        A, B = sorted([draw(side), draw(side)], reverse=draw(st.booleans()))  # A < B and A > B
        gap = draw(st.one_of(
            st.floats(-2.0 * math.pi, 2.0 * math.pi),  # wraps past +-pi
            st.sampled_from([math.pi, -math.pi, math.pi - 1e-9, 2.0 * math.pi - 1e-3]),
        ))
    P = Lightplank(frame=plank_axes(wrap_angle(theta)), v=np.array([1.0, -2.0, 3.0]), A=A, B=B)
    Q_frame = plank_axes(wrap_angle(theta + gap))
    hw = P.half_widths()
    # geometric window of Q in P from the frames themselves, without slack
    w = K * hw - np.abs(P.frame.matrix() @ Q_frame.matrix().T) @ hw
    slack = containment_slack(K * hw)
    if draw(st.booleans()):
        offset = np.array([draw(st.floats(-1.5, 1.5)) for _ in range(3)]) * K * hw
        face = None
    else:
        axis = draw(st.integers(0, 2))
        step = draw(st.sampled_from([-10, 0, 10]))
        offset = np.array([draw(st.floats(0.0, 0.9)) for _ in range(3)]) * np.maximum(w, 0.0)
        offset[axis] = w[axis] + step * slack[axis]
        assume(offset[axis] >= 0.0)
        offset *= [draw(st.sampled_from([1, -1])) for _ in range(3)]
        face = (bool(np.all(w >= 0)), step)
    Q = Lightplank(frame=Q_frame, v=P.v + offset @ P.frame.matrix(), A=A, B=B)
    # keep clear of the rounding band around the slack-widened window, where
    # any two evaluations of the same comparison may differ
    for inner, outer in ((Q, P), (P, Q)):
        U = outer.frame.matrix()
        margin = np.abs((inner.v - outer.v) @ U.T) - (w + slack)
        assume(np.all(np.abs(margin) > 1e-12 * (1.0 + K * hw)))
    return P, Q, K, face


class TestContainmentKernel:
    @given(_boundary_plank_pairs())
    @settings(max_examples=400, deadline=None)
    def test_matches_corner_oracle(self, case):
        P, Q, K, face = case
        inside, holds = mutual_containment(
            Q.frame.theta, Q.v, Q.frame.matrix(),
            np.array([P.frame.theta]), P.v[None], P.frame.matrix()[None], P.half_widths(), K,
        )
        assert bool(inside[0]) == plank_contained_in_dilation(Q, P, K)
        assert bool(holds[0]) == plank_contained_in_dilation(P, Q, K)
        if face is not None and face[0]:
            # on the face or inside it is contained; 10 slacks out it is not
            assert bool(inside[0]) == (face[1] <= 0)

    def test_mixed_matrix_is_frame_product(self):
        rng = np.random.default_rng(12)
        for t, g in rng.uniform(-2 * math.pi, 2 * math.pi, (2000, 2)):
            U, V = plank_axes(wrap_angle(t)).matrix(), plank_axes(wrap_angle(t + g)).matrix()
            M = mixed_abs_matrix(g)
            np.testing.assert_allclose(M, np.abs(U @ V.T), atol=1e-14)
            np.testing.assert_array_equal(M, M.T)
            np.testing.assert_array_equal(M, mixed_abs_matrix(-g))

    def test_point_is_zero_width_plank(self):
        # a point's window is the dilation K hw itself, widened by the slack
        rng = np.random.default_rng(13)
        for _ in range(200):
            P = _random_plank(rng)
            K = rng.uniform(1.0, 3.0)
            hw = P.half_widths()
            window = containment_window(rng.uniform(-4, 4), hw, K, inner_hw=np.zeros(3))
            np.testing.assert_array_equal(window, K * hw + containment_slack(K * hw))
            np.testing.assert_array_equal(window, point_window(hw, K))
            x = P.v + (rng.uniform(-1.2, 1.2, 3) * K * hw) @ P.frame.matrix()
            coords = np.abs((x - P.v) @ P.frame.matrix().T)
            if np.all(np.abs(coords - K * hw) > 1e-9):
                assert bool(np.all(coords <= window)) == plank_contains(P, x, K)


class TestGapLimit:
    @pytest.mark.parametrize("K", [1.0, 2.0, 3.5])
    @pytest.mark.parametrize("A,B", [(0.02, 1.0), (0.02, 0.04), (1.0, 0.02), (0.3, 0.2)],
                             ids=["pair", "pair-short", "rect", "rect-short"])
    def test_comparable_pairs_are_within_the_limit(self, A, B, K):
        # A <= B is the pair plank's shape, A > B the lifted rectangle's
        rng = np.random.default_rng(int(1000 * (A + B + K)))
        hw = Lightplank(plank_axes(0.0), np.zeros(3), A, B).half_widths()
        g = comparability_gap_limit(hw, K)
        comparable = 0
        for _ in range(400):
            t = rng.uniform(-math.pi, math.pi)
            # gaps from far below the limit to past it, centres from nearly
            # equal to a full dilation apart
            gap = rng.choice([-1.0, 1.0]) * min(1.3 * g, math.pi) * 10.0 ** rng.uniform(-10, 0)
            P = Lightplank(plank_axes(t), np.array([0.1, 0.2, 1.5]), A, B)
            offset = rng.uniform(-1.0, 1.0, 3) * K * hw * 10.0 ** rng.uniform(-12, 0)
            Q = Lightplank(plank_axes(wrap_angle(t + gap)), P.v + offset @ P.frame.matrix(), A, B)
            if plank_comparable(P, Q, K):
                comparable += 1
                assert abs(wrap_angle(Q.frame.theta - t)) <= g
        assert comparable > 40

    def test_equal_sides_reach_every_gap(self):
        assert comparability_gap_limit(np.array([0.5, 0.5, 0.5]), 1.0) == math.pi
        assert comparability_gap_limit(np.array([0.01, 0.1, 1.0]), 2.0) < 0.3


class TestAnnulusContainsRect:
    def test_thin_rect_on_circle(self):
        x = C(0.0, 0.0, 1.0)
        rect = Rect2(center=(1.0, 0.0), angle=math.pi / 2, width=1e-4, length=1e-2)
        assert annulus_contains_rect(x, rect, 1e-2)

    def test_rect_over_center(self):
        x = C(0.0, 0.0, 1.0)
        rect = Rect2(center=(0.0, 0.0), angle=0.0, width=0.01, length=0.02)
        for delta in (0.001, 0.01, 0.05):
            assert not annulus_contains_rect(x, rect, delta)

    def test_agreement_with_sampling_oracle(self):
        # oracle: corners, the nearest point, and dense random interior points
        rng = np.random.default_rng(12)
        agree = 0
        for _ in range(10_000):
            x = C(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(1, 2))
            width = rng.uniform(1e-4, 0.05)
            rect = Rect2(
                center=(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
                angle=rng.uniform(0, math.pi),
                width=width,
                length=width + rng.uniform(0, 0.3),
            )
            delta = rng.uniform(1e-3, 0.05)
            thick = 10 * delta
            cx = np.array(x.center)
            u_long, u_short = rect_axes(rect)
            rel = cx - np.array(rect.center)
            clamped = (
                np.array(rect.center)
                + np.clip(rel @ u_long, -rect.length / 2, rect.length / 2) * u_long
                + np.clip(rel @ u_short, -rect.width / 2, rect.width / 2) * u_short
            )
            pts = np.vstack([
                rect_corners(rect),
                clamped,
                np.array(rect.center)
                + rng.uniform(-1, 1, (300, 1)) * (rect.length / 2) * u_long
                + rng.uniform(-1, 1, (300, 1)) * (rect.width / 2) * u_short,
            ])
            dists = np.linalg.norm(pts - cx, axis=1)
            oracle = bool(np.all(np.abs(dists - x.radius) < thick))
            if abs(dists.max() - (x.radius + thick)) < 1e-9 or abs(dists.min() - (x.radius - thick)) < 1e-9:
                continue  # boundary tie, either answer defensible
            assert annulus_contains_rect(x, rect, delta) == oracle
            agree += 1
        assert agree > 9000


class TestTangencyRect:
    def test_reference_pair(self):
        rect = tangency_rect(C(0.0, 0.0, 1.0), C(1.0, 0.0, 2.0), 0.01)
        assert rect.center == pytest.approx((-1.0, 0.0))
        assert rect.angle == pytest.approx(math.pi / 2)
        assert rect.width == pytest.approx(0.02)
        assert rect.length == pytest.approx(2 * math.sqrt(0.01))

    def test_concentric_error(self):
        with pytest.raises(ConcentricError):
            tangency_rect(C(0.0, 0.0, 1.0), C(0.0, 0.0, 1.5), 0.6)

    def test_not_near_tangent_error(self):
        with pytest.raises(NotNearTangentError):
            tangency_rect(C(0.0, 0.0, 1.0), C(0.1, 0.0, 1.5), 0.01)

    def test_postcondition_both_annuli(self):
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 1000:
            x = C(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(1, 2))
            d = rng.uniform(0.05, 0.9)
            ang = rng.uniform(0, 2 * math.pi)
            delta = rng.uniform(1e-3, 0.02)
            r2 = x.radius + d + rng.uniform(-0.5, 0.5) * delta
            if r2 <= 0:
                continue
            y = C(x.center[0] + d * math.cos(ang), x.center[1] + d * math.sin(ang), r2)
            if delta_gap(x, y) >= delta:
                continue
            rect = tangency_rect(x, y, delta)
            assert annulus_contains_rect(x, rect, delta)
            assert annulus_contains_rect(y, rect, delta)
            checked += 1

    def test_equal_radius_tie_break_deterministic(self):
        a, b = C(0.0, 0.0, 1.0), C(1e-4, 0.0, 1.0)
        r1 = tangency_rect(a, b, 0.01)
        r2 = tangency_rect(b, a, 0.01)
        assert r1 == r2


class TestRectHelpers:
    @given(st.floats(-10, 10), st.floats(-10, 10))
    @settings(max_examples=200, deadline=None)
    def test_point_rect_distance_nonnegative(self, px, py):
        rect = Rect2(center=(0.0, 0.0), angle=0.5, width=0.2, length=1.0)
        d = point_rect_distance((px, py), rect)
        assert d >= 0.0
        corners = rect_corners(rect)
        assert d <= np.linalg.norm(corners - np.array([px, py]), axis=1).min() + 1e-12

    def test_rect_invariants(self):
        with pytest.raises(ValueError):
            Rect2(center=(0, 0), angle=0.0, width=1.0, length=0.5)
        with pytest.raises(ValueError):
            Rect2(center=(0, 0), angle=-0.1, width=0.1, length=0.5)

    def test_wrap_angle(self):
        assert wrap_angle(math.pi) == pytest.approx(-math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(-math.pi)
        assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
