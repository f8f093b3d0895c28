import numpy as np
import pytest

from fmlab.errors import DomainError, ShapeError
from fmlab.schedules import (
    cfg_combine,
    fm_loss,
    interpolate,
    linear_schedule,
    noisy_linear_schedule,
    rectified_interpolate,
    rectified_schedule,
    target_velocity,
)

ALL_SCHEDULES = [linear_schedule(), noisy_linear_schedule(1.0), noisy_linear_schedule(0.3)]


def test_interpolate_endpoints_return_inputs_exactly():
    rng = np.random.default_rng(0)
    x0, x1, xi = rng.standard_normal((3, 7))
    for sched in ALL_SCHEDULES:
        assert np.array_equal(interpolate(sched, x0, x1, xi, 0.0), x0)
        assert np.array_equal(interpolate(sched, x0, x1, xi, 1.0), x1)


def test_interpolate_linear_midpoint():
    sched = linear_schedule()
    out = interpolate(sched, np.zeros(1), np.ones(1), np.zeros(1), 0.3)
    assert out[0] == pytest.approx(0.3, abs=1e-15)


def test_interpolate_noise_bump():
    sched = noisy_linear_schedule(1.0)  # g(t) = t(1-t)
    out = interpolate(sched, np.zeros(1), np.zeros(1), np.ones(1), 0.5)
    assert out[0] == pytest.approx(0.25, abs=1e-15)


def test_interpolate_rejects_bad_inputs():
    sched = linear_schedule()
    with pytest.raises(ShapeError):
        interpolate(sched, np.zeros(2), np.zeros(3), np.zeros(2), 0.5)
    with pytest.raises(DomainError):
        interpolate(sched, np.zeros(2), np.zeros(2), np.zeros(2), 1.5)
    with pytest.raises(DomainError):
        interpolate(sched, np.zeros(2), np.zeros(2), np.zeros(2), -0.1)


def test_target_velocity_linear_is_displacement():
    sched = linear_schedule()
    x0 = np.full(3, 2.0)
    x1 = np.full(3, 5.0)
    xi = np.zeros(3)
    for t in (0.0, 0.25, 0.5, 0.99):
        assert np.allclose(target_velocity(sched, x0, x1, xi, t), 3.0)


def test_target_velocity_noise_term_vanishes_at_half():
    sched = noisy_linear_schedule(1.0)  # g_dot(0.5) = 0
    out = target_velocity(sched, np.zeros(1), np.zeros(1), np.ones(1), 0.5)
    assert out[0] == pytest.approx(0.0, abs=1e-15)


def test_target_velocity_equal_endpoints_is_zero():
    sched = linear_schedule()
    x = np.random.default_rng(1).standard_normal(5)
    assert np.allclose(target_velocity(sched, x, x, np.zeros(5), 0.7), 0.0)


def test_velocity_matches_finite_difference_of_interpolant():
    # Central-difference oracle over t, randomized inputs, both path families.
    rng = np.random.default_rng(2)
    h = 1e-5
    for sched in ALL_SCHEDULES:
        for _ in range(50):
            x0, x1, xi = rng.standard_normal((3, 4))
            t = rng.uniform(2 * h, 1 - 2 * h)
            fd = (interpolate(sched, x0, x1, xi, t + h) - interpolate(sched, x0, x1, xi, t - h)) / (
                2 * h
            )
            an = target_velocity(sched, x0, x1, xi, t)
            assert np.allclose(an, fd, rtol=1e-4, atol=1e-7)


def test_fm_loss_zero_iff_equal():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(6)
    assert fm_loss(a, a) == 0.0
    assert fm_loss(a, a + 0.1) > 0.0


def test_fm_loss_mean_convention():
    # Documented reduction: mean over elements (sum convention would give 2).
    assert fm_loss(np.array([1.0, 1.0]), np.array([0.0, 0.0])) == pytest.approx(1.0)


def test_fm_loss_on_exact_target_velocity():
    rng = np.random.default_rng(4)
    sched = noisy_linear_schedule(0.7)
    x0, x1, xi = rng.standard_normal((3, 8))
    for t in rng.uniform(0, 1, 5):
        u = target_velocity(sched, x0, x1, xi, t)
        assert fm_loss(u, u) == 0.0


def test_fm_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        fm_loss(np.zeros(2), np.zeros(3))


def test_rectified_interpolate_at_zero():
    sched = rectified_schedule(0.5)
    rng = np.random.default_rng(5)
    x0, x1, eps = rng.standard_normal((3, 4))
    xt, ut = rectified_interpolate(sched, x0, x1, eps, 0.0)
    assert np.array_equal(xt, x0)
    assert np.allclose(ut, 0.0)


def test_rectified_interpolate_at_one():
    sched = rectified_schedule(2.0)
    rng = np.random.default_rng(6)
    x0, x1, eps = rng.standard_normal((3, 4))
    xt, ut = rectified_interpolate(sched, x0, x1, eps, 1.0)
    assert np.allclose(xt, x1)
    assert np.allclose(ut, 2.0 * (x1 - x0))


def test_rectified_interpolate_midpoint_values():
    sched = rectified_schedule(0.0)
    xt, ut = rectified_interpolate(sched, np.zeros(1), np.ones(1), np.zeros(1), 0.5)
    assert xt[0] == pytest.approx(0.25)  # phi(0.5) = 0.25
    assert ut[0] == pytest.approx(1.0)  # phi'(0.5) = 1


def test_rectified_noise_coefficient_vanishes_at_endpoints():
    sched = rectified_schedule(3.0)
    for t in (0.0, 1.0):
        coeff = sched.sigma * np.sqrt(sched.phi(t) * (1.0 - sched.phi(t)))
        assert coeff == 0.0


def test_rectified_velocity_matches_finite_difference():
    # The noise-free bridge mean must differentiate to phi'(t)(x1-x0).
    sched = rectified_schedule(0.0)
    rng = np.random.default_rng(7)
    h = 1e-5
    for _ in range(50):
        x0, x1 = rng.standard_normal((2, 4))
        z = np.zeros(4)
        t = rng.uniform(2 * h, 1 - 2 * h)
        xp, _ = rectified_interpolate(sched, x0, x1, z, t + h)
        xm, _ = rectified_interpolate(sched, x0, x1, z, t - h)
        _, ut = rectified_interpolate(sched, x0, x1, z, t)
        assert np.allclose((xp - xm) / (2 * h), ut, rtol=1e-4, atol=1e-7)


def test_rectified_schedule_rejects_negative_sigma():
    with pytest.raises(DomainError):
        rectified_schedule(-0.1)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
def test_rectified_schedule_rejects_a_non_finite_sigma(sigma):
    with pytest.raises(DomainError, match="sigma must be finite and >= 0"):
        rectified_schedule(sigma)


def test_cfg_combine_identities():
    rng = np.random.default_rng(8)
    vc, vu = rng.standard_normal((2, 5))
    assert np.array_equal(cfg_combine(vc, vu, 1.0), vc)
    assert np.array_equal(cfg_combine(vc, vu, 0.0), vu)
    # Default guidance scale 1.2.
    assert cfg_combine(np.ones(1), np.zeros(1), 1.2)[0] == pytest.approx(1.2)


def test_cfg_combine_fixed_point_for_all_omegas():
    v = np.random.default_rng(9).standard_normal(4)
    for omega in (-1.0, 0.0, 0.5, 1.0, 1.2, 7.5):
        assert np.allclose(cfg_combine(v, v, omega), v)


def test_cfg_combine_is_affine():
    rng = np.random.default_rng(10)
    a, b, c, d = rng.standard_normal((4, 3))
    omega = 1.7
    lhs = cfg_combine(a + c, b + d, omega)
    rhs = cfg_combine(a, b, omega) + cfg_combine(c, d, omega)
    assert np.allclose(lhs, rhs)


def test_batched_time_broadcasting():
    sched = linear_schedule()
    rng = np.random.default_rng(14)
    x0, x1, xi = rng.standard_normal((3, 6, 4))
    t = rng.random(6)
    out = interpolate(sched, x0, x1, xi, t)
    for i in range(6):
        assert np.allclose(out[i], interpolate(sched, x0[i], x1[i], xi[i], t[i]))
