"""Interpolant schedules, pairwise velocity targets, and guidance algebra.

PathSchedule (the linear path plus an optional noise bump) and
RectifiedSchedule (the t^2 bridge) are closed forms; the tests check their
velocities against finite differences. Samples are plain float numpy arrays;
an array's own shape plays the role of the (values, shape) pair, so every
operation here is a pure function of ndarrays and scalars. Time arguments
may be scalars or per-sample vectors broadcast against a leading batch axis.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError

__all__ = [
    "PathSchedule",
    "RectifiedSchedule",
    "linear_schedule",
    "noisy_linear_schedule",
    "rectified_schedule",
    "interpolate",
    "target_velocity",
    "fm_loss",
    "rectified_interpolate",
    "cfg_combine",
]


@dataclass(frozen=True)
class PathSchedule:
    """Linear path with the endpoint-vanishing noise bump s*t*(1-t), where
    s = noise_scale; s = 0 is the plain linear displacement path."""

    noise_scale: float = 0.0


@dataclass(frozen=True)
class RectifiedSchedule:
    """Rectifying time warp phi(t) = t^2 with finite noise amplitude sigma >= 0."""

    sigma: float = 0.0

    def __post_init__(self):
        # Negated, so that a NaN sigma fails the check like an infinite one.
        if not 0.0 <= self.sigma < np.inf:
            raise DomainError(f"sigma must be finite and >= 0, got {self.sigma}")

    @staticmethod
    def phi(t):
        return np.asarray(t, dtype=np.float64) ** 2

    @staticmethod
    def phi_dot(t):
        return 2.0 * np.asarray(t, dtype=np.float64)


def linear_schedule() -> PathSchedule:
    """Linear displacement path: alpha=1-t, beta=t, no noise."""
    return PathSchedule()


def noisy_linear_schedule(noise_scale: float = 1.0) -> PathSchedule:
    """Linear path with an endpoint-vanishing noise bump g(t) = s*t*(1-t)."""
    return PathSchedule(float(noise_scale))


def rectified_schedule(sigma: float = 0.0) -> RectifiedSchedule:
    """Rectifying schedule phi(t)=t^2; sigma scales the bridge noise."""
    return RectifiedSchedule(sigma=float(sigma))


def _check_t(t) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise DomainError(f"t must lie in [0,1], got {t}")
    return t


def _check_same_shape(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    arrays = tuple(np.asarray(a, dtype=np.float64) for a in arrays)
    first = arrays[0].shape
    for a in arrays[1:]:
        if a.shape != first:
            raise ShapeError(f"operand shapes differ: {first} vs {a.shape}")
    return arrays


def _time_factor(value, x: np.ndarray) -> np.ndarray:
    """Broadcast a schedule coefficient against x (append axes for batches)."""
    v = np.asarray(value, dtype=np.float64)
    if v.ndim == 0 or x.ndim == v.ndim:
        return v
    return v.reshape(v.shape + (1,) * (x.ndim - v.ndim))


def interpolate(sched: PathSchedule, x0, x1, xi, t):
    """State on the path: (1-t)*x0 + t*x1 + s*t*(1-t)*xi."""
    x0, x1, xi = _check_same_shape(x0, x1, xi)
    t = _check_t(t)
    c = _time_factor(sched.noise_scale * t * (1.0 - t), x0)
    return _time_factor(1.0 - t, x0) * x0 + _time_factor(t, x0) * x1 + c * xi


def target_velocity(sched: PathSchedule, x0, x1, xi, t):
    """Pairwise regression target, the time derivative of the interpolant:
    x1 - x0 + s*(1-2t)*xi."""
    x0, x1, xi = _check_same_shape(x0, x1, xi)
    t = _check_t(t)
    return x1 - x0 + _time_factor(sched.noise_scale * (1.0 - 2.0 * t), x0) * xi


def fm_loss(predicted, target) -> float:
    """Velocity-matching objective.

    Reduction convention: mean over vector elements and mean over any batch
    axis, i.e. the plain mean of squared differences. (Under a sum-over-
    elements convention the [1,1] vs [0,0] case would read 2; here it is 1.)
    """
    predicted, target = _check_same_shape(predicted, target)
    return float(np.mean((predicted - target) ** 2))


def rectified_interpolate(sched: RectifiedSchedule, x0, x1, eps, t):
    """Rectified bridge state and its target velocity.

    Returns (x_t, u_t) with
      x_t = (1-phi)x0 + phi*x1 + sigma*sqrt(phi(1-phi))*eps,
      u_t = phi'(t)(x1 - x0).
    """
    x0, x1, eps = _check_same_shape(x0, x1, eps)
    t = _check_t(t)
    phi = sched.phi(t)
    p = _time_factor(phi, x0)
    noise_amp = _time_factor(sched.sigma * np.sqrt(phi * (1.0 - phi)), x0)
    x_t = (1.0 - p) * x0 + p * x1 + noise_amp * eps
    u_t = _time_factor(sched.phi_dot(t), x0) * (x1 - x0)
    return x_t, u_t


def cfg_combine(v_cond, v_uncond, omega: float):
    """Guided velocity v_uncond + omega*(v_cond - v_uncond).

    omega == 1 returns the conditional field verbatim (the formula reduces to
    it exactly, and returning it directly keeps guided and unguided
    trajectories bit-identical).
    """
    v_cond, v_uncond = _check_same_shape(v_cond, v_uncond)
    if omega == 1.0:
        return v_cond.copy()
    out = v_cond - v_uncond
    out *= omega
    out += v_uncond
    return out

