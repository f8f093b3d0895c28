"""Interpolant schedules, pairwise velocity targets, and guidance algebra.

Samples are plain float numpy arrays; an array's own shape plays the role of
the (values, shape) pair, so every operation here is a pure function of
ndarrays and scalars. Time arguments may be scalars or per-sample vectors
broadcast against a leading batch axis.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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
    """Triple (alpha, beta, g) with matching closed-form derivatives.

    Constraints: alpha(0)=1, beta(1)=1, g(0)=g(1)=0. Use the factory
    functions below; they validate the endpoint constraints and check the
    supplied derivatives against central finite differences so a function
    and its derivative cannot drift apart.
    """

    alpha: Callable[[float], float]
    beta: Callable[[float], float]
    g: Callable[[float], float]
    alpha_dot: Callable[[float], float]
    beta_dot: Callable[[float], float]
    g_dot: Callable[[float], float]
    name: str = "custom"


@dataclass(frozen=True)
class RectifiedSchedule:
    """Rectifying time warp phi(t) = t^2 with noise amplitude sigma >= 0."""

    sigma: float = 0.0

    def __post_init__(self):
        if self.sigma < 0:
            raise DomainError(f"sigma must be nonnegative, got {self.sigma}")

    @staticmethod
    def phi(t):
        return np.asarray(t, dtype=np.float64) ** 2

    @staticmethod
    def phi_dot(t):
        return 2.0 * np.asarray(t, dtype=np.float64)


def _validate_schedule(sched: PathSchedule) -> PathSchedule:
    for fn, t0, want, label in (
        (sched.alpha, 0.0, 1.0, "alpha(0)"),
        (sched.beta, 1.0, 1.0, "beta(1)"),
        (sched.g, 0.0, 0.0, "g(0)"),
        (sched.g, 1.0, 0.0, "g(1)"),
    ):
        got = float(fn(t0))
        if abs(got - want) > 1e-12:
            raise DomainError(f"schedule endpoint violated: {label}={got}, expected {want}")
    # Derivatives must agree with central differences of their functions.
    h = 1e-6
    ts = np.linspace(h, 1.0 - h, 100)
    for fn, dfn, label in (
        (sched.alpha, sched.alpha_dot, "alpha"),
        (sched.beta, sched.beta_dot, "beta"),
        (sched.g, sched.g_dot, "g"),
    ):
        for t in ts:
            fd = (float(fn(t + h)) - float(fn(t - h))) / (2 * h)
            an = float(dfn(t))
            if abs(an - fd) > 1e-5 * max(1.0, abs(fd)):
                raise DomainError(
                    f"schedule derivative mismatch for {label} at t={t}: "
                    f"analytic {an} vs finite difference {fd}"
                )
    return sched


def linear_schedule() -> PathSchedule:
    """Linear displacement path: alpha=1-t, beta=t, no noise."""
    return _validate_schedule(
        PathSchedule(
            alpha=lambda t: 1.0 - t,
            beta=lambda t: t,
            g=lambda t: 0.0 * t,
            alpha_dot=lambda t: -1.0 + 0.0 * t,
            beta_dot=lambda t: 1.0 + 0.0 * t,
            g_dot=lambda t: 0.0 * t,
            name="linear",
        )
    )


def noisy_linear_schedule(noise_scale: float = 1.0) -> PathSchedule:
    """Linear path with an endpoint-vanishing noise bump g(t) = s*t*(1-t)."""
    s = float(noise_scale)
    return _validate_schedule(
        PathSchedule(
            alpha=lambda t: 1.0 - t,
            beta=lambda t: t,
            g=lambda t: s * t * (1.0 - t),
            alpha_dot=lambda t: -1.0 + 0.0 * t,
            beta_dot=lambda t: 1.0 + 0.0 * t,
            g_dot=lambda t: s * (1.0 - 2.0 * t),
            name="stochastic",
        )
    )


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
    """State on the path: alpha(t)*x0 + beta(t)*x1 + g(t)*xi."""
    x0, x1, xi = _check_same_shape(x0, x1, xi)
    t = _check_t(t)
    a = _time_factor(sched.alpha(t), x0)
    b = _time_factor(sched.beta(t), x0)
    c = _time_factor(sched.g(t), x0)
    return a * x0 + b * x1 + c * xi


def target_velocity(sched: PathSchedule, x0, x1, xi, t):
    """Pairwise regression target: the time derivative of the interpolant."""
    x0, x1, xi = _check_same_shape(x0, x1, xi)
    t = _check_t(t)
    a = _time_factor(sched.alpha_dot(t), x0)
    b = _time_factor(sched.beta_dot(t), x0)
    c = _time_factor(sched.g_dot(t), x0)
    return a * x0 + b * x1 + c * xi


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
    return v_uncond + omega * (v_cond - v_uncond)

