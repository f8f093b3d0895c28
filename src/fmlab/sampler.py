"""Deterministic integration of dx/dt = v(x, t, y) from t=0 to t=1.

Fixed uniform step grids with left-endpoint Euler or Heun (trapezoidal
predictor-corrector). Velocity sources are either a VelocityModel, bound to
its condition once per solve, or any callable v(x, t, y) -> array. Optional
classifier-free guidance wraps every velocity evaluation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, DomainError, ShapeError
from .schedules import cfg_combine

__all__ = ["IntegratorConfig", "integrate", "integrate_from_background"]

_DIVERGENCE_LIMIT = 1e6


@dataclass(frozen=True)
class IntegratorConfig:
    """method 'euler' or 'heun'; steps >= 1; cfg_omega finite, or None to disable guidance."""

    method: str = "euler"
    steps: int = 50
    cfg_omega: float | None = None

    def __post_init__(self):
        if self.method not in ("euler", "heun"):
            raise DomainError(f"method must be 'euler' or 'heun', got {self.method!r}")
        if self.steps < 1:
            raise DomainError(f"steps must be >= 1, got {self.steps}")
        if self.cfg_omega is not None and not np.isfinite(self.cfg_omega):
            raise DomainError(f"cfg_omega must be finite, got {self.cfg_omega}")


def _guard(x: np.ndarray, step: int) -> None:
    # NaN fails the comparison, so one test also rejects non-finite states.
    if not np.max(np.abs(x)) <= _DIVERGENCE_LIMIT:
        raise DivergenceError(
            f"integration state diverged at step {step} (non-finite or |x| > {_DIVERGENCE_LIMIT:g})",
            step=step,
        )


def _velocity(model, x: np.ndarray, y, omega: float | None):
    """The solve's velocity v(state, t), guided when omega is set and not 1.

    A model with bind (VelocityModel) is bound to y once and evaluates the
    conditional and null rows in one stacked call; a plain callable
    v(x, t, y) is called once per branch, with None as the null condition.
    """
    guided = omega is not None and omega != 1.0
    if hasattr(model, "bind"):
        bound = model.bind(y, guided, 1 if x.ndim == 1 else len(x))
        if not guided:
            return bound
        return lambda state, t: cfg_combine(*bound(state, t), omega)

    def velocity(state, t):
        vc = np.asarray(model(state, t, y), dtype=np.float64)
        if vc.shape != state.shape:
            raise ShapeError(f"velocity shape {vc.shape} does not match state {state.shape}")
        if not guided:
            return vc
        return cfg_combine(vc, np.asarray(model(state, t, None), dtype=np.float64), omega)

    return velocity


def integrate(model, x0, y, config: IntegratorConfig) -> np.ndarray:
    """Solve the flow ODE over K uniform steps and return x(1).

    Euler evaluates velocities at the left endpoints t_k = k/K; Heun adds the
    trapezoidal corrector. With cfg_omega set, every evaluation becomes
    cfg_combine(v(x,t,y), v(x,t,null), omega); omega == 1 short-circuits to
    the conditional field, keeping guided and unguided runs bit-identical.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    if not np.all(np.isfinite(x)):
        raise DomainError("initial state must be finite")
    velocity = _velocity(model, x, y, config.cfg_omega)
    k = config.steps
    h = 1.0 / k
    for step in range(k):
        t = step / k
        v0 = velocity(x, t)
        if config.method == "euler":
            x = x + h * v0
        else:
            x_pred = x + h * v0
            _guard(x_pred, step)
            v1 = velocity(x_pred, (step + 1) / k)
            x = x + 0.5 * h * (v0 + v1)
        _guard(x, step)
    return x


def integrate_from_background(model, background, mask, config: IntegratorConfig) -> np.ndarray:
    """Injection sampling: start the ODE at a background image, not noise.

    The conditioning is the binary mask (encoded per-pixel one-hot by the
    model); numerics are identical to integrate. A VelocityModel's forward
    raises ShapeError for a background or mask of the wrong shape.
    """
    return integrate(model, background, mask, config)
