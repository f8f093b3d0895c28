import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fmlab.neural
from fmlab.errors import DivergenceError, DomainError, ShapeError
from fmlab.neural import VelocityModel
from fmlab.sampler import IntegratorConfig, integrate, integrate_from_background
from fmlab.schedules import cfg_combine


def test_config_validation():
    with pytest.raises(DomainError):
        IntegratorConfig(method="rk4")
    with pytest.raises(DomainError):
        IntegratorConfig(steps=0)


def test_constant_field_is_exact_for_euler():
    c = np.array([2.5, -1.25, 0.5])
    x0 = np.array([1.0, 2.0, 3.0])
    for steps in (1, 2, 4, 8, 64):  # dyadic step counts keep the sum exact
        out = integrate(lambda x, t, y: c, x0, None, IntegratorConfig("euler", steps))
        assert np.array_equal(out, x0 + c)
    out = integrate(lambda x, t, y: c, x0, None, IntegratorConfig("euler", 7))
    assert np.allclose(out, x0 + c, rtol=0, atol=1e-12)


def test_linear_field_euler_matches_compounding_oracle():
    # dx/dt = x integrated by Euler is exactly (1 + 1/K)^K scaling.
    k = 100
    factor = 1.0
    for _ in range(k):
        factor *= 1.0 + 1.0 / k
    x0 = np.array([1.0, -2.0])
    out = integrate(lambda x, t, y: x, x0, None, IntegratorConfig("euler", k))
    assert np.allclose(out, factor * x0, rtol=1e-12)
    assert factor == pytest.approx(2.70481, abs=5e-6)


def test_linear_field_heun_approaches_e():
    x0 = np.array([1.0, 3.0])
    out = integrate(lambda x, t, y: x, x0, None, IntegratorConfig("heun", 100))
    assert np.allclose(out, np.e * x0, rtol=1e-3)


def test_convergence_orders():
    # Euler error halves and Heun error quarters when K doubles.
    x0 = np.array([1.0])
    exact = np.e
    for method, expected_ratio, tol in (("euler", 2.0, 0.3), ("heun", 4.0, 0.8)):
        errors = []
        for k in (25, 50, 100, 200):
            out = integrate(lambda x, t, y: x, x0, None, IntegratorConfig(method, k))
            errors.append(abs(out[0] - exact))
        for a, b in zip(errors, errors[1:]):
            assert a / b == pytest.approx(expected_ratio, abs=tol)


def test_determinism_bitwise():
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal(5)
    w = rng.standard_normal((5, 5))
    field = lambda x, t, y: np.tanh(x @ w) + t
    cfg = IntegratorConfig("heun", 37)
    a = integrate(field, x0, None, cfg)
    b = integrate(field, x0, None, cfg)
    assert np.array_equal(a, b)


def test_cfg_omega_one_is_bit_identical_and_skips_null_branch():
    calls = {"null": 0}

    def field(x, t, y):
        if y is None:
            calls["null"] += 1
            return np.zeros_like(x)
        return np.sin(x) + 0.5

    x0 = np.linspace(-1, 1, 4)
    unguided = integrate(field, x0, "cond", IntegratorConfig("euler", 20))
    guided = integrate(field, x0, "cond", IntegratorConfig("euler", 20, cfg_omega=1.0))
    assert np.array_equal(unguided, guided)
    assert calls["null"] == 0


def test_cfg_omega_combines_both_branches():
    def field(x, t, y):
        return np.full_like(x, 1.0 if y is not None else 0.0)

    x0 = np.zeros(3)
    out = integrate(field, x0, "cond", IntegratorConfig("euler", 10, cfg_omega=1.2))
    # Velocity is constant 0 + 1.2*(1-0) = 1.2 throughout.
    assert np.allclose(out, 1.2)


def test_divergence_guard_names_step():
    field = lambda x, t, y: 1e3 * x
    with pytest.raises(DivergenceError) as err:
        integrate(field, np.ones(2), None, IntegratorConfig("euler", 8))
    assert err.value.step >= 0
    assert str(err.value.step) in str(err.value)


def test_non_finite_start_rejected():
    with pytest.raises(DomainError):
        integrate(lambda x, t, y: x, np.array([np.nan]), None, IntegratorConfig())


def test_velocity_shape_mismatch_detected():
    field = lambda x, t, y: np.zeros(3)
    with pytest.raises(ShapeError):
        integrate(field, np.zeros(2), None, IntegratorConfig("euler", 2))


def test_zero_velocity_model_returns_background():
    model = VelocityModel(data_dim=16, mask_shape=(4, 4), width=8, seed=0)
    background = np.random.default_rng(1).uniform(0, 1, 16)
    mask = np.zeros((4, 4), dtype=np.uint8)
    mask[2, 1] = 1
    out = integrate_from_background(model, background, mask, IntegratorConfig("euler", 5))
    assert np.array_equal(out, background)  # zero-initialized output layer


def test_background_shape_checks():
    model = VelocityModel(data_dim=16, mask_shape=(4, 4), width=8, seed=0)
    with pytest.raises(ShapeError):
        integrate_from_background(model, np.zeros(9), np.zeros((4, 4)), IntegratorConfig())
    with pytest.raises(ShapeError):
        integrate_from_background(model, np.zeros(16), np.zeros((3, 3)), IntegratorConfig())


def test_euler_error_shrinks_monotonically_with_k():
    # Linear-in-x toy field: error vs the analytic solution decays ~ 1/K.
    x0 = np.array([0.5, -0.25])
    exact = np.e * x0
    errors = []
    for k in (1, 2, 4, 8, 16, 32, 64):
        out = integrate(lambda x, t, y: x, x0, None, IntegratorConfig("euler", k))
        errors.append(np.max(np.abs(out - exact)))
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] < errors[0] / 10


def test_trajectory_independent_of_y_for_unconditional_field():
    field = lambda x, t, y: -x
    x0 = np.ones(3)
    a = integrate(field, x0, None, IntegratorConfig("heun", 16))
    b = integrate(field, x0, 5, IntegratorConfig("heun", 16))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("method", ["euler", "heun"])
def test_batched_injection_matches_per_row_solves(method):
    # Random weights, so the velocity depends on every row's background and mask.
    model = VelocityModel(data_dim=16, mask_shape=(4, 4), width=8, seed=0)
    rng = np.random.default_rng(2)
    model.set_params(rng.normal(0.0, 0.5, model.get_params().shape))
    backgrounds = rng.uniform(0.0, 1.0, (7, 16))
    masks = (rng.random((7, 4, 4)) < 0.3).astype(np.uint8)
    cfg = IntegratorConfig(method, 6)
    batched = integrate_from_background(model, backgrounds, masks, cfg)
    assert not np.allclose(batched, backgrounds)
    for row, (bg, m) in enumerate(zip(backgrounds, masks)):
        single = integrate_from_background(model, bg, m, cfg)
        assert np.max(np.abs(batched[row] - single)) <= 1e-12


# -- bound solves ------------------------------------------------------------------


def _two_call_integrate(model, x0, y, config):
    """Reference solve: forward(x, t, y) per evaluation, plus a second
    forward(x, t, None) for the null branch when guided."""
    x = np.asarray(x0, dtype=np.float64).copy()
    omega = config.cfg_omega

    def velocity(state, t):
        vc = model.forward(state, t, y)
        if omega is None or omega == 1.0:
            return vc
        return cfg_combine(vc, model.forward(state, t, None), omega)

    k = config.steps
    h = 1.0 / k
    for step in range(k):
        v0 = velocity(x, step / k)
        if config.method == "euler":
            x = x + h * v0
        else:
            v1 = velocity(x + h * v0, (step + 1) / k)
            x = x + 0.5 * h * (v0 + v1)
    return x


def _random_model(mode, seed=0):
    """A 4x4 model with random weights everywhere, so every input matters."""
    kind = dict(num_classes=3) if mode == "class_conditional" else dict(mask_shape=(4, 4))
    model = VelocityModel(data_dim=16, width=8, hidden_layers=3, seed=seed, **kind)
    model.set_params(np.random.default_rng(seed + 1).normal(0.0, 0.5, model.n_params))
    return model


def _conditions(mode, rng, batch):
    if mode == "class_conditional":
        return rng.integers(0, 4, batch)  # label 3 is the null token
    return (rng.random((batch, 4, 4)) < 0.3).astype(np.uint8)


@pytest.mark.parametrize("omega", [None, 1.0, 1.2])
@pytest.mark.parametrize("method", ["euler", "heun"])
@pytest.mark.parametrize("mode", ["class_conditional", "mask_conditional"])
def test_bound_solve_matches_two_call_solve(mode, method, omega):
    model = _random_model(mode)
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal((5, 16))
    cfg = IntegratorConfig(method, 7, cfg_omega=omega)
    # Per-row conditions, the null condition, and one condition for every row.
    for y in (_conditions(mode, rng, 5), None, _conditions(mode, rng, 1)[0]):
        bound = integrate(model, x0, y, cfg)
        assert np.max(np.abs(bound - _two_call_integrate(model, x0, y, cfg))) <= 1e-12
    # A single sample (D,) under a single label or mask.
    y1 = _conditions(mode, rng, 1)[0]
    single = integrate(model, x0[0], y1, cfg)
    assert single.shape == (16,)
    assert np.max(np.abs(single - _two_call_integrate(model, x0[0], y1, cfg))) <= 1e-12


@pytest.mark.parametrize("mode", ["class_conditional", "mask_conditional"])
def test_bound_solve_with_omega_one_is_bit_identical_to_unguided(mode):
    model = _random_model(mode)
    rng = np.random.default_rng(4)
    x0, y = rng.standard_normal((6, 16)), _conditions(mode, rng, 6)
    for method in ("euler", "heun"):
        unguided = integrate(model, x0, y, IntegratorConfig(method, 9))
        guided = integrate(model, x0, y, IntegratorConfig(method, 9, cfg_omega=1.0))
        assert np.array_equal(unguided, guided)


@pytest.mark.parametrize("mode", ["class_conditional", "mask_conditional"])
def test_guided_euler_solve_makes_one_call_per_step_on_the_shared_rows(mode, monkeypatch):
    model = _random_model(mode)
    calls = []
    original = VelocityModel._forward_batch

    def counting(self, x, t, cond, **kwargs):
        out, cache = original(self, x, t, cond, **kwargs)
        calls.append((x.shape[0], kwargs.get("omega"), out.shape[0]))
        return out, cache

    monkeypatch.setattr(VelocityModel, "_forward_batch", counting)
    monkeypatch.setattr(VelocityModel, "forward", None)  # a solve never calls it
    rng = np.random.default_rng(5)
    out = integrate(model, rng.standard_normal((5, 16)), _conditions(mode, rng, 5), IntegratorConfig("euler", 11, 1.2))
    assert out.shape == (5, 16)
    assert calls == [(5, 1.2, 5)] * 11
    calls.clear()
    integrate(model, rng.standard_normal((5, 16)), _conditions(mode, rng, 5), IntegratorConfig("euler", 11))
    assert calls == [(5, None, 5)] * 11


@pytest.mark.parametrize("mode", ["class_conditional", "mask_conditional"])
def test_a_guided_forward_combines_its_hidden_halves_with_cfg_combine(mode, monkeypatch):
    model = _random_model(mode)
    rng = np.random.default_rng(10)
    x, y = rng.standard_normal((4, 16)), _conditions(mode, rng, 4)
    want = model.bind(y, 1.2, 4)(x, 0.5)
    omegas = []
    monkeypatch.setattr(fmlab.neural, "cfg_combine", lambda c, u, w: omegas.append(w) or cfg_combine(c, u, w))
    assert np.array_equal(model.bind(y, 1.2, 4)(x, 0.5), want)
    assert omegas == [1.2]


@pytest.mark.parametrize("batch", [1, 7, 256])
@pytest.mark.parametrize("method", ["euler", "heun"])
@pytest.mark.parametrize("mode", ["class_conditional", "mask_conditional"])
def test_guided_solve_of_a_bench_sized_model_matches_two_call_solve(mode, method, batch):
    # The 16x16 shape, width and depth the benchmark's models have.
    kind = dict(num_classes=4) if mode == "class_conditional" else dict(mask_shape=(16, 16))
    model = VelocityModel(data_dim=256, width=128, hidden_layers=2, seed=6, **kind)
    model.set_params(np.random.default_rng(7).normal(0.0, 0.1, model.n_params))
    rng = np.random.default_rng(8)
    x0 = rng.standard_normal((batch, 256))
    if mode == "class_conditional":
        y = rng.integers(0, 5, batch)
    else:
        y = (rng.random((batch, 16, 16)) < 0.3).astype(np.uint8)
    cfg = IntegratorConfig(method, 4, cfg_omega=1.2)
    bound = integrate(model, x0, y, cfg)
    assert np.max(np.abs(bound - _two_call_integrate(model, x0, y, cfg))) <= 1e-12


@pytest.mark.parametrize("mode", ["class_conditional", "mask_conditional"])
def test_bind_with_omega_one_or_none_is_the_unguided_path(mode, monkeypatch):
    model = _random_model(mode)
    rng = np.random.default_rng(9)
    x, y = rng.standard_normal((6, 16)), _conditions(mode, rng, 6)
    omegas = []
    original = VelocityModel._forward_batch

    def recording(self, *args, **kwargs):
        omegas.append(kwargs.get("omega"))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(VelocityModel, "_forward_batch", recording)
    unguided = model.bind(y, None, 6)(x, 0.25)
    assert np.array_equal(model.bind(y, 1.0, 6)(x, 0.25), unguided)
    assert omegas == [None, None]
    assert np.max(np.abs(unguided - model.forward(x, 0.25, y))) <= 1e-12


def _error_of(call):
    with pytest.raises((ShapeError, DomainError)) as err:
        call()
    return type(err.value), str(err.value)


@pytest.mark.parametrize("omega", [None, 1.2])
def test_bind_raises_what_forward_raises(omega):
    cls_model, mask_model = _random_model("class_conditional"), _random_model("mask_conditional")
    x = np.zeros((3, 16))
    cases = [
        (cls_model, np.zeros((3, 9)), np.zeros(3, dtype=int)),  # wrong x width
        (cls_model, np.zeros(15), 0),  # wrong single-sample width
        (cls_model, x, np.zeros(4, dtype=int)),  # one label too many
        (cls_model, x, np.array([0, 1, 4])),  # label past the null token
        (cls_model, x, np.array([0, -1, 1])),  # negative label
        (mask_model, np.zeros((3, 12)), np.zeros((3, 4, 4))),  # wrong x width
        (mask_model, x, np.zeros((3, 3, 3))),  # wrong mask size
        (mask_model, x, np.zeros((2, 4, 4))),  # one mask too few
    ]
    for model, xb, y in cases:
        expected = _error_of(lambda: model.forward(xb, 0.5, y))
        batch = 1 if xb.ndim == 1 else len(xb)
        assert _error_of(lambda: model.bind(y, omega, batch)(xb, 0.5)) == expected


# Random models of either kind, of any depth and width, with random weights
# everywhere: 2x3 masks or 3 labels plus the null token, 6 data dims.
_BOUND_DRAWS = dict(
    mode=st.sampled_from(["class_conditional", "mask_conditional"]),
    batch=st.integers(1, 9),
    width=st.integers(1, 16),
    hidden_layers=st.integers(1, 3),
    omega=st.floats(0.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
)


def _drawn(mode, batch, width, hidden_layers, seed):
    """A drawn model, start rows x0 and per-row conditions."""
    kind = dict(num_classes=3) if mode == "class_conditional" else dict(mask_shape=(2, 3))
    model = VelocityModel(6, width=width, hidden_layers=hidden_layers, time_embed_dim=4, **kind)
    rng = np.random.default_rng(seed)
    model.set_params(rng.normal(0.0, 0.5, model.n_params))
    if mode == "class_conditional":
        y = rng.integers(0, 4, batch)
    else:
        y = (rng.random((batch, 2, 3)) < 0.4).astype(np.uint8)
    return model, rng.standard_normal((batch, 6)), y


def _relative_gap(a, b) -> float:
    return float(np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(b))))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(method=st.sampled_from(["euler", "heun"]), **_BOUND_DRAWS)
def test_guided_bound_solve_of_any_model_matches_two_call_solve(
    method, mode, batch, width, hidden_layers, omega, seed
):
    model, x0, y = _drawn(mode, batch, width, hidden_layers, seed)
    cfg = IntegratorConfig(method, 3, cfg_omega=omega)
    reference = _two_call_integrate(model, x0, y, cfg)
    assert _relative_gap(integrate(model, x0, y, cfg), reference) <= 1e-12


@settings(max_examples=150, deadline=None, derandomize=True)
@given(t=st.floats(0.0, 1.0), **_BOUND_DRAWS)
def test_a_bound_velocity_is_affine_in_the_guidance_weight(
    t, mode, batch, width, hidden_layers, omega, seed
):
    # v(omega) - v(0) = omega * (v(1) - v(0)): v(0) is the null branch and
    # v(1) the conditional one, and omega 1 or None is the unguided call itself.
    model, x, y = _drawn(mode, batch, width, hidden_layers, seed)
    v = {w: model.bind(y, w, batch)(x, t) for w in (None, 0.0, 1.0, omega)}
    assert np.array_equal(v[1.0], v[None])
    assert _relative_gap(v[omega] - v[0.0], omega * (v[None] - v[0.0])) <= 1e-12
