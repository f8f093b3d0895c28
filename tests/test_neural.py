import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmlab import toys
from fmlab.errors import DomainError, ShapeError, TrainingError
from fmlab.neural import (
    TrainConfig,
    TrainState,
    VelocityModel,
    adam_step,
    ema_update,
    _read_checkpoint,
    init_train_state,
    load_checkpoint,
    save_checkpoint,
    time_embedding,
    train_fm,
    train_rf_injector,
)
from fmlab.sampler import IntegratorConfig, integrate_from_background
from fmlab.schedules import linear_schedule, rectified_schedule


# -- time embedding -----------------------------------------------------------


def test_time_embedding_at_zero():
    emb = time_embedding(0.0, 16)
    assert np.allclose(emb[0::2], 0.0)
    assert np.allclose(emb[1::2], 1.0)


def test_time_embedding_bounded():
    for t in np.linspace(0, 1, 23):
        emb = time_embedding(t, 12)
        assert np.all(emb >= -1.0) and np.all(emb <= 1.0)


def test_time_embedding_scaling_value():
    # s = 1e3 * 0.001 = 1, so the first sine component is sin(1).
    emb = time_embedding(0.001, 8)
    assert emb[0] == pytest.approx(np.sin(1.0), abs=1e-12)


def test_time_embedding_rejects_odd_dim():
    with pytest.raises(DomainError):
        time_embedding(0.5, 7)
    with pytest.raises(DomainError):
        time_embedding(0.5, 0)


def test_time_embedding_injective_on_millisecond_grid():
    ts = np.arange(1000) * 1e-3
    emb = time_embedding(ts, 16)
    assert np.unique(emb, axis=0).shape[0] == 1000


# -- conditioning vector --------------------------------------------------------


def test_conditioning_vector_deterministic():
    model = VelocityModel(data_dim=2, num_classes=3, width=16, time_embed_dim=8, seed=1)
    a = model.conditioning_vector(0.4, 1)
    b = model.conditioning_vector(0.4, 1)
    assert np.array_equal(a, b)


def test_conditioning_vector_ignores_label_when_table_zeroed():
    model = VelocityModel(data_dim=2, num_classes=3, width=16, time_embed_dim=8, seed=1)
    model._p["emb"][:] = 0.0
    assert np.array_equal(model.conditioning_vector(0.3, 0), model.conditioning_vector(0.3, 2))


def test_conditioning_vector_separates_labels_after_init():
    model = VelocityModel(data_dim=2, num_classes=3, width=16, time_embed_dim=8, seed=1)
    assert not np.allclose(model.conditioning_vector(0.3, 0), model.conditioning_vector(0.3, 1))


def test_conditioning_vector_label_range_and_mode():
    model = VelocityModel(data_dim=2, num_classes=3, width=16, time_embed_dim=8, seed=1)
    with pytest.raises(DomainError):
        model.conditioning_vector(0.3, 7)
    mask_model = VelocityModel(data_dim=4, mask_shape=(2, 2), width=8, seed=0)
    with pytest.raises(DomainError):
        mask_model.conditioning_vector(0.3, None)


def test_conditioning_vector_is_the_z_mlp_of_time_and_label_embedding():
    model = VelocityModel(data_dim=2, num_classes=3, width=16, time_embed_dim=8, seed=1)
    p = model._p
    pre = time_embedding(np.array([0.3]), 8) + p["emb"][[2]]
    pre = pre @ p["wz1"] + p["bz1"]
    expected = (pre / (1.0 + np.exp(-pre))) @ p["wz2"] + p["bz2"]
    assert np.allclose(model.conditioning_vector(0.3, 2), expected[0], rtol=0, atol=1e-12)


# -- forward -------------------------------------------------------------------


def random_output(model: VelocityModel, seed: int = 0) -> VelocityModel:
    """Give the zero-initialized output layer He-normal weights through its
    parameter view, so the velocity depends on every parameter."""
    w_out = model._p["w_out"]
    w_out[...] = np.random.default_rng(seed).normal(0.0, np.sqrt(2.0 / w_out.shape[0]), w_out.shape)
    return model


def test_zero_initialized_output_layer_gives_zero_velocity():
    model = VelocityModel(data_dim=5, num_classes=2, width=16, seed=3)
    x = np.random.default_rng(0).uniform(-10, 10, (4, 5))
    out = model.forward(x, 0.3, 1)
    assert np.array_equal(out, np.zeros((4, 5)))


def test_forward_finite_on_wide_inputs():
    model = random_output(VelocityModel(data_dim=6, num_classes=2, width=32, seed=3))
    x = np.random.default_rng(1).uniform(-10, 10, (8, 6))
    out = model.forward(x, 0.9, None)
    assert np.all(np.isfinite(out))


def test_forward_sensitive_to_single_weight():
    model = random_output(VelocityModel(data_dim=3, num_classes=2, width=8, seed=5))
    x = np.random.default_rng(2).standard_normal(3)
    before = model.forward(x, 0.5, 0).copy()
    theta = model.get_params()
    theta[0] += 0.37
    model.set_params(theta)
    after = model.forward(x, 0.5, 0)
    assert not np.array_equal(before, after)


def test_forward_shape_checks():
    model = VelocityModel(data_dim=3, num_classes=2, width=8, seed=5)
    with pytest.raises(ShapeError):
        model.forward(np.zeros(4), 0.5, 0)
    with pytest.raises(DomainError):
        model.forward(np.zeros(3), 0.5, 9)


def test_mask_mode_null_equals_empty_mask():
    model = random_output(VelocityModel(data_dim=4, mask_shape=(2, 2), width=8, seed=2))
    x = np.random.default_rng(3).standard_normal(4)
    a = model.forward(x, 0.2, None)
    b = model.forward(x, 0.2, np.zeros((2, 2)))
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(num_classes=0),
        dict(num_classes=-2),
        dict(mask_shape=(-2, -2)),
        dict(mask_shape=(0, 4)),
        dict(mask_shape=(2, 2, 1)),
        dict(mask_shape=(2,)),
        dict(mask_shape=(2.0, 2)),
    ],
    ids=["no_classes", "negative_classes", "negative_shape", "empty_shape", "3d", "1d", "float"],
)
def test_constructor_rejects_a_bad_conditioning_shape(kwargs):
    with pytest.raises(DomainError):
        VelocityModel(data_dim=4, width=8, seed=0, **kwargs)


def test_mask_shape_alone_makes_a_model_mask_conditional():
    mask_model = VelocityModel(data_dim=4, num_classes=5, mask_shape=(2, 2), width=8, seed=0)
    assert mask_model.num_classes == 0 and "emb" not in mask_model._p
    assert mask_model._p["w_in"].shape == (4 + 2 * 4, 8)
    class_model = VelocityModel(data_dim=4, num_classes=5, width=8, seed=0)
    assert class_model.mask_shape is None and class_model._p["emb"].shape[0] == 6
    assert class_model._p["w_in"].shape == (4, 8)


# -- flat parameter buffer -------------------------------------------------------


def test_named_weights_are_views_of_the_flat_buffer():
    model = VelocityModel(data_dim=3, num_classes=2, width=8, seed=5)
    for name in model._p:
        assert np.shares_memory(model._p[name], model._flat)
        assert np.shares_memory(model._g[name], model._gflat)
    assert model._flat.size == model.n_params


def test_set_params_reaches_forward_and_get_params_copies():
    model = random_output(VelocityModel(data_dim=3, num_classes=2, width=8, seed=5))
    x = np.random.default_rng(4).standard_normal(3)
    theta = model.get_params()
    assert not np.shares_memory(theta, model._flat)
    theta[:] = 0.0
    assert np.any(model.get_params() != 0.0)
    model.set_params(theta)
    assert np.array_equal(model.forward(x, 0.5, 0), np.zeros(3))
    with pytest.raises(ShapeError):
        model.set_params(np.zeros(model.n_params + 1))


def test_a_model_given_params_copies_them_and_ignores_its_seed():
    drawn = random_output(VelocityModel(data_dim=3, num_classes=2, width=8, seed=5))
    theta = drawn.get_params()
    model = VelocityModel(data_dim=3, num_classes=2, width=8, seed=6, params=theta)
    assert model.get_params().tobytes() == theta.tobytes()
    assert not np.shares_memory(model._flat, theta)
    assert all(np.shares_memory(w, model._flat) for w in model._p.values())
    x = np.random.default_rng(4).standard_normal((2, 3))
    assert np.array_equal(model.forward(x, 0.5, [0, 1]), drawn.forward(x, 0.5, [0, 1]))
    with pytest.raises(ShapeError, match=f"expected {theta.size} parameters"):
        VelocityModel(data_dim=3, num_classes=2, width=8, params=theta[:-1])


def test_backward_result_survives_a_later_backward():
    model = random_output(VelocityModel(data_dim=3, num_classes=2, width=8, seed=5))
    first = model.backward(np.ones(3), 0.5, 1, np.ones(3))
    kept = first.copy()
    model.backward(-np.ones(3), 0.1, 0, np.full(3, 2.0))
    assert np.array_equal(first, kept)


# -- backward ------------------------------------------------------------------


def test_backward_zero_grad_out():
    model = random_output(VelocityModel(data_dim=3, num_classes=2, width=8, seed=5))
    g = model.backward(np.ones(3), 0.5, 1, np.zeros(3))
    assert np.array_equal(g, np.zeros(model.n_params))


@pytest.mark.parametrize("hidden_layers", [1, 3])
@pytest.mark.parametrize("mode", ["class_conditional", "mask_conditional"])
def test_backward_matches_finite_differences(mode, hidden_layers):
    # Central finite-difference oracle over every parameter, h = 1e-5.
    kwargs = (
        dict(num_classes=3, data_dim=2)
        if mode == "class_conditional"
        else dict(mask_shape=(3, 3), data_dim=9)
    )
    model = random_output(
        VelocityModel(width=8, hidden_layers=hidden_layers, time_embed_dim=4, seed=5, **kwargs)
    )
    rng = np.random.default_rng(3)
    batch = 4
    x = rng.standard_normal((batch, model.data_dim))
    t = rng.random(batch)
    if mode == "class_conditional":
        y = rng.integers(0, 4, batch)  # includes the null row
    else:
        y = (rng.random((batch, 3, 3)) < 0.4).astype(np.float64)
    probe = rng.standard_normal((batch, model.data_dim))

    analytic = model.backward(x, t, y, probe)
    theta = model.get_params()

    def scalar(params):
        model.set_params(params)
        return float(np.sum(model.forward(x, t, y) * probe))

    h = 1e-5
    for i in range(model.n_params):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        fd = (scalar(up) - scalar(down)) / (2 * h)
        if abs(fd) > 1e-8:
            assert analytic[i] == pytest.approx(fd, rel=1e-4)
        else:
            assert abs(analytic[i] - fd) < 1e-7
    model.set_params(theta)


def test_gradient_of_loss_zero_at_exact_prediction():
    # d/dtheta mean((pred - target)^2) at pred == target has grad_out == 0.
    model = random_output(VelocityModel(data_dim=3, num_classes=2, width=8, seed=7))
    x = np.ones(3)
    pred = model.forward(x, 0.5, 0)
    grad_out = 2.0 * (pred - pred) / pred.size
    g = model.backward(x, 0.5, 0, grad_out)
    assert np.array_equal(g, np.zeros(model.n_params))


def test_backward_shape_check():
    model = VelocityModel(data_dim=3, num_classes=2, width=8, seed=5)
    with pytest.raises(ShapeError):
        model.backward(np.zeros(3), 0.5, 0, np.zeros(4))


# -- adam / ema ------------------------------------------------------------------


def _scalar_state(lr=0.05, ema_decay=0.9) -> TrainState:
    return TrainState(
        params=np.array([1.0]),
        ema_params=np.array([1.0]),
        step=0,
        adam_m=np.zeros(1),
        adam_v=np.zeros(1),
        config=TrainConfig(lr=lr, beta1=0.9, beta2=0.999, eps_adam=1e-8, ema_decay=ema_decay),
    )


def test_adam_zero_gradient_keeps_params():
    state = adam_step(_scalar_state(), np.zeros(1))
    assert np.array_equal(state.params, np.array([1.0]))
    assert state.step == 1


def test_adam_first_step_magnitude_is_lr():
    state = adam_step(_scalar_state(lr=0.05), np.ones(1))
    assert state.params[0] == pytest.approx(1.0 - 0.05, abs=1e-8)


def test_adam_rejects_non_finite_gradients():
    with pytest.raises(TrainingError) as err:
        adam_step(_scalar_state(), np.array([np.nan]))
    assert err.value.step == 1


def test_adam_rejects_wrong_shape():
    with pytest.raises(ShapeError):
        adam_step(_scalar_state(), np.zeros(2))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 50),
    st.floats(1e-5, 1e-1),
    st.floats(0.0, 0.99),
    st.floats(0.9, 0.9999),
)
def test_adam_step_matches_textbook_formula(seed, steps, lr, beta1, beta2):
    rng = np.random.default_rng(seed)
    n = 17
    state = TrainState(
        params=rng.standard_normal(n),
        ema_params=np.zeros(n),
        step=0,
        adam_m=np.zeros(n),
        adam_v=np.zeros(n),
        config=TrainConfig(lr=lr, beta1=beta1, beta2=beta2, eps_adam=1e-8, ema_decay=0.5),
    )
    params, m, v = state.params.copy(), np.zeros(n), np.zeros(n)
    for step in range(1, steps + 1):
        g = rng.standard_normal(n) * 10.0 ** rng.uniform(-4, 2, n)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g**2
        m_hat = m / (1.0 - beta1**step)
        v_hat = v / (1.0 - beta2**step)
        params = params - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert adam_step(state, g) is state
        assert state.step == step
        # Norm-wise relative error: a parameter passing through zero would
        # make an element-wise ratio meaningless.
        for got, want in ((state.params, params), (state.adam_m, m), (state.adam_v, v)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_adam_and_ema_update_arrays_in_place():
    state = _scalar_state()
    params, ema, m, v = state.params, state.ema_params, state.adam_m, state.adam_v
    assert ema_update(adam_step(state, np.ones(1))) is state
    assert state.params is params and state.ema_params is ema
    assert state.adam_m is m and state.adam_v is v
    assert params[0] != 1.0 and m[0] != 0.0 and v[0] != 0.0 and ema[0] != 1.0


def test_ema_decay_zero_copies_params():
    state = _scalar_state(ema_decay=0.0)
    state = adam_step(state, np.ones(1))
    state = ema_update(state)
    assert np.array_equal(state.ema_params, state.params)


def test_ema_simple_step():
    state = TrainState(
        params=np.array([1.0]),
        ema_params=np.array([0.0]),
        step=0,
        adam_m=np.zeros(1),
        adam_v=np.zeros(1),
        config=TrainConfig(lr=0.1, beta1=0.9, beta2=0.999, eps_adam=1e-8, ema_decay=0.9),
    )
    assert ema_update(state).ema_params[0] == pytest.approx(0.1)


def test_ema_geometric_decay_closed_form():
    # Gap to constant params shrinks by d per step: d^10000 ~ e^-1 at d=0.9999.
    state = TrainState(
        params=np.array([1.0]),
        ema_params=np.array([0.0]),
        step=0,
        adam_m=np.zeros(1),
        adam_v=np.zeros(1),
        config=TrainConfig(lr=0.1, beta1=0.9, beta2=0.999, eps_adam=1e-8, ema_decay=0.9999),
    )
    for _ in range(10_000):
        state = ema_update(state)
    gap_ratio = 1.0 - state.ema_params[0]
    assert gap_ratio == pytest.approx(np.exp(-1.0), abs=0.01)


def test_ema_stays_in_history_envelope():
    rng = np.random.default_rng(11)
    model = random_output(VelocityModel(data_dim=2, num_classes=2, width=8, seed=1))
    config = TrainConfig(steps=40, batch_size=8, ema_decay=0.7, seed=2)
    data = toys.two_gaussians(20, seed=3)
    lows = model.get_params().copy()
    highs = model.get_params().copy()
    state = init_train_state(model, config)
    for _ in range(40):
        x1 = data[0][rng.integers(0, len(data[0]), 8)]
        pred, cache = model._forward_batch(x1, rng.random(8), model._prepare_cond(None, 8))
        grads = model._backward_batch(cache, rng.standard_normal(pred.shape) / pred.size)
        state = ema_update(adam_step(state, grads))
        model.set_params(state.params)
        lows = np.minimum(lows, state.params)
        highs = np.maximum(highs, state.params)
        assert np.all(state.ema_params >= lows - 1e-12)
        assert np.all(state.ema_params <= highs + 1e-12)


def test_ema_decay_validation():
    with pytest.raises(DomainError):
        TrainConfig(lr=0.1, beta1=0.9, beta2=0.999, eps_adam=1e-8, ema_decay=1.0)


# -- training loops ----------------------------------------------------------------


def test_train_fm_zero_learning_rate_keeps_params():
    model = random_output(VelocityModel(data_dim=2, num_classes=2, width=8, seed=1))
    before = model.get_params()
    data = toys.two_gaussians(20, seed=3)
    losses = []
    train_fm(
        model,
        data,
        linear_schedule(),
        TrainConfig(steps=30, batch_size=8, lr=0.0, seed=2),
        callback=lambda s, l: losses.append(l),
    )
    assert np.array_equal(model.get_params(), before)
    # Same params and a fixed rng stream: loss depends only on the draws.
    rerun = []
    model2 = random_output(VelocityModel(data_dim=2, num_classes=2, width=8, seed=1))
    train_fm(
        model2,
        data,
        linear_schedule(),
        TrainConfig(steps=30, batch_size=8, lr=0.0, seed=2),
        callback=lambda s, l: rerun.append(l),
    )
    assert losses == rerun


def test_train_fm_deterministic_given_seed():
    data = toys.two_gaussians(30, seed=5)
    results = []
    for _ in range(2):
        model = VelocityModel(data_dim=2, num_classes=2, width=16, seed=4)
        state = train_fm(
            model, data, linear_schedule(), TrainConfig(steps=60, batch_size=8, seed=9)
        )
        results.append((state.params.copy(), state.ema_params.copy(), state.adam_m.copy()))
    assert np.array_equal(results[0][0], results[1][0])
    assert np.array_equal(results[0][1], results[1][1])
    assert np.array_equal(results[0][2], results[1][2])


def test_train_fm_returns_a_snapshot_of_the_model_params():
    model = VelocityModel(data_dim=2, num_classes=2, width=8, seed=1)
    state = train_fm(
        model, toys.two_gaussians(20, seed=3), linear_schedule(), TrainConfig(steps=5, batch_size=8)
    )
    assert state.step == 5
    assert np.array_equal(state.params, model.get_params())
    assert not np.shares_memory(state.params, model._flat)
    assert not np.array_equal(state.params, state.ema_params)


def test_train_fm_loss_decreases_on_fixed_task():
    data = toys.two_gaussians(50, seed=6)
    model = VelocityModel(data_dim=2, num_classes=2, width=32, seed=8)
    losses = []
    train_fm(
        model,
        data,
        linear_schedule(),
        TrainConfig(steps=100, batch_size=32, seed=1),
        callback=lambda s, l: losses.append(l),
    )
    assert np.mean(losses[-10:]) < np.mean(losses[:10])


def _first_forward_batch(monkeypatch, train):
    """The x, t and prepared condition of the first _forward_batch call that
    train() makes."""
    seen = []
    original = VelocityModel._forward_batch

    def spy(self, x, t, cond, **kwargs):
        seen.append((x.copy(), t.copy(), np.array(cond)))
        return original(self, x, t, cond, **kwargs)

    monkeypatch.setattr(VelocityModel, "_forward_batch", spy)
    train()
    return seen[0]


def test_train_fm_draws_its_batch_in_the_documented_order(monkeypatch):
    # Row indices, base batch x0, path noise xi, t, dropout flags. The linear
    # path ignores xi, but t comes after it in the stream.
    x1_all, labels = toys.two_gaussians(10, seed=0)
    model = VelocityModel(data_dim=2, num_classes=2, width=8, seed=1)
    config = TrainConfig(steps=1, batch_size=8, p_drop=0.5, seed=3)
    xt, t, cond = _first_forward_batch(
        monkeypatch, lambda: train_fm(model, (x1_all, labels), linear_schedule(), config)
    )
    rng = np.random.default_rng(3)
    idx = rng.integers(0, len(x1_all), 8)
    x0 = rng.standard_normal((8, 2))
    rng.standard_normal((8, 2))
    want_t = rng.random(8)
    drop = rng.random(8) < 0.5
    assert drop.any() and not drop.all()
    assert np.array_equal(t, want_t)
    assert np.array_equal(xt, (1.0 - want_t)[:, None] * x0 + want_t[:, None] * x1_all[idx])
    assert np.array_equal(cond, np.where(drop, 2, labels[idx]))


def test_train_rf_injector_draws_its_batch_in_the_documented_order(monkeypatch):
    # Row indices, background rows as the base batch, bridge noise, t,
    # dropout flags.
    images, masks, backgrounds = toys.dark_line_task(n_pairs=6, n_backgrounds=4, side=4, seed=7)
    model = VelocityModel(data_dim=16, mask_shape=(4, 4), width=8, seed=2)
    config = TrainConfig(steps=1, batch_size=8, p_drop=0.5, seed=5)
    xt, t, cond = _first_forward_batch(
        monkeypatch,
        lambda: train_rf_injector(model, (images, masks), backgrounds, rectified_schedule(0.5), config),
    )
    rng = np.random.default_rng(5)
    idx = rng.integers(0, len(images), 8)
    x0 = backgrounds[rng.integers(0, len(backgrounds), 8)]
    eps = rng.standard_normal((8, 16))
    want_t = rng.random(8)
    drop = rng.random(8) < 0.5
    assert drop.any() and not drop.all()
    phi = want_t**2
    p = phi[:, None]
    want_xt = (1.0 - p) * x0 + p * images[idx] + (0.5 * np.sqrt(phi * (1.0 - phi)))[:, None] * eps
    assert np.array_equal(t, want_t)
    assert np.array_equal(xt, want_xt)
    flat = np.where(drop[:, None], 0.0, masks[idx].reshape(8, 16))
    assert np.array_equal(cond, np.concatenate([flat, 1.0 - flat], axis=1))


@pytest.mark.parametrize("p_drop", [-0.1, 1.5, float("nan")])
def test_train_config_rejects_p_drop_outside_unit_interval(p_drop):
    with pytest.raises(DomainError, match="p_drop"):
        TrainConfig(p_drop=p_drop)


@pytest.mark.parametrize("lr", [-1.0, float("nan"), float("inf")])
def test_train_config_rejects_a_negative_or_non_finite_lr(lr):
    with pytest.raises(DomainError, match="lr must be finite and >= 0"):
        TrainConfig(lr=lr)
    assert TrainConfig(lr=0.0).lr == 0.0


@pytest.mark.parametrize(
    "p_drop, frozen, trained", [(1.0, slice(0, 2), slice(2, 3)), (0.0, slice(2, 3), slice(0, 2))]
)
def test_train_fm_dropout_extremes_leave_unused_label_rows_untouched(p_drop, frozen, trained):
    # Row 2 is the null label: p_drop=1 feeds only it, p_drop=0 never does.
    model = VelocityModel(data_dim=2, num_classes=2, width=8, seed=1)
    before = model._p["emb"].copy()
    train_fm(
        model,
        toys.two_gaussians(20, seed=3),
        linear_schedule(),
        TrainConfig(steps=20, batch_size=8, p_drop=p_drop, seed=2),
    )
    emb = model._p["emb"]
    assert np.array_equal(emb[frozen], before[frozen])
    assert not np.array_equal(emb[trained], before[trained])


def test_train_rf_injector_p_drop_one_sees_only_empty_masks():
    # A dropped mask is all zeros, so the weights reading its foreground
    # channel never receive a gradient.
    images, masks, backgrounds = toys.dark_line_task(n_pairs=4, n_backgrounds=2, side=4, seed=7)
    model = VelocityModel(data_dim=16, mask_shape=(4, 4), width=8, seed=2)
    before = model._p["w_in"].copy()
    train_rf_injector(
        model,
        (images, masks),
        backgrounds,
        rectified_schedule(0.0),
        TrainConfig(steps=20, batch_size=8, p_drop=1.0, seed=3),
    )
    w_in = model._p["w_in"]
    assert np.array_equal(w_in[16:32], before[16:32])
    assert not np.array_equal(w_in[32:], before[32:])


def test_train_fm_rejects_empty_dataset():
    model = VelocityModel(data_dim=2, num_classes=2, width=8, seed=1)
    with pytest.raises(DomainError):
        train_fm(
            model,
            (np.zeros((0, 2)), np.zeros(0, dtype=np.intp)),
            linear_schedule(),
            TrainConfig(steps=1),
        )


@pytest.mark.parametrize("n_labels", [5, 40])
def test_train_fm_rejects_labels_that_do_not_pair_with_the_rows(n_labels):
    model = VelocityModel(data_dim=2, num_classes=2, width=8, seed=1)
    x1, _ = toys.two_gaussians(10, seed=3)
    with pytest.raises(ShapeError):
        train_fm(model, (x1, np.zeros(n_labels, dtype=np.intp)), linear_schedule(), TrainConfig(steps=1))


@pytest.mark.parametrize(
    "kwargs", [dict(steps=0), dict(steps=-3), dict(batch_size=0)], ids=["steps0", "steps-3", "batch0"]
)
def test_train_config_rejects_counts_below_one(kwargs):
    with pytest.raises(DomainError):
        TrainConfig(**kwargs)


def test_train_rf_injector_rejects_empty_pairs():
    model = VelocityModel(data_dim=4, mask_shape=(2, 2), width=8, seed=1)
    with pytest.raises(DomainError, match="no training pairs"):
        train_rf_injector(
            model,
            (np.zeros((0, 4)), np.zeros((0, 2, 2))),
            np.zeros((3, 4)),
            rectified_schedule(0.0),
            TrainConfig(steps=1),
        )


def test_train_rf_injector_overfits_single_pair():
    # One crack pair: block-averaged loss must fall monotonically within 500 steps.
    images, masks, backgrounds = toys.dark_line_task(n_pairs=1, n_backgrounds=1, side=4, seed=7)
    model = VelocityModel(data_dim=16, mask_shape=(4, 4), width=32, seed=2)
    losses = []
    train_rf_injector(
        model,
        (images, masks),
        backgrounds,
        rectified_schedule(0.0),
        TrainConfig(steps=500, batch_size=8, seed=3),
        callback=lambda s, l: losses.append(l),
    )
    blocks = [float(np.mean(losses[i : i + 100])) for i in range(0, 500, 100)]
    assert all(a > b for a, b in zip(blocks, blocks[1:]))
    assert blocks[-1] < 0.05 * blocks[0]


def test_trained_two_gaussian_model_transports_classes(two_gaussian_run):
    model, _, losses, _ = two_gaussian_run
    assert losses[-1] < losses[0]
    rng = np.random.default_rng(11)
    from fmlab.sampler import integrate

    for label, target in ((0, (-2.0, -2.0)), (1, (2.0, 2.0))):
        out = integrate(
            model, rng.standard_normal((200, 2)), label, IntegratorConfig("euler", 50)
        )
        assert np.all(np.abs(out.mean(axis=0) - np.asarray(target)) < 0.2)


def test_trained_injector_darkens_masked_pixels(injector_run):
    model, _ = injector_run
    rng = np.random.default_rng(21)
    gaps, deviations = [], []
    for _ in range(10):
        mask = toys.line_mask(8, 1, rng)
        level = float(rng.uniform(0.68, 0.82))
        out = integrate_from_background(
            model, np.full(64, level), mask, IntegratorConfig("euler", 50)
        )
        image = out.reshape(8, 8)
        fg = mask.astype(bool)
        gaps.append(image[~fg].mean() - image[fg].mean())
        deviations.append(np.abs(image[~fg] - level).mean())
    assert min(gaps) >= 0.3
    assert max(deviations) <= 0.1


# -- checkpoints ----------------------------------------------------------------


_META = {"mode": "class_conditional", "data_dim": 2, "task": "two_gaussians"}


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    params = rng.standard_normal(37)
    ema = rng.standard_normal(37)
    path = tmp_path / "model.fmck"
    save_checkpoint(path, params, ema, _META)
    loaded_params, loaded_ema = load_checkpoint(path)
    assert np.array_equal(loaded_params, params)
    assert np.array_equal(loaded_ema, ema)
    meta, _, _ = _read_checkpoint(path)
    assert meta == {key: str(value) for key, value in _META.items()}
    assert list(meta) == list(_META)


def test_checkpoint_binary_layout(tmp_path):
    path = tmp_path / "model.fmck"
    save_checkpoint(path, np.array([1.5]), np.array([-2.0]), {"task": "x", "width": 4})
    blob = path.read_bytes()
    assert blob[:4] == b"FMCK"
    assert int.from_bytes(blob[4:8], "little") == 2
    assert int.from_bytes(blob[8:16], "little") == 1
    assert int.from_bytes(blob[16:20], "little") == 15
    assert blob[20:35] == b"task=x\nwidth=4\n"
    assert np.frombuffer(blob[35:43], dtype="<f8")[0] == 1.5
    assert np.frombuffer(blob[43:51], dtype="<f8")[0] == -2.0
    assert len(blob) == 51


def test_checkpoint_rejects_corruption(tmp_path):
    path = tmp_path / "model.fmck"
    save_checkpoint(path, np.zeros(4), np.zeros(4), _META)
    blob = bytearray(path.read_bytes())
    blob[0] = ord("X")
    bad = tmp_path / "bad.fmck"
    bad.write_bytes(bytes(blob))
    with pytest.raises(DomainError):
        load_checkpoint(bad)
    short = tmp_path / "short.fmck"
    short.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(DomainError):
        load_checkpoint(short)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "model.fmck"
    save_checkpoint(path, np.zeros(4), np.zeros(4), _META)
    padded = tmp_path / "padded.fmck"
    padded.write_bytes(path.read_bytes() + b"garbage")
    with pytest.raises(DomainError, match="trailing bytes"):
        load_checkpoint(padded)


def test_checkpoint_cut_anywhere_raises_domain_error(tmp_path):
    path = tmp_path / "model.fmck"
    save_checkpoint(path, np.arange(4.0), np.arange(4.0), _META)
    blob = path.read_bytes()
    cut = tmp_path / "cut.fmck"
    for length in range(len(blob)):
        cut.write_bytes(blob[:length])
        with pytest.raises(DomainError):
            load_checkpoint(cut)


def test_checkpoint_padded_anywhere_raises_domain_error(tmp_path):
    path = tmp_path / "model.fmck"
    save_checkpoint(path, np.arange(4.0), np.arange(4.0), _META)
    blob = path.read_bytes()
    padded = tmp_path / "padded.fmck"
    for at in range(len(blob) + 1):
        for byte in (b"\x00", b"\x01", b"=", b"\n"):
            padded.write_bytes(blob[:at] + byte + blob[at:])
            with pytest.raises(DomainError):
                load_checkpoint(padded)


def test_checkpoint_version_1_is_unsupported(tmp_path):
    path = tmp_path / "v1.fmck"
    path.write_bytes(b"FMCK" + struct.pack("<IQ", 1, 2) + np.zeros(4).tobytes())
    with pytest.raises(DomainError, match="unsupported checkpoint version 1"):
        load_checkpoint(path)


def _with_meta_block(block: bytes) -> bytes:
    data = np.zeros(2).tobytes()
    return b"FMCK" + struct.pack("<IQI", 2, 1, len(block)) + block + data


@pytest.mark.parametrize(
    "block, error",
    [
        (b"task=x\nwidth\n", "'width' has no '='"),
        (b"task=x\n\n", "'' has no '='"),
        ("task=\u00e9\n".encode(), "not ASCII"),
    ],
)
def test_checkpoint_rejects_a_bad_meta_block(tmp_path, block, error):
    path = tmp_path / "bad.fmck"
    path.write_bytes(_with_meta_block(block))
    with pytest.raises(DomainError, match=error):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda blob: b"XXXX" + blob[4:], "bad checkpoint magic b'XXXX'"),
        (lambda blob: blob[:12], "checkpoint header truncated"),
        (lambda blob: blob[:4] + struct.pack("<I", 1) + blob[8:], "unsupported checkpoint version 1"),
        (lambda blob: blob[:-1], "checkpoint truncated"),
        (lambda blob: blob + b"x", "trailing bytes after checkpoint data"),
        (lambda blob: _with_meta_block(b"width\n"), "checkpoint meta line 'width' has no '='"),
        (lambda blob: _with_meta_block("\u00e9\n".encode()), "checkpoint meta block is not ASCII"),
    ],
    ids=["magic", "header", "version", "truncated", "trailing", "meta-line", "meta-ascii"],
)
def test_every_checkpoint_read_error_names_the_file(tmp_path, damage, message):
    path = tmp_path / "model.fmck"
    save_checkpoint(path, np.arange(4.0), np.arange(4.0), _META)
    bad = tmp_path / "bad.fmck"
    bad.write_bytes(damage(path.read_bytes()))
    with pytest.raises(DomainError) as exc:
        _read_checkpoint(bad)
    assert str(exc.value) == f"{message} in {bad}"


def test_checkpoint_with_an_empty_meta_block_reads_back(tmp_path):
    path = tmp_path / "empty.fmck"
    path.write_bytes(_with_meta_block(b""))
    assert _read_checkpoint(path)[0] == {}


@pytest.mark.parametrize(
    "meta", [{"a=b": "1"}, {"task": "x\ny"}, {"task": "x\ry"}, {"task": "\u00e9"}]
)
def test_save_checkpoint_rejects_meta_that_would_not_read_back(tmp_path, meta):
    path = tmp_path / "model.fmck"
    with pytest.raises(DomainError):
        save_checkpoint(path, np.zeros(1), np.zeros(1), meta)
    assert not path.exists()


# float64 bit patterns: any pattern at all, plus the floats hypothesis favours
# (NaN, both infinities, subnormals, -0.0).
_FLOAT64_BITS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.floats().map(lambda f: struct.unpack("<Q", struct.pack("<d", f))[0]),
)
# Meta keys and values: printable ASCII, and no '=' in a key.
_META_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12)
_META_DICTS = st.dictionaries(_META_TEXT.filter(lambda k: "=" not in k), _META_TEXT)


@settings(max_examples=100, deadline=None)
@given(st.lists(_FLOAT64_BITS, max_size=64), _META_DICTS)
def test_checkpoint_round_trips_any_float64_bit_exactly(tmp_path_factory, bits, meta):
    n = len(bits) // 2
    values = np.array(bits[: 2 * n], dtype=np.uint64).view(np.float64)
    params, ema = values[:n], values[n:]
    path = tmp_path_factory.getbasetemp() / "bits.fmck"
    save_checkpoint(path, params, ema, meta)
    loaded_params, loaded_ema = load_checkpoint(path)
    assert loaded_params.tobytes() == params.tobytes()
    assert loaded_ema.tobytes() == ema.tobytes()
    assert _read_checkpoint(path)[0] == meta
