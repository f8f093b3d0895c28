"""Shared fixtures: trained toy models are expensive, so train once per session."""
from __future__ import annotations

import time

import numpy as np
import pytest

from fmlab import neural as nn
from fmlab import schedules as sch
from fmlab import toys


@pytest.fixture(scope="session")
def two_gaussian_run():
    """Class-conditional FM model trained on the two-Gaussian task."""
    start = time.perf_counter()
    data = toys.two_gaussians(500, seed=1)
    model = nn.VelocityModel(
        data_dim=2,
        num_classes=2,
        width=128,
        hidden_layers=2,
        time_embed_dim=32,
        seed=7,
    )
    config = nn.TrainConfig(steps=2000, batch_size=64, lr=1e-3, ema_decay=0.99, p_drop=0.1, seed=3)
    losses: list[float] = []
    state = nn.train_fm(
        model, data, sch.linear_schedule(), config, callback=lambda s, l: losses.append(l)
    )
    train_seconds = time.perf_counter() - start
    model.set_params(state.ema_params)
    return model, state, losses, train_seconds


@pytest.fixture(scope="session")
def injector_run():
    """Mask-conditional rectified-flow injector trained on the dark-line task."""
    images, masks, backgrounds = toys.dark_line_task(n_pairs=200, n_backgrounds=200, side=8, seed=5)
    model = nn.VelocityModel(
        data_dim=64,
        mask_shape=(8, 8),
        width=128,
        hidden_layers=2,
        time_embed_dim=32,
        seed=9,
    )
    config = nn.TrainConfig(steps=2000, batch_size=64, lr=1e-3, ema_decay=0.99, p_drop=0.1, seed=4)
    state = nn.train_rf_injector(
        model, (images, masks), backgrounds, sch.rectified_schedule(0.0), config
    )
    model.set_params(state.ema_params)
    return model, state


@pytest.fixture(scope="session")
def mask_generator_run():
    """Class-conditional mask generator trained on 8x8 line masks (2 classes)."""
    masks_arr, labels = toys.toy_mask_dataset(150, side=8, seed=2)
    data = (masks_arr.reshape(len(masks_arr), -1).astype(np.float64), labels)
    model = nn.VelocityModel(
        data_dim=64,
        num_classes=2,
        width=128,
        hidden_layers=2,
        time_embed_dim=32,
        seed=17,
    )
    config = nn.TrainConfig(steps=3500, batch_size=64, lr=1e-3, ema_decay=0.999, p_drop=0.1, seed=6)
    state = nn.train_fm(model, data, sch.linear_schedule(), config)
    model.set_params(state.ema_params)
    return model, state
