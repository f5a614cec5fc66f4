import numpy as np
import pytest

from stopgo.qnet import (
    NetSpec,
    dueling_aggregate,
    forward_batch,
    global_grad_norm,
    init_params,
    layout,
    loss_and_grads,
    q_values_batch,
    sgd_step,
)

SMALL = NetSpec(obs_dim=4, actions=2, atoms=5, hidden=(8, 8))


def _random_simplex(rng, shape):
    m = rng.uniform(0.1, 1.0, size=shape)
    return m / m.sum(axis=-1, keepdims=True)


def test_init_shapes_and_spec_round_trip(rng):
    params = init_params(SMALL, rng)
    assert params["W0"].shape == (4, 8)
    assert params["W1"].shape == (8, 8)
    assert params["Wv"].shape == (8, 5)
    assert params["Wa"].shape == (8, 10)
    assert list(params) == list(layout(SMALL))
    assert all(params[k].shape == shape for k, shape in layout(SMALL).items())


def test_dueling_aggregate_single_atom_scalar_case():
    # V=1, A=(2,0): mean advantage 1, so logits come out (2, 0) exactly
    value = np.array([1.0])
    adv = np.array([[2.0], [0.0]])
    out = dueling_aggregate(value, adv)
    assert out == pytest.approx(np.array([[2.0], [0.0]]))


def test_dueling_aggregate_removes_advantage_mean(rng):
    value = rng.normal(size=5)
    adv = rng.normal(size=(3, 5))
    out = dueling_aggregate(value, adv)
    assert out.mean(axis=0) == pytest.approx(value, abs=1e-12)


def test_forward_outputs_distributions(rng):
    params = init_params(SMALL, rng)
    dist, _ = forward_batch(params, rng.normal(size=(1, 4)))
    dist = dist[0]
    assert dist.shape == (2, 5)
    assert np.all(dist >= 0)
    assert dist.sum(axis=1) == pytest.approx(np.ones(2))


def test_forward_matches_forward_batch_row(rng):
    params = init_params(SMALL, rng)
    x = rng.normal(size=(6, 4))
    batch, _ = forward_batch(params, x)
    for i in range(6):
        row, _ = forward_batch(params, x[i:i + 1])
        assert row[0] == pytest.approx(batch[i])


def test_constant_advantage_shift_leaves_distribution_unchanged(rng):
    params = init_params(SMALL, rng)
    x = rng.normal(size=(3, 4))
    base, _ = forward_batch(params, x)
    shifted = dict(params)
    shifted["ba"] = params["ba"] + 11.7
    moved, _ = forward_batch(shifted, x)
    assert moved == pytest.approx(base, abs=1e-10)


def test_q_values_are_expected_support(rng):
    params = init_params(SMALL, rng)
    support = np.linspace(-3.0, 3.0, 5)
    batch = rng.normal(size=(4, 4))
    dists, _ = forward_batch(params, batch)
    assert q_values_batch(params, batch, support) == pytest.approx(
        dists @ support)


def test_loss_is_cross_entropy_of_selected_action(rng):
    params = init_params(SMALL, rng)
    x = rng.normal(size=(3, 4))
    actions = np.array([0, 1, 0])
    targets = _random_simplex(rng, (3, 5))
    weights = np.ones(3)
    per_sample, _ = loss_and_grads(params, x, actions, targets, weights)
    dists, cache = forward_batch(params, x)
    log_dist = cache["log_dist"]
    manual = np.array([
        -np.dot(targets[i], log_dist[i, actions[i]]) for i in range(3)
    ])
    assert per_sample == pytest.approx(manual, rel=1e-12)


def test_per_sample_loss_ignores_is_weights(rng):
    params = init_params(SMALL, rng)
    x = rng.normal(size=(4, 4))
    actions = np.array([0, 1, 1, 0])
    targets = _random_simplex(rng, (4, 5))
    ones, _ = loss_and_grads(params, x, actions, targets, np.ones(4))
    halves, grads_h = loss_and_grads(params, x, actions, targets,
                                     np.full(4, 0.5))
    assert halves == pytest.approx(ones)
    _, grads_1 = loss_and_grads(params, x, actions, targets, np.ones(4))
    for key in grads_1:
        assert grads_h[key] == pytest.approx(0.5 * grads_1[key], abs=1e-12)


def test_gradients_match_finite_differences(rng):
    params = init_params(SMALL, rng)
    x = rng.normal(size=(4, 4))
    actions = rng.integers(0, 2, size=4)
    targets = _random_simplex(rng, (4, 5))
    weights = rng.uniform(0.5, 1.5, size=4)

    def mean_loss():
        per_sample, _ = loss_and_grads(params, x, actions, targets, weights)
        return float(np.mean(weights * per_sample))

    _, grads = loss_and_grads(params, x, actions, targets, weights)
    eps = 1e-6
    for key in ("W0", "bv", "Wa"):
        flat = params[key].reshape(-1)
        for slot in range(0, flat.size, max(1, flat.size // 5)):
            keep = flat[slot]
            flat[slot] = keep + eps
            up = mean_loss()
            flat[slot] = keep - eps
            down = mean_loss()
            flat[slot] = keep
            fd = (up - down) / (2 * eps)
            g = grads[key].reshape(-1)[slot]
            assert g == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_loss_rejects_non_finite_input(rng):
    params = init_params(SMALL, rng)
    x = np.full((2, 4), np.inf)
    targets = _random_simplex(rng, (2, 5))
    with pytest.raises(FloatingPointError):
        loss_and_grads(params, x, np.array([0, 1]), targets, np.ones(2))


def test_global_grad_norm(rng):
    grads = {"a": np.array([3.0]), "b": np.array([[4.0]])}
    assert global_grad_norm(grads) == pytest.approx(5.0)


def test_sgd_step_applies_clip_and_reports_preclip_norm():
    params = {"w": np.zeros(2)}
    grads = {"w": np.array([30.0, 40.0])}  # norm 50, clipped to 10
    norm = sgd_step(params, grads, lr=0.1, clip_norm=10.0)
    assert norm == pytest.approx(50.0)
    assert params["w"] == pytest.approx(-0.1 * np.array([6.0, 8.0]))


def test_sgd_step_without_clip_is_plain_descent():
    params = {"w": np.ones(2)}
    grads = {"w": np.array([1.0, -2.0])}
    sgd_step(params, grads, lr=0.5, clip_norm=100.0)
    assert params["w"] == pytest.approx(np.array([0.5, 2.0]))


def test_sgd_momentum_accumulates_velocity():
    params = {"w": np.zeros(1)}
    velocity = {"w": np.zeros(1)}
    grads = {"w": np.array([1.0])}
    sgd_step(params, grads, lr=1.0, clip_norm=100.0, momentum=0.9,
             velocity=velocity)
    sgd_step(params, grads, lr=1.0, clip_norm=100.0, momentum=0.9,
             velocity=velocity)
    # v1 = 1, v2 = 1.9; parameter moves by -(1 + 1.9)
    assert params["w"] == pytest.approx(np.array([-2.9]))
    assert velocity["w"] == pytest.approx(np.array([1.9]))


def test_sgd_momentum_from_empty_velocity_matches_zero_start_bit_for_bit():
    rng = np.random.default_rng(7)
    start = {"W": rng.normal(size=(3, 4)), "b": rng.normal(size=4)}
    params = {k: v.copy() for k, v in start.items()}
    zero_params = {k: v.copy() for k, v in start.items()}
    velocity = {}
    zero_velocity = {k: np.zeros_like(v) for k, v in start.items()}
    for _ in range(3):
        grads = {k: rng.normal(size=v.shape) * 5.0 for k, v in start.items()}
        grads["b"][0] = -0.0
        for p, vel in ((params, velocity), (zero_params, zero_velocity)):
            # sgd_step writes into the gradients: each call gets a copy.
            sgd_step(p, {k: g.copy() for k, g in grads.items()}, lr=0.1,
                     clip_norm=10.0, momentum=0.9, velocity=vel)
    for key in start:
        assert params[key].tobytes() == zero_params[key].tobytes()
        assert velocity[key].tobytes() == zero_velocity[key].tobytes()
