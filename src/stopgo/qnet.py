"""Dueling distributional Q-network as a hand-rolled numpy MLP.

A rectifier trunk feeds two linear heads: a value head with one logit per
support atom and an advantage head with one logit per (action, atom). The
heads combine at the logit level,

    logits[a, z] = value[z] + adv[a, z] - mean_a' adv[a', z],

and a per-action softmax over atoms yields the categorical distributions.
With a single atom the aggregation reduces to the scalar dueling form
Q = U + A - mean(A). Mean-centering the advantages makes the decomposition
identifiable: shifting every advantage logit by a constant leaves the
output unchanged.

Everything is float64 and the gradients are exact, which keeps central
finite differences meaningful as an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NetSpec:
    obs_dim: int
    actions: int = 2
    atoms: int = 51
    hidden: tuple[int, ...] = (512, 512, 512)


def init_params(spec: NetSpec, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """He-initialized trunk, small uniform heads."""
    params: dict[str, np.ndarray] = {}
    fan_in = spec.obs_dim
    for i, width in enumerate(spec.hidden):
        params[f"W{i}"] = rng.normal(0.0, np.sqrt(2.0 / fan_in), (fan_in, width))
        params[f"b{i}"] = np.zeros(width)
        fan_in = width
    bound = 1.0 / np.sqrt(fan_in)
    params["Wv"] = rng.uniform(-bound, bound, (fan_in, spec.atoms))
    params["bv"] = np.zeros(spec.atoms)
    params["Wa"] = rng.uniform(-bound, bound, (fan_in, spec.actions * spec.atoms))
    params["ba"] = np.zeros(spec.actions * spec.atoms)
    return params


def dueling_aggregate(value_logits: np.ndarray, adv_logits: np.ndarray) -> np.ndarray:
    """Combine value [..., Z] and advantage [..., A, Z] logits per atom."""
    centered = adv_logits - adv_logits.mean(axis=-2, keepdims=True)
    return value_logits[..., None, :] + centered


def _trunk_forward(params, x):
    depth = 0
    while f"W{depth}" in params:
        depth += 1
    activations = [x]
    h = x
    for i in range(depth):
        h = np.maximum(h @ params[f"W{i}"] + params[f"b{i}"], 0.0)
        activations.append(h)
    return h, activations


def forward_batch(params: dict[str, np.ndarray], x: np.ndarray):
    """Distributions [B, A, Z] plus the cache needed for backprop."""
    h, activations = _trunk_forward(params, x)
    atoms = params["Wv"].shape[1]
    value = h @ params["Wv"] + params["bv"]
    adv = (h @ params["Wa"] + params["ba"]).reshape(x.shape[0], -1, atoms)
    logits = dueling_aggregate(value, adv)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    dist = exps / exps.sum(axis=-1, keepdims=True)
    log_dist = shifted - np.log(exps.sum(axis=-1, keepdims=True))
    return dist, {"activations": activations, "log_dist": log_dist, "dist": dist}


def forward(params: dict[str, np.ndarray], obs: np.ndarray) -> np.ndarray:
    """Per-action categorical distribution over atoms for one observation."""
    dist, _ = forward_batch(params, np.asarray(obs, dtype=np.float64)[None, :])
    return dist[0]


def q_values(params: dict[str, np.ndarray], obs: np.ndarray,
             support: np.ndarray) -> np.ndarray:
    """Expected value of each action's distribution over the atom support."""
    return forward(params, obs) @ support


def q_values_batch(params, x, support):
    dist, _ = forward_batch(params, x)
    return dist @ support


def select_action(params, obs, support, epsilon: float,
                  rng: np.random.Generator) -> int:
    """Epsilon-greedy over q_values; exact ties resolve to Go (index 0)
    because argmax returns the first maximum."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(2))
    return int(np.argmax(q_values(params, obs, support)))


def loss_and_grads(params, x: np.ndarray, actions: np.ndarray,
                   target_dists: np.ndarray, is_weights: np.ndarray):
    """Importance-weighted cross-entropy between target distributions and
    the online distributions at the taken actions.

    Returns (per-sample CE losses [B], gradient dict matching params).
    The optimized scalar is mean_b(w_b * ce_b); per-sample losses are
    unweighted, as they feed the priorities.
    """
    if not np.all(np.isfinite(x)):
        raise FloatingPointError("non-finite observation batch")
    batch = x.shape[0]
    dist, cache = forward_batch(params, x)
    rows = np.arange(batch)
    log_p = cache["log_dist"][rows, actions]          # [B, Z]
    per_sample = -(target_dists * log_p).sum(axis=1)  # [B]

    if not np.all(np.isfinite(per_sample)):
        raise FloatingPointError(
            f"non-finite loss: {per_sample[~np.isfinite(per_sample)][:4]}")

    # d loss / d logits at the selected action: w * (p - m) / B.
    p_sel = dist[rows, actions]
    dlogits_sel = (is_weights[:, None] * (p_sel - target_dists)) / batch
    n_actions = dist.shape[1]
    dlogits = np.zeros_like(dist)
    dlogits[rows, actions] = dlogits_sel

    # Through the dueling aggregation.
    d_value = dlogits.sum(axis=1)                                   # [B, Z]
    d_adv = dlogits - dlogits.mean(axis=1, keepdims=True)           # [B, A, Z]
    d_adv_flat = d_adv.reshape(batch, -1)

    grads: dict[str, np.ndarray] = {}
    h = cache["activations"][-1]
    grads["Wv"] = h.T @ d_value
    grads["bv"] = d_value.sum(axis=0)
    grads["Wa"] = h.T @ d_adv_flat
    grads["ba"] = d_adv_flat.sum(axis=0)
    dh = d_value @ params["Wv"].T + d_adv_flat @ params["Wa"].T

    depth = len(cache["activations"]) - 1
    for i in reversed(range(depth)):
        post = cache["activations"][i + 1]
        dh = dh * (post > 0.0)
        pre_input = cache["activations"][i]
        grads[f"W{i}"] = pre_input.T @ dh
        grads[f"b{i}"] = dh.sum(axis=0)
        dh = dh @ params[f"W{i}"].T

    return per_sample, grads


def global_grad_norm(grads: dict[str, np.ndarray]) -> float:
    return float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))


def sgd_step(params, grads, lr: float, clip_norm: float = 10.0,
             momentum: float = 0.0,
             velocity: dict[str, np.ndarray] | None = None) -> float:
    """In-place SGD with global gradient-norm clipping; returns the
    pre-clip norm. With momentum > 0 a velocity dict must be supplied; a
    key it lacks starts at zero velocity."""
    norm = global_grad_norm(grads)
    scale = clip_norm / norm if (clip_norm > 0 and norm > clip_norm) else 1.0
    for key, g in grads.items():
        step = g * scale
        if momentum > 0.0:
            velocity[key] = momentum * velocity.get(key, 0.0) + step
            step = velocity[key]
        params[key] -= lr * step
    return norm
