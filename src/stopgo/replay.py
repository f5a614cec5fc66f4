"""Prioritized experience replay: sum-tree index plus array ring storage.

Transitions are sampled i.i.d. with probability proportional to
priority^alpha_per, and importance-sampling weights (N * P(i))^(-beta) are
returned normalized by the batch maximum. Priorities are |loss| + floor,
with the exponent applied at store time.

Storage is one NumPy array per field (obs, action, reward, next_obs,
terminal), used as a ring of `capacity` rows. The arrays and the sum tree
are allocated at full capacity on the first insert, once the observation
length is known; pages no row has been written to are never resident, so
a buffer that holds few transitions costs little memory. A sample gathers
its rows into a `Batch` of arrays.

The tree keeps its nodes in a Python list of floats: a batch touches 32
leaf-to-root paths, too few for NumPy's per-call overhead to pay, and
plain floats add in the same IEEE order without boxing NumPy scalars. The
priority exponent also stays a scalar Python `raw ** alpha_per`, because
NumPy's array power rounds differently from it on some values, and that
would change which transitions are drawn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Transition:
    obs: np.ndarray
    action: int
    reward: float
    next_obs: np.ndarray
    terminal: bool


@dataclass(frozen=True)
class Batch:
    """Transition rows as arrays: obs and next_obs [B, D], the rest [B].
    The buffer's storage is one, and `sample` returns one. Iterating
    yields the rows as `Transition`s."""
    obs: np.ndarray
    action: np.ndarray
    reward: np.ndarray
    next_obs: np.ndarray
    terminal: np.ndarray

    def __len__(self) -> int:
        return len(self.action)

    def __iter__(self):
        for row in zip(self.obs, self.action.tolist(), self.reward.tolist(),
                       self.next_obs, self.terminal.tolist()):
            yield Transition(*row)


class SumTree:
    """Complete binary tree over leaf weights supporting O(log n) updates
    and prefix-sum lookup. Parents are recomputed as left + right on every
    update, so the root equals the leaf sum up to summation-order roundoff.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.nodes = [0.0] * (2 * capacity)

    def update(self, index: int, weight: float) -> None:
        if weight < 0:
            raise ValueError("weights must be non-negative")
        nodes = self.nodes
        i = index + self.capacity
        nodes[i] = weight
        i >>= 1
        while i >= 1:
            nodes[i] = nodes[2 * i] + nodes[2 * i + 1]
            i >>= 1

    def total(self) -> float:
        return self.nodes[1]

    def get(self, index: int) -> float:
        return self.nodes[index + self.capacity]

    def find_prefix(self, prefix: float) -> int:
        """Smallest leaf index such that the cumulative weight up to and
        including it exceeds prefix. prefix must lie in [0, total)."""
        nodes = self.nodes
        i = 1
        while i < self.capacity:
            left = nodes[2 * i]
            if prefix < left:
                i = 2 * i
            else:
                prefix -= left
                i = 2 * i + 1
        return i - self.capacity


class ReplayBuffer:
    def __init__(self, capacity: int = 50_000, alpha_per: float = 0.5,
                 priority_floor: float = 1e-3):
        self.capacity = capacity
        self.alpha_per = alpha_per
        self.priority_floor = priority_floor
        self.size = 0
        self.write_index = 0
        self.max_raw_priority = 1.0  # raw scale: |loss| + floor
        self.tree: SumTree | None = None
        # Storage arrays; rows [0, len(self)) hold the stored transitions.
        self.store: Batch | None = None

    def __len__(self) -> int:
        return self.size

    def _store_priority(self, index: int, raw: float) -> None:
        self.tree.update(index, raw ** self.alpha_per)

    def _reserve(self, transition: Transition) -> Batch:
        """The storage arrays, allocated at capacity rows on the first
        insert: pages no row has been written to are never resident."""
        store = self.store
        if store is None:
            self.tree = SumTree(self.capacity)
            n, dim = self.capacity, len(transition.obs)
            store = self.store = Batch(
                np.empty((n, dim)), np.empty(n, np.int64), np.empty(n),
                np.empty((n, dim)), np.empty(n, bool))
        dim = store.obs.shape[1]
        for name in ("obs", "next_obs"):
            length = len(getattr(transition, name))
            if length != dim:
                raise ValueError(f"transition {name} has length {length}, "
                                 f"the buffer stores length {dim}")
        return store

    def insert(self, transition: Transition) -> int:
        """Add at maximum current priority; overwrite the oldest when full."""
        store = self._reserve(transition)
        index = self.write_index
        store.obs[index] = transition.obs
        store.action[index] = transition.action
        store.reward[index] = transition.reward
        store.next_obs[index] = transition.next_obs
        store.terminal[index] = transition.terminal
        self.size = max(self.size, index + 1)
        self.write_index = (index + 1) % self.capacity
        self._store_priority(index, self.max_raw_priority)
        return index

    def update_priorities(self, indices, losses) -> None:
        """Set priorities to |per-sample loss| + floor."""
        for index, loss in zip(np.asarray(indices).tolist(),
                               np.asarray(losses, dtype=np.float64).tolist()):
            raw = abs(loss) + self.priority_floor
            if raw > self.max_raw_priority:
                self.max_raw_priority = raw
            self._store_priority(index, raw)

    def sample(self, batch_size: int, beta: float, rng: np.random.Generator):
        """Draw batch_size transitions i.i.d. proportional to stored priority.

        Returns (indices, batch, weights): batch is a `Batch` of the drawn
        rows, weights = (N*P)^-beta normalized by the batch maximum.
        """
        n = self.size
        if n < batch_size:
            raise ValueError(f"buffer holds {n} < batch size {batch_size}")
        tree = self.tree
        total = tree.total()
        picked = []
        for u in rng.random(batch_size).tolist():
            # Clamp a draw that lands on a zero-weight or never-written leaf
            # at the float boundary.
            picked.append(min(tree.find_prefix(u * total), n - 1))
        indices = np.array(picked, dtype=np.int64)
        probs = np.array([tree.get(i) for i in picked]) / total
        weights = (n * probs) ** (-beta)
        weights /= weights.max()
        store = self.store
        batch = Batch(store.obs[indices], store.action[indices],
                      store.reward[indices], store.next_obs[indices],
                      store.terminal[indices])
        return indices, batch, weights
