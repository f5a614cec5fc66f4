import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stopgo.replay import ReplayBuffer, SumTree, Transition


def _transition(tag):
    obs = np.full(4, float(tag))
    return Transition(obs=obs, action=tag % 2, reward=float(tag),
                      next_obs=obs + 1, terminal=False)


def test_sumtree_total_matches_sum():
    tree = SumTree(8)
    weights = [0.5, 2.0, 0.0, 1.25, 3.0]
    for i, w in enumerate(weights):
        tree.update(i, w)
    assert tree.total() == pytest.approx(sum(weights))
    assert tree.get(1) == pytest.approx(2.0)
    tree.update(1, 0.25)
    assert tree.total() == pytest.approx(sum(weights) - 1.75)


def test_sumtree_works_for_non_power_of_two_capacity():
    tree = SumTree(5)
    for i in range(5):
        tree.update(i, float(i + 1))
    assert tree.total() == pytest.approx(15.0)


@settings(max_examples=50, deadline=None)
@given(
    exponent=st.integers(min_value=0, max_value=5),
    fraction=st.floats(min_value=0.0, max_value=0.999999),
    data=st.data(),
)
def test_sumtree_prefix_descent_matches_linear_scan(exponent, fraction, data):
    # Exact leaf <-> prefix-interval order only holds when the leaves form a
    # single full tree level, i.e. power-of-two capacity. Other capacities
    # permute intervals, which is harmless for i.i.d. sampling and is covered
    # by the frequency test below.
    n = 2 ** exponent
    weights = data.draw(st.lists(st.floats(min_value=0.01, max_value=10.0),
                                 min_size=n, max_size=n))
    tree = SumTree(n)
    for i, w in enumerate(weights):
        tree.update(i, w)
    prefix = fraction * tree.total()
    cumulative = np.cumsum(weights)
    if np.min(np.abs(cumulative - prefix)) < 1e-7 * tree.total():
        return  # boundary roundoff between cumsum and tree sums, skip
    found = tree.find_prefix(prefix)
    expected = int(np.searchsorted(cumulative, prefix, side="right"))
    expected = min(expected, n - 1)
    assert found == expected


def test_buffer_is_a_ring():
    buf = ReplayBuffer(capacity=4)
    indices = [buf.insert(_transition(tag)) for tag in range(6)]
    assert indices == [0, 1, 2, 3, 0, 1]
    assert len(buf) == 4
    assert buf.store.reward.tolist() == [4.0, 5.0, 2.0, 3.0]
    assert buf.store.obs[:, 0].tolist() == [4.0, 5.0, 2.0, 3.0]
    assert buf.store.next_obs[:, 0].tolist() == [5.0, 6.0, 3.0, 4.0]


@pytest.mark.parametrize("field", ["obs", "next_obs"])
def test_insert_rejects_another_obs_length(field):
    buf = ReplayBuffer(capacity=8)
    buf.insert(_transition(0))
    bad = _transition(1)
    setattr(bad, field, np.zeros(5))
    with pytest.raises(ValueError, match=f"{field} has length 5.*length 4"):
        buf.insert(bad)
    assert len(buf) == 1 and buf.write_index == 1


class ReferenceSumTree:
    """The sum tree as it was before the float-list nodes: NumPy nodes,
    the same loops."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.nodes = np.zeros(2 * capacity, dtype=np.float64)

    def update(self, index, weight):
        i = index + self.capacity
        self.nodes[i] = weight
        i >>= 1
        while i >= 1:
            self.nodes[i] = self.nodes[2 * i] + self.nodes[2 * i + 1]
            i >>= 1

    def total(self):
        return self.nodes[1]

    def get(self, index):
        return self.nodes[index + self.capacity]

    def find_prefix(self, prefix):
        i = 1
        while i < self.capacity:
            left = self.nodes[2 * i]
            if prefix < left:
                i = 2 * i
            else:
                prefix -= left
                i = 2 * i + 1
        return i - self.capacity


class ReferenceBuffer:
    """The replay buffer as it was before the array store: a list of
    `Transition`s and per-element loops."""

    def __init__(self, capacity, alpha_per, priority_floor):
        self.capacity = capacity
        self.alpha_per = alpha_per
        self.priority_floor = priority_floor
        self.storage = []
        self.tree = ReferenceSumTree(capacity)
        self.write_index = 0
        self.max_raw_priority = 1.0

    def insert(self, transition):
        index = self.write_index
        if len(self.storage) < self.capacity:
            self.storage.append(transition)
        else:
            self.storage[index] = transition
        self.write_index = (self.write_index + 1) % self.capacity
        self.tree.update(index, self.max_raw_priority ** self.alpha_per)
        return index

    def update_priorities(self, indices, losses):
        for index, loss in zip(indices, losses):
            raw = abs(float(loss)) + self.priority_floor
            if raw > self.max_raw_priority:
                self.max_raw_priority = raw
            self.tree.update(index, raw ** self.alpha_per)

    def sample(self, batch_size, beta, rng):
        n = len(self.storage)
        total = self.tree.total()
        indices = np.empty(batch_size, dtype=np.int64)
        probs = np.empty(batch_size, dtype=np.float64)
        for b, u in enumerate(rng.random(batch_size)):
            index = self.tree.find_prefix(u * total)
            if index >= n:
                index = n - 1
            indices[b] = index
            probs[b] = self.tree.get(index) / total
        weights = (n * probs) ** (-beta)
        weights /= weights.max()
        return indices, [self.storage[i] for i in indices], weights


@pytest.mark.parametrize("alpha", [0.5, 0.6])
def test_buffer_matches_list_reference_bit_for_bit(alpha):
    # Capacity 37 is no power of two, and 600 inserts wrap the ring.
    buf, ref = ReplayBuffer(37, alpha, 1e-3), ReferenceBuffer(37, alpha, 1e-3)
    drive = np.random.default_rng(11)
    rng_buf, rng_ref = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(300):
        for _ in range(int(drive.integers(1, 4))):
            obs = drive.normal(size=6)
            t = Transition(obs=obs, action=int(drive.integers(2)),
                           reward=float(drive.normal(scale=20.0)),
                           next_obs=obs + drive.normal(size=6),
                           terminal=bool(drive.random() < 0.1))
            assert buf.insert(t) == ref.insert(t)
        if len(buf) >= 8:
            beta = float(drive.uniform(0.4, 1.0))
            indices, batch, weights = buf.sample(8, beta, rng_buf)
            ref_indices, rows, ref_weights = ref.sample(8, beta, rng_ref)
            assert np.array_equal(indices, ref_indices)
            assert np.array_equal(weights, ref_weights)
            assert np.array_equal(batch.obs, np.stack([r.obs for r in rows]))
            assert np.array_equal(batch.next_obs,
                                  np.stack([r.next_obs for r in rows]))
            assert batch.action.tolist() == [r.action for r in rows]
            assert batch.reward.tolist() == [r.reward for r in rows]
            assert batch.terminal.tolist() == [r.terminal for r in rows]
            # Duplicate indices: the last write to a leaf wins in both.
            again = np.concatenate([indices, indices[:3]])
            losses = drive.exponential(scale=3.0, size=len(again))
            losses[::2] *= -1
            buf.update_priorities(again, losses)
            ref.update_priorities(again, losses)
        assert buf.tree.total() == ref.tree.total()
        assert buf.max_raw_priority == ref.max_raw_priority
    assert ref.write_index == buf.write_index and len(ref.storage) == len(buf)


def test_new_inserts_get_max_raw_priority(rng):
    buf = ReplayBuffer(capacity=8, priority_floor=1e-3)
    idx = [buf.insert(_transition(t)) for t in range(3)]
    buf.update_priorities(idx, [0.0, 7.0, 1.0])
    fresh = buf.insert(_transition(9))
    # raw priority copies the current max (7 + floor), stored as p^alpha
    assert buf.tree.get(fresh) == pytest.approx((7.0 + 1e-3) ** 0.5)


def test_priorities_store_abs_loss_plus_floor_to_alpha():
    buf = ReplayBuffer(capacity=8, alpha_per=0.5, priority_floor=1e-3)
    idx = [buf.insert(_transition(t)) for t in range(4)]
    losses = [0.2, -1.5, 0.0, 3.0]
    buf.update_priorities(idx, losses)
    expected = sum((abs(x) + 1e-3) ** 0.5 for x in losses)
    assert buf.tree.total() == pytest.approx(expected)


def test_sample_shapes_and_weight_normalization(rng):
    buf = ReplayBuffer(capacity=32)
    idx = [buf.insert(_transition(t)) for t in range(20)]
    buf.update_priorities(idx, np.linspace(0.1, 2.0, 20))
    indices, transitions, weights = buf.sample(8, beta=0.7, rng=rng)
    assert len(indices) == len(transitions) == len(weights) == 8
    assert all(isinstance(t, Transition) for t in transitions)
    assert np.max(weights) == pytest.approx(1.0)
    assert np.all(weights > 0)


def test_beta_zero_gives_unit_weights(rng):
    buf = ReplayBuffer(capacity=16)
    idx = [buf.insert(_transition(t)) for t in range(10)]
    buf.update_priorities(idx, np.linspace(0.5, 5.0, 10))
    _, _, weights = buf.sample(6, beta=0.0, rng=rng)
    assert np.allclose(weights, 1.0)


def test_higher_priority_items_sampled_more_often(rng):
    buf = ReplayBuffer(capacity=4, alpha_per=1.0, priority_floor=0.0)
    idx = [buf.insert(_transition(t)) for t in range(2)]
    buf.update_priorities(idx, [9.0, 1.0])
    counts = np.zeros(2)
    for _ in range(450):  # batch size may not exceed the two stored items
        indices, _, _ = buf.sample(2, beta=0.0, rng=rng)
        for i in indices:
            counts[i] += 1
    share = counts[0] / counts.sum()
    assert 0.82 < share < 0.98  # expected 0.9 under p^1 sampling


def test_sampling_frequency_tracks_priority_power(rng):
    n, draws = 100, 20_000
    buf = ReplayBuffer(capacity=n, alpha_per=0.5, priority_floor=0.0)
    priorities = rng.uniform(0.1, 5.0, size=n)
    idx = [buf.insert(_transition(t)) for t in range(n)]
    buf.update_priorities(idx, priorities)
    probs = priorities ** 0.5
    probs /= probs.sum()
    counts = np.zeros(n)
    remaining = draws
    while remaining > 0:
        take = min(n, remaining)
        indices, _, _ = buf.sample(take, beta=0.0, rng=rng)
        np.add.at(counts, indices, 1)
        remaining -= take
    sigma = np.sqrt(draws * probs * (1 - probs))
    deviation = np.abs(counts - draws * probs)
    assert np.all(deviation <= 5 * sigma + 1)
