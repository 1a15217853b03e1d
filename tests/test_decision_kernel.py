"""Tests for the fused policy decision kernel.

The kernel runs every per-head step of a decision — softmax, bias fold,
entropy and log-prob sums, inverse-CDF sampling — as one pass over the
network's concatenated ``(K, T)`` head rows.  The oracle below works head
by head: one softmax, fold and sampling loop per head.  Segment sums may
differ from the per-head sums in the last bits, so values are compared
within 1e-12 and indices exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rl.network import MultiHeadPolicyNetwork, stacked_forward
from repro.rl.policy import MASK_LOGIT_BIAS, CategoricalPolicy

SIZES = {"action": 4, "column": 7, "op": 3, "term": 9, "single": 1}


# -- the per-head oracle -------------------------------------------------------------
def _oracle_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _oracle_fold(batch_probs, biases_list):
    adjusted = {}
    for name, matrix in batch_probs.items():
        rows = [k for k in range(len(biases_list)) if biases_list[k].get(name) is not None]
        if rows:
            index = np.asarray(rows)
            bias = np.stack([biases_list[k][name] for k in rows])
            logits = np.log(np.clip(matrix[index], 1e-12, None)) + bias
            shifted = logits - logits.max(axis=-1, keepdims=True)
            exp = np.exp(shifted)
            matrix = np.array(matrix)
            matrix[index] = exp / exp.sum(axis=-1, keepdims=True)
        adjusted[name] = matrix
    return adjusted


def _oracle_decide(batch_probs, biases_list, rngs, greedy):
    """Indices, log-probs, entropies and folded probabilities, head by head."""
    count = len(biases_list)
    names = list(batch_probs)
    adjusted = _oracle_fold(batch_probs, biases_list)
    entropies = np.zeros(count)
    cdfs = {}
    for name in names:
        matrix = adjusted[name]
        entropies += -(matrix * np.log(np.clip(matrix, 1e-12, None))).sum(axis=-1)
        cdfs[name] = np.cumsum(matrix, axis=-1)
    chosen = {}
    if greedy:
        for name in names:
            chosen[name] = np.argmax(adjusted[name], axis=-1)
    else:
        draws = np.array([rng.random(len(names)) for rng in rngs])
        for position, name in enumerate(names):
            cdf = cdfs[name]
            targets = draws[:, position] * cdf[:, -1]
            indices = (cdf <= targets[:, None]).sum(axis=-1)
            chosen[name] = np.minimum(indices, cdf.shape[-1] - 1)
    log_probs = np.zeros(count)
    for name in names:
        picked = adjusted[name][np.arange(count), chosen[name]]
        log_probs += np.log(np.maximum(picked, 1e-12))
    indices = [{name: int(chosen[name][k]) for name in names} for k in range(count)]
    return indices, log_probs, entropies, adjusted


# -- strategies ----------------------------------------------------------------------
@st.composite
def decision_cases(draw):
    """Random head sizes, logits, biases and validity masks.

    Logits and biases sit on a quarter grid, so distinct entries stay
    distinct after the softmax and argmax ties are exact in both kernels.
    """
    sizes = draw(st.lists(st.integers(1, 9), min_size=1, max_size=5))
    count = draw(st.integers(1, 4))
    grid = st.integers(-24, 24).map(lambda value: value / 4.0)
    logits = [
        {
            f"h{head}": np.array(draw(st.lists(grid, min_size=size, max_size=size)))
            for head, size in enumerate(sizes)
        }
        for _ in range(count)
    ]
    biases_list = []
    for _ in range(count):
        biases = {}
        for head, size in enumerate(sizes):
            kind = draw(st.sampled_from(["none", "bias", "mask"]))
            if kind == "none":
                continue
            bias = np.array(draw(st.lists(grid, min_size=size, max_size=size)))
            if kind == "mask" and size > 1:
                masked = draw(st.lists(st.booleans(), min_size=size, max_size=size))
                masked[draw(st.integers(0, size - 1))] = False  # one stays valid
                bias[np.asarray(masked)] += MASK_LOGIT_BIAS
            biases[f"h{head}"] = bias
        biases_list.append(biases)
    seed = draw(st.integers(0, 2**32 - 1))
    greedy = draw(st.booleans())
    return sizes, logits, biases_list, seed, greedy


class TestKernelMatchesPerHeadOracle:
    @settings(max_examples=200, deadline=None)
    @given(case=decision_cases())
    def test_fused_kernel_matches_oracle(self, case):
        sizes, logits, biases_list, seed, greedy = case
        count = len(logits)
        names = [f"h{head}" for head in range(len(sizes))]
        network = MultiHeadPolicyNetwork(
            observation_size=2, head_sizes=dict(zip(names, sizes)), hidden_sizes=(2,)
        )
        policy = CategoricalPolicy(network)
        rows = np.stack([np.concatenate([row[name] for name in names]) for row in logits])
        probabilities = network.layout.softmax(rows)
        decisions = policy.decisions_from_forward(
            np.zeros((count, 2)),
            probabilities,
            np.zeros(count),
            biases_list,
            [np.random.default_rng([seed, k]) for k in range(count)],
            greedy=greedy,
        )
        batch_probs = {
            name: _oracle_softmax(np.stack([row[name] for row in logits])) for name in names
        }
        indices, log_probs, entropies, adjusted = _oracle_decide(
            batch_probs,
            biases_list,
            [np.random.default_rng([seed, k]) for k in range(count)],
            greedy,
        )
        folded = network.layout.split(policy._fold_biases(probabilities, biases_list))
        for name in names:
            np.testing.assert_allclose(folded[name], adjusted[name], rtol=0, atol=1e-12)
        for k, decision in enumerate(decisions):
            assert decision.indices == indices[k]
            assert decision.log_prob == pytest.approx(log_probs[k], rel=1e-12, abs=1e-12)
            assert decision.entropy == pytest.approx(entropies[k], rel=1e-12, abs=1e-12)
            for name, bias in biases_list[k].items():
                assert bias[decision.indices[name]] > MASK_LOGIT_BIAS / 2, "masked choice"

    def test_stale_sized_bias_raises(self):
        network = MultiHeadPolicyNetwork(4, SIZES, (8,), seed=0)
        policy = CategoricalPolicy(network)
        with pytest.raises(ValueError, match="'column' has 8 entries"):
            policy.act_batch(np.zeros((1, 4)), [{"column": np.zeros(8)}])
        with pytest.raises(ValueError, match="unknown head"):
            policy.act_batch(np.zeros((1, 4)), [{"missing": np.zeros(2)}])


# -- row bit-identity ----------------------------------------------------------------
def _row_biases(count: int) -> list[dict[str, np.ndarray]]:
    rng = np.random.default_rng(5)
    biases_list = []
    for k in range(count):
        biases = {"column": rng.normal(size=SIZES["column"])}
        if k % 2:
            mask = np.zeros(SIZES["term"])
            mask[[1, 4]] = MASK_LOGIT_BIAS
            biases["term"] = mask
        biases_list.append(biases)
    return biases_list


def _act_alone(network, observation, biases, rng, greedy=False):
    """One decision through ``act`` with *biases* served by the bias provider."""
    policy = CategoricalPolicy(network, bias_provider=biases.get)
    return policy.act(observation, greedy=greedy, rng=rng)


def _assert_same_decision(actual, expected):
    assert actual.indices == expected.indices
    assert actual.log_prob == expected.log_prob
    assert actual.entropy == expected.entropy
    assert actual.value == expected.value
    assert np.array_equal(actual.observation, expected.observation)


class TestRowBitIdentity:
    @pytest.mark.parametrize("greedy", [False, True])
    def test_act_batch_rows_equal_single_acts(self, greedy):
        network = MultiHeadPolicyNetwork(6, SIZES, (16, 8), seed=3)
        observations = np.random.default_rng(9).normal(size=(6, 6))
        biases_list = _row_biases(len(observations))
        batched = CategoricalPolicy(network).act_batch(
            observations,
            biases_list,
            [np.random.default_rng(100 + k) for k in range(len(observations))],
            greedy=greedy,
        )
        for k, decision in enumerate(batched):
            alone = _act_alone(
                network, observations[k], biases_list[k], np.random.default_rng(100 + k), greedy
            )
            _assert_same_decision(decision, alone)

    def test_stacked_forward_decisions_equal_local_acts(self):
        networks = [MultiHeadPolicyNetwork(6, SIZES, (16,), seed=seed) for seed in range(3)]
        net_index = np.array([2, 0, 1, 1, 0, 2, 2])
        observations = np.random.default_rng(4).normal(size=(len(net_index), 6))
        biases_list = _row_biases(len(net_index))
        probabilities, values = stacked_forward(networks, net_index, observations)
        decisions = CategoricalPolicy(networks[0]).decisions_from_forward(
            observations,
            probabilities,
            values,
            biases_list,
            [np.random.default_rng(50 + r) for r in range(len(net_index))],
        )
        for r, decision in enumerate(decisions):
            alone = _act_alone(
                networks[net_index[r]],
                observations[r],
                biases_list[r],
                np.random.default_rng(50 + r),
            )
            _assert_same_decision(decision, alone)

    def test_batched_gradient_equals_sequential(self):
        observations = np.random.default_rng(2).normal(size=(5, 6))
        biases_list = _row_biases(len(observations))
        advantages = np.array([0.5, -1.0, 2.0, 0.0, -0.25])
        targets = np.array([1.0, 0.0, -1.0, 0.5, 0.25])

        def gradients(batched: bool) -> list[np.ndarray]:
            network = MultiHeadPolicyNetwork(6, SIZES, (16,), seed=8)
            policy = CategoricalPolicy(network)
            decisions = policy.act_batch(
                observations,
                biases_list,
                [np.random.default_rng(k) for k in range(len(observations))],
            )
            policy.zero_grad()
            if batched:
                policy.accumulate_gradient_batch(decisions, advantages, targets)
            else:
                for decision, advantage, target in zip(decisions, advantages, targets):
                    policy.accumulate_gradient(decision, advantage, target)
            return [grad.copy() for _, grad in network.parameters()]

        for batched, sequential in zip(gradients(True), gradients(False)):
            assert np.array_equal(batched, sequential)


class TestConcatenatedHeadStorage:
    def test_export_state_names_and_shapes_unchanged(self):
        network = MultiHeadPolicyNetwork(6, SIZES, (16, 8), seed=0)
        expected = [
            ("trunk.0.weight", (6, 16)),
            ("trunk.0.bias", (16,)),
            ("trunk.1.weight", (16, 8)),
            ("trunk.1.bias", (8,)),
        ]
        for name, size in SIZES.items():
            expected += [(f"head.{name}.weight", (8, size)), (f"head.{name}.bias", (size,))]
        expected += [("value.weight", (8, 1)), ("value.bias", (1,))]
        state = network.export_state()
        assert [(name, shape) for name, _, shape, _ in state] == expected
        assert [shape for _, shape in expected] == [
            weight.shape for weight, _ in network.parameters()
        ]

    def test_head_parameters_are_views_of_the_concatenated_layer(self):
        network = MultiHeadPolicyNetwork(6, SIZES, (8,), seed=0)
        for name, head in network.heads.items():
            assert np.shares_memory(head.weight, network.head_layer.weight)
            assert np.shares_memory(head.bias, network.head_layer.bias)
        observation = np.ones(6)
        before, _ = network.forward(observation)
        network.heads["op"].bias[...] += np.array([5.0, 0.0, 0.0])
        after, _ = network.forward(observation)
        assert after["op"][0] > before["op"][0]
        assert np.array_equal(after["column"], before["column"])

    def test_state_round_trip_is_exact(self):
        source = MultiHeadPolicyNetwork(6, SIZES, (8,), seed=1)
        target = MultiHeadPolicyNetwork(6, SIZES, (8,), seed=2)
        target.load_state(source.export_state())
        assert target.export_state() == source.export_state()
        observations = np.random.default_rng(0).normal(size=(3, 6))
        for mine, theirs in zip(
            target.forward_batch(observations), source.forward_batch(observations)
        ):
            assert np.array_equal(mine, theirs)
