"""Tests for the fused policy decision kernel.

The kernel runs every per-head step of a decision — softmax, bias fold,
entropy and log-prob sums, inverse-CDF sampling — as one pass over the
network's concatenated ``(K, T)`` head rows, with each decision's biases
stored as one fused :class:`BiasRow`.  The oracle below works head by head
from per-head bias dicts: one softmax, fold and sampling loop per head.
Segment sums may differ from the per-head sums in the last bits, so values
are compared within 1e-12, and indices exactly except where the oracle's
own numbers tie within that tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rl.network import MultiHeadPolicyNetwork, stacked_forward
from repro.rl.policy import MASK_LOGIT_BIAS, BiasRow, CategoricalPolicy

SIZES = {"action": 4, "column": 7, "op": 3, "term": 9, "single": 1}


# -- per-head bias dicts -------------------------------------------------------------
def _to_row(layout, biases: dict) -> BiasRow:
    """Scatter per-head bias arrays into one fused row."""
    row = BiasRow.empty(layout)
    for name, bias in biases.items():
        row.head(layout, name)[:] = bias
    return row


def _per_head_fold(layout, probabilities, biases_list):
    """The fold over per-head bias dicts, scattered into (K, T) per call."""
    bias_rows = np.zeros((len(biases_list), layout.total))
    folded = np.zeros((len(biases_list), len(layout.names)), dtype=bool)
    for k, biases in enumerate(biases_list):
        for name, bias in biases.items():
            position, start, stop = layout.slots[name]
            bias_rows[k, start:stop] = bias
            folded[k, position] = True
    if not folded.any():
        return probabilities
    biased = layout.softmax(np.log(np.maximum(probabilities, 1e-12)) + bias_rows)
    return np.where(folded[:, layout.owner], biased, probabilities)


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
    targets = {}
    if greedy:
        for name in names:
            chosen[name] = np.argmax(adjusted[name], axis=-1)
    else:
        draws = np.array([rng.random(len(names)) for rng in rngs])
        for position, name in enumerate(names):
            cdf = cdfs[name]
            targets[name] = draws[:, position] * cdf[:, -1]
            indices = (cdf <= targets[name][:, None]).sum(axis=-1)
            chosen[name] = np.minimum(indices, cdf.shape[-1] - 1)
    indices = [{name: int(chosen[name][k]) for name in names} for k in range(count)]
    return indices, entropies, adjusted, cdfs, targets


def _oracle_log_prob(adjusted, k, indices):
    """The oracle's log-probability of the choices *indices* in row *k*."""
    return sum(
        float(np.log(np.maximum(adjusted[name][k, index], 1e-12)))
        for name, index in indices.items()
    )


def _assert_same_pick(name, k, mine, oracle, adjusted, cdfs, targets):
    """Indices agree, unless the oracle itself ties within 1e-12.

    Logits and biases on a quarter grid can tie exactly (2.75 against
    2.5 + 0.25); which side of such a tie each kernel lands on depends on
    last-bit rounding of its segment sums, so there either pick is right.
    """
    if mine == oracle:
        return
    if name in targets:
        boundary = cdfs[name][k, min(mine, oracle)]
        assert abs(boundary - targets[name][k]) <= 1e-12, (name, k, mine, oracle)
    else:
        gap = adjusted[name][k, mine] - adjusted[name][k, oracle]
        assert abs(gap) <= 1e-12, (name, k, mine, oracle)


# -- strategies ----------------------------------------------------------------------
@st.composite
def decision_cases(draw):
    """Random head sizes, logits, biases and validity masks.

    Logits and biases sit on a quarter grid, so distinct entries stay
    distinct after the softmax.
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
        layout = network.layout
        policy = CategoricalPolicy(network)
        rows = np.stack([np.concatenate([row[name] for name in names]) for row in logits])
        probabilities = layout.softmax(rows)
        bias_rows = [_to_row(layout, biases) for biases in biases_list]
        decisions = policy.decisions_from_forward(
            np.zeros((count, 2)),
            probabilities,
            np.zeros(count),
            bias_rows,
            [np.random.default_rng([seed, k]) for k in range(count)],
            greedy=greedy,
        )
        batch_probs = {
            name: _oracle_softmax(np.stack([row[name] for row in logits])) for name in names
        }
        indices, entropies, adjusted, cdfs, targets = _oracle_decide(
            batch_probs,
            biases_list,
            [np.random.default_rng([seed, k]) for k in range(count)],
            greedy,
        )
        fused = policy._fold_biases(probabilities, bias_rows)
        # The fused-row fold is bit-identical to the fold over per-head dicts.
        assert np.array_equal(fused, _per_head_fold(layout, probabilities, biases_list))
        folded = layout.split(fused)
        for name in names:
            np.testing.assert_allclose(folded[name], adjusted[name], rtol=0, atol=1e-12)
        for k, decision in enumerate(decisions):
            assert list(decision.indices) == names
            for name in names:
                _assert_same_pick(
                    name, k, decision.indices[name], indices[k][name], adjusted, cdfs, targets
                )
            expected_log_prob = _oracle_log_prob(adjusted, k, decision.indices)
            assert decision.log_prob == pytest.approx(expected_log_prob, rel=1e-12, abs=1e-12)
            assert decision.entropy == pytest.approx(entropies[k], rel=1e-12, abs=1e-12)
            assert decision.biases is bias_rows[k]
            for name, bias in biases_list[k].items():
                assert bias[decision.indices[name]] > MASK_LOGIT_BIAS / 2, "masked choice"

    def test_stale_sized_bias_raises(self):
        network = MultiHeadPolicyNetwork(4, SIZES, (8,), seed=0)
        policy = CategoricalPolicy(network)
        stale = MultiHeadPolicyNetwork(4, {**SIZES, "column": 8}, (8,), seed=0)
        with pytest.raises(ValueError, match="bias row has 25 entries over 5 heads"):
            policy.act_batch(np.zeros((1, 4)), [BiasRow.empty(stale.layout)])
        fewer_heads = BiasRow(np.zeros(network.layout.total), np.zeros(4, dtype=bool))
        with pytest.raises(ValueError, match="the policy has 24 over 5"):
            policy.act_batch(np.zeros((1, 4)), [fewer_heads])


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


def _rows(network, biases_list: list[dict[str, np.ndarray]]) -> list[BiasRow]:
    return [_to_row(network.layout, biases) for biases in biases_list]


class _FixedBiasPolicy(CategoricalPolicy):
    """A policy whose every decision carries one fixed bias row."""

    def __init__(self, network, row: BiasRow):
        super().__init__(network)
        self.row = row

    def decision_biases(self, environment=None) -> BiasRow:
        return self.row


def _act_alone(network, observation, biases, rng, greedy=False):
    """One decision through ``act`` with *biases* as its decision biases."""
    policy = _FixedBiasPolicy(network, _to_row(network.layout, biases))
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
            _rows(network, biases_list),
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
            _rows(networks[0], biases_list),
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
                _rows(network, biases_list),
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
