"""The learning step as it ran before the flat parameter buffer: an oracle.

Every parameter here is its own array.  Each head is its own dense layer,
whose backward folds the bias gradient row by row and returns its own
input gradient; the trunk recomputes ``tanh`` from the cached
pre-activation and returns the first layer's (unused) input gradient too.
:func:`accumulate_whole_batch` forwards and folds every decision's row, even
repeated ones.  :class:`OracleAdam` updates each parameter on its own.  The
production update — one flat buffer, one fused head backward and a
one-buffer Adam step — must reproduce it bit for bit
(``tests/test_decision_kernel.py``).

:func:`accumulate_sequentially` is the sequential side of the batched
gradient contract: one decision per call, in order.
"""

from __future__ import annotations

import numpy as np

from repro.rl.network import MultiHeadPolicyNetwork
from repro.rl.policy import CategoricalPolicy


class OracleLayer:
    """A dense layer with its own weight, bias and gradient arrays."""

    def __init__(self, weight: np.ndarray, bias: np.ndarray, activation: str):
        self.weight = weight
        self.bias = bias
        self.activation = activation
        self.zero_grad()

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input = x
        self._pre_activation = np.einsum("kf,fh->kh", x, self.weight) + self.bias
        if self.activation == "tanh":
            return np.tanh(self._pre_activation)
        return self._pre_activation

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self.activation == "tanh":
            grad_pre = grad_output * (1.0 - np.tanh(self._pre_activation) ** 2)
        else:
            grad_pre = grad_output
        if self.weight.shape[0] >= 2:
            self.grad_weight += np.einsum("kf,kh->fh", self._input, grad_pre)
        else:
            for k in range(len(grad_pre)):
                self.grad_weight += np.einsum(
                    "kf,kh->fh", self._input[k : k + 1], grad_pre[k : k + 1]
                )
        for row in grad_pre:
            self.grad_bias += row
        return np.einsum("kh,fh->kf", grad_pre, self.weight)

    def zero_grad(self) -> None:
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)


class OracleNetwork:
    """A per-layer twin of a :class:`MultiHeadPolicyNetwork`, with copied weights.

    The forward evaluates the heads as one concatenated layer, exactly as
    the production forward does; only the backward works head by head.
    """

    def __init__(self, network: MultiHeadPolicyNetwork):
        named = {name: weight.copy() for name, weight in network.named_parameters()}
        self.layout = network.layout

        def layer(prefix: str, activation: str) -> OracleLayer:
            return OracleLayer(named[f"{prefix}.weight"], named[f"{prefix}.bias"], activation)

        self.trunk = [layer(f"trunk.{i}", "tanh") for i in range(len(network.trunk))]
        self.heads = {name: layer(f"head.{name}", "linear") for name in self.layout.names}
        self.value_head = layer("value", "linear")

    def forward_batch(self, observations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        hidden = np.asarray(observations, dtype=np.float64)
        for layer in self.trunk:
            hidden = layer.forward(hidden)
        self._head_input = hidden
        weight = np.concatenate([head.weight for head in self.heads.values()], axis=1)
        bias = np.concatenate([head.bias for head in self.heads.values()])
        logits = np.einsum("kf,fh->kh", hidden, weight) + bias
        return self.layout.softmax(logits), self.value_head.forward(hidden)[:, 0]

    def backward(self, head_grad_logits: np.ndarray, value_grad: np.ndarray) -> None:
        grads = np.asarray(head_grad_logits, dtype=np.float64)
        grad_hidden = np.zeros_like(self._head_input)
        for layer, (_, start, stop) in zip(self.heads.values(), self.layout.slots.values()):
            layer._input = self._head_input
            grad_hidden = grad_hidden + layer.backward(
                np.ascontiguousarray(grads[:, start:stop])
            )
        value_column = np.asarray(value_grad, dtype=np.float64).reshape(-1, 1)
        grad_hidden = grad_hidden + self.value_head.backward(value_column)
        for layer in reversed(self.trunk):
            grad_hidden = layer.backward(grad_hidden)

    def layers(self) -> list[OracleLayer]:
        return [*self.trunk, *self.heads.values(), self.value_head]

    def zero_grad(self) -> None:
        for layer in self.layers():
            layer.zero_grad()

    def parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        pairs = []
        for layer in self.layers():
            pairs += [(layer.weight, layer.grad_weight), (layer.bias, layer.grad_bias)]
        return pairs


class OracleAdam:
    """Adam over each parameter on its own, with the global-norm clip."""

    def __init__(self, learning_rate: float, clip_norm: float | None):
        self.learning_rate = learning_rate
        self.beta1, self.beta2, self.epsilon = 0.9, 0.999, 1e-8
        self.clip_norm = clip_norm
        self.step_count = 0
        self.moments: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def step(self, parameters: list[tuple[np.ndarray, np.ndarray]]) -> None:
        self.step_count += 1
        scale = 1.0
        if self.clip_norm is not None:
            total = 0.0
            for _, grad in parameters:
                total += float(np.sum(grad * grad))
            norm = np.sqrt(total)
            if not (norm <= self.clip_norm or norm == 0.0):
                scale = self.clip_norm / norm
        for weight, grad in parameters:
            if id(weight) not in self.moments:
                self.moments[id(weight)] = (np.zeros_like(weight), np.zeros_like(weight))
            m, v = self.moments[id(weight)]
            g = grad * scale
            m[...] = self.beta1 * m + (1 - self.beta1) * g
            v[...] = self.beta2 * v + (1 - self.beta2) * (g * g)
            m_hat = m / (1 - self.beta1**self.step_count)
            v_hat = v / (1 - self.beta2**self.step_count)
            weight -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)


def accumulate_whole_batch(
    network: OracleNetwork,
    policy: CategoricalPolicy,
    decisions,
    advantages,
    value_targets,
    entropy_coefficient: float = 0.01,
    value_coefficient: float = 0.5,
) -> None:
    """The policy-gradient update's gradients, as accumulated before the fused
    backward: one forward and bias fold of every row (with *policy*'s fold),
    then *network*'s per-layer backward."""
    observations = np.stack([decision.observation for decision in decisions])
    probabilities, values = network.forward_batch(observations)
    probs = policy._fold_biases(probabilities, [decision.biases for decision in decisions])
    layout = network.layout
    chosen = np.array(
        [[decision.indices[name] for name in layout.names] for decision in decisions]
    )
    one_hot = np.zeros_like(probs)
    one_hot[np.arange(len(decisions))[:, None], chosen + layout.offsets] = 1.0
    grad = np.asarray(advantages, dtype=np.float64)[:, None] * (probs - one_hot)
    log_p = np.log(np.maximum(probs, 1e-12))
    negative_entropy = np.add.reduceat(probs * log_p, layout.offsets, axis=-1)
    grad += entropy_coefficient * probs * (log_p - negative_entropy[:, layout.owner])
    value_grads = value_coefficient * 2.0 * (
        values - np.asarray(value_targets, dtype=np.float64)
    )
    network.backward(grad, value_grads)


def accumulate_sequentially(
    policy: CategoricalPolicy,
    decisions,
    advantages,
    value_targets,
    entropy_coefficient: float = 0.01,
    value_coefficient: float = 0.5,
) -> None:
    """Accumulate the gradients of *decisions* one decision per call, in order."""
    for decision, advantage, target in zip(decisions, advantages, value_targets):
        policy.accumulate_gradient_batch(
            [decision],
            [advantage],
            [target],
            entropy_coefficient=entropy_coefficient,
            value_coefficient=value_coefficient,
        )
