"""A small numpy neural-network library for the DRL agents.

The paper builds on ChainerRL; offline we implement the minimal pieces the
exploration agents need: dense layers with tanh activations, a shared trunk
feeding several softmax heads (the "multi-softmax" pre-output layer of
Figure 2), a value head for the baseline, and manual backpropagation.

All parameters live in plain numpy arrays so the optimiser
(:mod:`repro.rl.optimizer`) can update them in place.

Forward passes accept either one observation vector or a ``(K, F)`` batch
(:meth:`MultiHeadPolicyNetwork.forward_batch`), which is how the vectorised
rollout collector (:mod:`repro.explore.rollouts`) evaluates K environments
in one pass.  The affine kernels deliberately route through ``np.einsum``
instead of BLAS matmul: OpenBLAS GEMM picks different micro-kernels for
different batch shapes, so row ``k`` of a ``(K, F) @ W`` product is *not*
bit-identical to the same row computed alone, while einsum's fixed reduction
order is.  That row-independence is what lets a K-env batched rollout
reproduce K sequential rollouts bit-for-bit (an explicit acceptance test).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np


def _init_weight(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Xavier/Glorot uniform initialisation."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _affine(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """``x @ weight + bias`` with a batch-shape-independent reduction order.

    ``x`` must be 2-D ``(K, fan_in)``; the result row for any observation is
    bit-identical whether it is computed in a batch of 1 or a batch of K.
    """
    return np.einsum("kf,fh->kh", x, weight) + bias


@dataclass
class DenseLayer:
    """A fully-connected layer ``y = x @ W + b`` with optional tanh activation.

    Forward/backward operate on 2-D ``(K, fan_in)`` batches; a batch of one
    is the single-observation case.
    """

    weight: np.ndarray
    bias: np.ndarray
    activation: str = "tanh"
    # forward cache
    _input: np.ndarray = field(default=None, repr=False)
    _pre_activation: np.ndarray = field(default=None, repr=False)
    # gradients
    grad_weight: np.ndarray = field(default=None, repr=False)
    grad_bias: np.ndarray = field(default=None, repr=False)

    @classmethod
    def create(
        cls, rng: np.random.Generator, fan_in: int, fan_out: int, activation: str = "tanh"
    ) -> "DenseLayer":
        return cls(
            weight=_init_weight(rng, fan_in, fan_out),
            bias=np.zeros(fan_out),
            activation=activation,
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim == 1:
            x = x[None, :]
        self._input = x
        self._pre_activation = _affine(x, self.weight, self.bias)
        if self.activation == "tanh":
            return np.tanh(self._pre_activation)
        if self.activation == "linear":
            return self._pre_activation
        raise ValueError(f"unknown activation {self.activation!r}")

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Accumulate parameter gradients and return the gradient wrt the input.

        Like the forward pass, every reduction is batch-shape independent:
        backpropagating a ``(K, fan_out)`` gradient batch in one call is
        bit-identical to K single-row calls in row order.  The weight
        gradient reduces over the batch via einsum (whose k-order
        accumulation matches a sequential row-by-row ``+=`` for
        ``fan_in >= 2``; one-column inputs fall back to an explicit loop,
        as does the bias, whose single-column einsum special case reorders
        the sum).
        """
        if grad_output.ndim == 1:
            grad_output = grad_output[None, :]
        if self.activation == "tanh":
            grad_pre = grad_output * (1.0 - np.tanh(self._pre_activation) ** 2)
        else:
            grad_pre = grad_output
        if self.grad_weight is None:
            self.grad_weight = np.zeros_like(self.weight)
            self.grad_bias = np.zeros_like(self.bias)
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

    def parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        if self.grad_weight is None:
            self.zero_grad()
        return [(self.weight, self.grad_weight), (self.bias, self.grad_bias)]


class HeadLayout:
    """Where each softmax head lives in the concatenated ``(K, T)`` head row.

    Head ``h`` owns the columns ``offsets[h] : offsets[h] + sizes[h]`` of a
    row of ``T = sum(sizes)`` entries, in head order.  Every segment-wise
    kernel reduces along that contiguous last axis — ``np.maximum.reduceat``
    / ``np.add.reduceat`` per segment, ``np.cumsum`` inside the padded
    ``(K, H, width)`` grid — so row ``k`` of every output is computed from
    row ``k`` of the input alone, whatever the batch size.
    """

    def __init__(self, head_sizes: Mapping[str, int]):
        self.names = tuple(head_sizes)
        self.sizes = np.array([int(size) for size in head_sizes.values()], dtype=np.intp)
        if len(self.sizes) == 0 or self.sizes.min() < 1:
            raise ValueError(f"every head needs at least one choice: {dict(head_sizes)}")
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)[:-1]]).astype(np.intp)
        self.total = int(self.sizes.sum())
        self.width = int(self.sizes.max())
        #: Head position of every column.
        self.owner = np.repeat(np.arange(len(self.names)), self.sizes)
        #: Flat position of every column in the ``(H, width)`` grid.
        self.cells = self.owner * self.width + (np.arange(self.total) - self.offsets[self.owner])
        #: ``name -> (head position, start column, stop column)``.
        self.slots = {
            name: (position, int(start), int(start + size))
            for position, (name, start, size) in enumerate(
                zip(self.names, self.offsets, self.sizes)
            )
        }

    def softmax(self, logits: np.ndarray) -> np.ndarray:
        """Numerically stable softmax of every head segment of a ``(K, T)`` batch."""
        peak = np.maximum.reduceat(logits, self.offsets, axis=-1)
        exp = np.exp(logits - peak[:, self.owner])
        return exp / np.add.reduceat(exp, self.offsets, axis=-1)[:, self.owner]

    def grid(self, rows: np.ndarray, fill: float) -> np.ndarray:
        """``(K, T)`` rows laid out as a ``(K, H, width)`` grid, padded with *fill*."""
        grid = np.full((len(rows), len(self.names) * self.width), fill)
        grid[:, self.cells] = rows
        return grid.reshape(len(rows), len(self.names), self.width)

    def split(self, row: np.ndarray) -> dict[str, np.ndarray]:
        """Per-head views of one concatenated row (or of a batch's columns)."""
        return {name: row[..., start:stop] for name, (_, start, stop) in self.slots.items()}


def architecture_signature(network: "MultiHeadPolicyNetwork") -> tuple:
    """A hashable key of everything :func:`stacked_forward` needs to agree on.

    Networks with equal signatures have identically-shaped parameters (same
    observation size, trunk widths, and heads in the same order), so their
    weights can be stacked along a leading axis and evaluated in one
    gathered-weight pass.  Weight *values* are deliberately excluded — the
    whole point is batching across networks with different weights.
    """
    return (
        network.observation_size,
        network.hidden_sizes,
        tuple(network.head_sizes.items()),
    )


def stack_parameters(
    networks: "list[MultiHeadPolicyNetwork]",
) -> dict[str, object]:
    """Stack the weights of architecturally identical networks per layer.

    Returns the gathered-weight operands of :func:`stacked_forward`: one
    ``(N, fan_in, fan_out)`` weight stack and ``(N, fan_out)`` bias stack
    per trunk layer, for the concatenated head layer, and for the value
    head.  Stacking copies every member's parameters, which at small wave
    sizes costs several times the forward einsum itself — callers firing
    many waves over the same member set should cache the result keyed by
    each network's ``weights_version`` (the continuous batcher does).
    """
    if not networks:
        raise ValueError("stacked_forward needs at least one network")
    signatures = {architecture_signature(network) for network in networks}
    if len(signatures) > 1:
        raise ValueError(
            "stacked_forward needs architecturally identical networks; "
            f"got {len(signatures)} distinct signatures"
        )

    def stack(layers: list[DenseLayer]) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.stack([layer.weight for layer in layers]),
            np.stack([layer.bias for layer in layers]),
        )

    return {
        "trunk": [
            stack([network.trunk[i] for network in networks])
            for i in range(len(networks[0].trunk))
        ],
        "heads": stack([network.head_layer for network in networks]),
        "value": stack([network.value_head for network in networks]),
    }


def stacked_forward(
    networks: "list[MultiHeadPolicyNetwork]",
    net_index: np.ndarray,
    observations: np.ndarray,
    stacks: dict[str, object] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One forward pass over rows belonging to *different* networks.

    ``net_index[r]`` names the network (an index into *networks*) whose
    weights evaluate row ``r`` of *observations*.  Per layer the member
    weights are stacked ``(N, fan_in, fan_out)`` and gathered per row, and
    the affine kernel becomes ``einsum("rf,rfh->rh", x, W[net_index])`` —
    like :func:`_affine` a sum over the contiguous ``f`` axis in fixed
    order, so row ``r`` is bit-identical to ``networks[net_index[r]]``
    evaluating that observation alone (an explicit acceptance test).  This
    is what lets the continuous batcher fuse policy forwards of concurrent
    requests that each train their *own* network.

    Returns the concatenated head probabilities ``(R, T)`` (see
    :class:`HeadLayout`) and the state values ``(R,)``.

    ``stacks`` short-circuits the per-call :func:`stack_parameters` with a
    cached copy; it MUST have been built from *networks* in this order
    with the current weight values.

    Unlike :meth:`MultiHeadPolicyNetwork.forward_batch` this touches no
    layer caches: the owning request threads re-run their own forwards at
    gradient time, and the wave thread must never mutate their state.
    """
    if stacks is None:
        stacks = stack_parameters(networks)
    hidden = np.asarray(observations, dtype=np.float64)
    if hidden.ndim != 2:
        raise ValueError(f"expected a (R, F) batch, got shape {hidden.shape}")
    index = np.asarray(net_index, dtype=np.intp)
    if index.shape != (len(hidden),):
        raise ValueError("need one network index per observation row")

    def gathered_affine(stack: tuple[np.ndarray, np.ndarray], x: np.ndarray):
        weight, bias = stack
        return np.einsum("rf,rfh->rh", x, weight[index]) + bias[index]

    for trunk_stack in stacks["trunk"]:
        hidden = np.tanh(gathered_affine(trunk_stack, hidden))
    probabilities = networks[0].layout.softmax(gathered_affine(stacks["heads"], hidden))
    values = gathered_affine(stacks["value"], hidden)[:, 0]
    return probabilities, values


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


class MultiHeadPolicyNetwork:
    """Shared MLP trunk with one softmax head per action component and a value head.

    ``head_sizes`` maps head name -> number of discrete choices.  The head
    layers are stored as ONE concatenated ``(hidden, T)`` weight and ``(T,)``
    bias (:attr:`head_layer`, segments per :attr:`layout`); each
    ``heads[name].weight`` / ``.bias`` is a view of its segment, so
    parameter names, shapes and order are those of independent head layers.
    The forward pass returns the concatenated per-head probabilities plus a
    scalar state-value estimate used as the policy-gradient baseline.
    """

    def __init__(
        self,
        observation_size: int,
        head_sizes: Mapping[str, int],
        hidden_sizes: tuple[int, ...] = (64, 64),
        seed: int = 0,
    ):
        rng = np.random.default_rng(seed)
        self.observation_size = observation_size
        self.head_sizes = dict(head_sizes)
        self.hidden_sizes = tuple(hidden_sizes)
        self.layout = HeadLayout(self.head_sizes)
        self.trunk: list[DenseLayer] = []
        fan_in = observation_size
        for size in hidden_sizes:
            self.trunk.append(DenseLayer.create(rng, fan_in, size, activation="tanh"))
            fan_in = size
        self.head_layer = DenseLayer(
            weight=np.empty((fan_in, self.layout.total)),
            bias=np.zeros(self.layout.total),
            activation="linear",
        )
        self.heads: dict[str, DenseLayer] = {}
        for name, (_, start, stop) in self.layout.slots.items():
            self.head_layer.weight[:, start:stop] = _init_weight(rng, fan_in, stop - start)
            self.heads[name] = DenseLayer(
                weight=self.head_layer.weight[:, start:stop],
                bias=self.head_layer.bias[start:stop],
                activation="linear",
            )
        self.value_head = DenseLayer.create(rng, fan_in, 1, activation="linear")
        #: Monotonic counter identifying the current weight values; bumped
        #: whenever the parameter buffers may have been mutated (optimiser
        #: steps reach them through :meth:`parameters`, checkpoint restore
        #: through :meth:`load_state`).  Caches of derived weight data —
        #: the continuous batcher's per-wave weight stacks — key on
        #: ``(id(network), weights_version)`` and so never serve stale
        #: parameters.
        self.weights_version = 0

    # -- forward --------------------------------------------------------------------------
    def forward_batch(self, observations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated head probabilities ``(K, T)`` and state values ``(K,)``.

        Row ``k`` of every output is bit-identical to :meth:`forward`
        applied to ``observations[k]`` alone (the affine kernels have
        batch-shape-independent reduction order and the segment softmax is
        row-local), so batched rollouts reproduce sequential ones exactly.
        """
        hidden = np.asarray(observations, dtype=np.float64)
        if hidden.ndim != 2:
            raise ValueError(f"expected a (K, F) batch, got shape {hidden.shape}")
        for layer in self.trunk:
            hidden = layer.forward(hidden)
        probabilities = self.layout.softmax(self.head_layer.forward(hidden))
        values = self.value_head.forward(hidden)[:, 0]
        return probabilities, values

    def forward(self, observation: np.ndarray) -> tuple[dict[str, np.ndarray], float]:
        """Return per-head probabilities and the state value for one observation."""
        probabilities, values = self.forward_batch(
            np.asarray(observation, dtype=np.float64)[None, :]
        )
        return self.layout.split(probabilities[0]), float(values[0])

    # -- backward -------------------------------------------------------------------------
    def backward(self, head_grad_logits: np.ndarray, value_grad: float | np.ndarray) -> None:
        """Backpropagate concatenated head-logit gradients and the value gradient.

        ``head_grad_logits`` is a ``(K, T)`` batch of logit-gradient rows
        laid out like the forward's probabilities (a 1-D row is a batch of
        one) and ``value_grad`` is the matching scalar or ``(K,)`` array.
        Each row must come from the corresponding row of the most recent
        forward batch — the layer caches hold that batch.  Backpropagating
        K rows at once is bit-identical to K sequential single-row calls
        (the layer kernels reduce over the batch in row order).

        The caller is responsible for converting policy-gradient losses into
        gradients with respect to the head logits (see
        :class:`repro.rl.policy.CategoricalPolicy`).
        """
        grads = np.asarray(head_grad_logits, dtype=np.float64)
        if grads.ndim == 1:
            grads = grads[None, :]
        head_input = self.head_layer._input
        grad_hidden = np.zeros_like(head_input)
        for layer, (_, start, stop) in zip(self.heads.values(), self.layout.slots.values()):
            layer._input = head_input
            grad_hidden = grad_hidden + layer.backward(
                np.ascontiguousarray(grads[:, start:stop])
            )
        value_column = np.asarray(value_grad, dtype=np.float64).reshape(-1, 1)
        grad_hidden = grad_hidden + self.value_head.backward(value_column)
        for layer in reversed(self.trunk):
            grad_hidden = layer.backward(grad_hidden)

    def zero_grad(self) -> None:
        for layer in self.trunk:
            layer.zero_grad()
        for head in self.heads.values():
            head.zero_grad()
        self.value_head.zero_grad()

    def parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        # Handing out the parameter buffers is how the optimiser mutates
        # them in place, so conservatively assume they change.
        self.weights_version += 1
        params: list[tuple[np.ndarray, np.ndarray]] = []
        for layer in self.trunk:
            params.extend(layer.parameters())
        for head in self.heads.values():
            params.extend(head.parameters())
        params.extend(self.value_head.parameters())
        return params

    def num_parameters(self) -> int:
        return sum(weight.size for weight, _ in self.parameters())

    # -- structural state export/import ---------------------------------------------------
    def named_parameters(self) -> list[tuple[str, np.ndarray]]:
        """Every weight array with a stable name, in :meth:`parameters` order.

        The order (trunk layers, heads in insertion order, value head; weight
        then bias each) is the contract checkpoints and optimizer-state
        serialization rely on.
        """
        named: list[tuple[str, np.ndarray]] = []
        for index, layer in enumerate(self.trunk):
            named.append((f"trunk.{index}.weight", layer.weight))
            named.append((f"trunk.{index}.bias", layer.bias))
        for name, head in self.heads.items():
            named.append((f"head.{name}.weight", head.weight))
            named.append((f"head.{name}.bias", head.bias))
        named.append(("value.weight", self.value_head.weight))
        named.append(("value.bias", self.value_head.bias))
        return named

    def export_state(self) -> list[tuple[str, str, tuple[int, ...], bytes]]:
        """The network weights as ``(name, dtype, shape, raw bytes)`` tuples.

        Structural serialization (no pickled arrays): reloading reconstructs
        the exact buffers, so an exported-and-reloaded network is bit-identical
        to the original.
        """
        return [
            (name, array.dtype.str, tuple(array.shape), array.tobytes())
            for name, array in self.named_parameters()
        ]

    def load_state(self, state: list[tuple[str, str, tuple[int, ...], bytes]]) -> None:
        """Load an :meth:`export_state` payload *in place*.

        In-place assignment keeps every existing alias valid — optimizer
        moments keyed by array identity, layers holding the same buffers —
        which is what makes checkpoint restore transparent to the trainer.
        Structural mismatches (different architecture, head set or dataset
        schema) raise :class:`ValueError` rather than loading garbage.
        """
        named = self.named_parameters()
        if len(state) != len(named):
            raise ValueError(
                f"state has {len(state)} buffers, network expects {len(named)}"
            )
        staged: list[tuple[np.ndarray, np.ndarray]] = []
        for (name, array), (saved_name, dtype_str, shape, raw) in zip(named, state):
            if saved_name != name:
                raise ValueError(
                    f"state buffer {saved_name!r} does not match network "
                    f"parameter {name!r}"
                )
            loaded = np.frombuffer(raw, dtype=np.dtype(dtype_str)).reshape(shape)
            if loaded.shape != array.shape:
                raise ValueError(
                    f"parameter {name!r}: stored shape {loaded.shape} does not "
                    f"match network shape {array.shape}"
                )
            staged.append((array, loaded))
        # All-or-nothing: validate every buffer before mutating any.
        for array, loaded in staged:
            array[...] = loaded
        self.weights_version += 1
