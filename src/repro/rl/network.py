"""A small numpy neural-network library for the DRL agents.

The paper builds on ChainerRL; offline we implement the minimal pieces the
exploration agents need: dense layers with tanh activations, a shared trunk
feeding several softmax heads (the "multi-softmax" pre-output layer of
Figure 2), a value head for the baseline, and manual backpropagation.

A network keeps every parameter in one contiguous float64 buffer and every
gradient in a second buffer of the same layout (see
:class:`MultiHeadPolicyNetwork`), so ``zero_grad`` is one ``fill`` and the
optimiser (:mod:`repro.rl.optimizer`) updates all weights in one pass.

Forward passes accept either one observation vector or a ``(K, F)`` batch
(:meth:`MultiHeadPolicyNetwork.forward_batch`), which is how the vectorised
rollout collector (:mod:`repro.explore.rollouts`) evaluates K environments
in one pass.  The affine kernels deliberately route through ``np.einsum``
instead of BLAS matmul: OpenBLAS GEMM picks different micro-kernels for
different batch shapes, so row ``k`` of a ``(K, F) @ W`` product is *not*
bit-identical to the same row computed alone, while einsum's fixed reduction
order is.  That row-independence is what lets a K-env batched rollout
reproduce K sequential rollouts bit-for-bit (an explicit acceptance test).
:func:`stacked_forward` evaluates one batch whose rows belong to different
networks of one architecture: each network forwards its own rows on its own
weights through the same kernels, without touching its layer caches.

The backward pass keeps the same discipline: every gradient reduces over
the batch in row order, so K rows at once equal K single-row passes bit
for bit (see :meth:`MultiHeadPolicyNetwork.backward`).
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

    The parameters and their gradients are views into the owning network's
    flat buffers.  Forward/backward operate on 2-D ``(K, fan_in)`` batches;
    a batch of one is the single-observation case.
    """

    weight: np.ndarray
    bias: np.ndarray
    grad_weight: np.ndarray = field(repr=False)
    grad_bias: np.ndarray = field(repr=False)
    activation: str = "tanh"
    # forward cache
    _input: np.ndarray = field(default=None, repr=False)
    _output: np.ndarray = field(default=None, repr=False)

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        """The layer output; with *cache*, input and output are kept for :meth:`backward`."""
        output = _affine(x, self.weight, self.bias)
        output = np.tanh(output) if self.activation == "tanh" else output
        if cache:
            self._input, self._output = x, output
        return output

    def backward(self, grad_output: np.ndarray, input_gradient: bool = True):
        """Accumulate parameter gradients; return the gradient wrt the input
        (``None`` without *input_gradient*).

        Every reduction over the batch runs in row order, as K single-row
        calls would: einsum accumulates in k order for ``fan_in >= 2``, but
        its single-column special case reorders the sum, so one-column
        inputs take a row loop and the bias a ``cumsum`` fold.
        """
        tanh = self.activation == "tanh"
        grad_pre = grad_output * (1.0 - self._output**2) if tanh else grad_output
        if self.weight.shape[0] >= 2:
            self.grad_weight += np.einsum("kf,kh->fh", self._input, grad_pre)
        else:
            for k in range(len(grad_pre)):
                self.grad_weight += np.einsum(
                    "kf,kh->fh", self._input[k : k + 1], grad_pre[k : k + 1]
                )
        self.grad_bias += np.cumsum(grad_pre, axis=0)[-1]
        return np.einsum("kh,fh->kf", grad_pre, self.weight) if input_gradient else None


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
        exp = np.exp(logits - peak.take(self.owner, axis=-1))
        return exp / np.add.reduceat(exp, self.offsets, axis=-1).take(self.owner, axis=-1)

    def grid(self, rows: np.ndarray) -> np.ndarray:
        """``(K, T)`` rows laid out as a ``(K, H, width)`` grid, padded with zeros."""
        grid = np.zeros((len(rows), len(self.names) * self.width))
        grid[:, self.cells] = rows
        return grid.reshape(len(rows), len(self.names), self.width)

    def split(self, row: np.ndarray) -> dict[str, np.ndarray]:
        """Per-head views of one concatenated row (or of a batch's columns)."""
        return {name: row[..., start:stop] for name, (_, start, stop) in self.slots.items()}


def architecture_signature(network: "MultiHeadPolicyNetwork") -> tuple:
    """A hashable key of everything :func:`stacked_forward` needs to agree on.

    Networks with equal signatures have identically-shaped parameters (same
    observation size, trunk widths, and heads in the same order), so their
    rows share one head layout and one decision pass.  Weight *values* are
    deliberately excluded — the whole point is batching across networks
    with different weights.
    """
    return (
        network.observation_size,
        network.hidden_sizes,
        tuple(network.head_sizes.items()),
    )


def stacked_forward(
    networks: "list[MultiHeadPolicyNetwork]",
    net_index: np.ndarray,
    observations: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One forward pass over rows belonging to *different* networks.

    ``net_index[r]`` names the network (an index into *networks*) whose
    weights evaluate row ``r`` of *observations*.  The rows of each network
    run through that network's own affine kernels, those of
    :meth:`MultiHeadPolicyNetwork.forward_batch`, and their outputs are put
    back in row order.  Rows are independent, so row ``r`` is bit-identical
    to ``networks[net_index[r]]`` evaluating that observation alone (an
    explicit acceptance test), and no weights are copied.  This is what
    lets the continuous batcher fuse policy forwards of concurrent requests
    that each train their *own* network.

    Returns the concatenated head probabilities ``(R, T)`` (see
    :class:`HeadLayout`) and the state values ``(R,)``.

    Unlike a plain :meth:`~MultiHeadPolicyNetwork.forward_batch` this
    touches no layer caches: the owning request threads re-run their own
    forwards at gradient time, and the wave thread must never mutate their
    state.
    """
    if not networks:
        raise ValueError("stacked_forward needs at least one network")
    signatures = {architecture_signature(network) for network in networks}
    if len(signatures) > 1:
        raise ValueError(
            "stacked_forward needs architecturally identical networks; "
            f"got {len(signatures)} distinct signatures"
        )
    hidden = np.asarray(observations, dtype=np.float64)
    if hidden.ndim != 2:
        raise ValueError(f"expected a (R, F) batch, got shape {hidden.shape}")
    index = np.asarray(net_index, dtype=np.intp)
    if index.shape != (len(hidden),):
        raise ValueError("need one network index per observation row")
    if len(index) and not 0 <= index.min() <= index.max() < len(networks):
        raise ValueError(f"network index out of range for {len(networks)} networks")
    probabilities = np.empty((len(hidden), networks[0].layout.total))
    values = np.empty(len(hidden))
    for slot, network in enumerate(networks):
        rows = np.flatnonzero(index == slot)
        if len(rows):
            probabilities[rows], values[rows] = network.forward_batch(
                hidden[rows], cache=False
            )
    return probabilities, values


class MultiHeadPolicyNetwork:
    """Shared MLP trunk with one softmax head per action component and a value head.

    ``head_sizes`` maps head name -> number of discrete choices.  The head
    layers are stored as ONE concatenated ``(hidden, T)`` weight and ``(T,)``
    bias (:attr:`head_layer`, segments per :attr:`layout`); each
    ``heads[name].weight`` / ``.bias`` is a view of its segment, so
    parameter names, shapes and order are those of independent head layers.
    The forward pass returns the concatenated per-head probabilities plus a
    scalar state-value estimate used as the policy-gradient baseline.

    All parameters live in :attr:`buffer` and all gradients in
    :attr:`grad_buffer`, laid out layer by layer (trunk layers, the head
    block, the value head; weight then bias each).  Every layer's and
    head's weight, bias and gradient is a view into one of them.
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
        widths = (observation_size, *self.hidden_sizes)
        shapes = [*zip(widths, widths[1:]), (widths[-1], self.layout.total), (widths[-1], 1)]
        size = sum(fan_in * fan_out + fan_out for fan_in, fan_out in shapes)
        self.buffer, self.grad_buffer = np.zeros(size), np.zeros(size)
        layers, offset = [], 0
        for fan_in, fan_out in shapes:
            middle, stop = offset + fan_in * fan_out, offset + (fan_in + 1) * fan_out
            views = [
                (flat[offset:middle].reshape(fan_in, fan_out), flat[middle:stop])
                for flat in (self.buffer, self.grad_buffer)
            ]
            layers.append(DenseLayer(*views[0], *views[1]))
            offset = stop
        *self.trunk, self.head_layer, self.value_head = layers
        self.head_layer.activation = self.value_head.activation = "linear"
        # Initialise in the order of independent layers: trunk, heads, value.
        for layer in self.trunk:
            layer.weight[...] = _init_weight(rng, *layer.weight.shape)
        head = self.head_layer
        columns = (head.weight, head.bias, head.grad_weight, head.grad_bias)
        self.heads: dict[str, DenseLayer] = {}
        for name, (_, start, stop) in self.layout.slots.items():
            head.weight[:, start:stop] = _init_weight(rng, widths[-1], stop - start)
            self.heads[name] = DenseLayer(*(array[..., start:stop] for array in columns), "linear")
        self.value_head.weight[...] = _init_weight(rng, widths[-1], 1)
        #: ``(name, weight, gradient)`` per parameter, in :meth:`parameters` order.
        self._named: list[tuple[str, np.ndarray, np.ndarray]] = []
        named_layers = [(f"trunk.{index}", layer) for index, layer in enumerate(self.trunk)]
        named_layers += [(f"head.{name}", layer) for name, layer in self.heads.items()]
        for prefix, layer in named_layers + [("value", self.value_head)]:
            self._named.append((f"{prefix}.weight", layer.weight, layer.grad_weight))
            self._named.append((f"{prefix}.bias", layer.bias, layer.grad_bias))

    # -- forward --------------------------------------------------------------------------
    def forward_batch(
        self, observations: np.ndarray, cache: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated head probabilities ``(K, T)`` and state values ``(K,)``.

        Row ``k`` of every output is bit-identical to :meth:`forward`
        applied to ``observations[k]`` alone (the affine kernels have
        batch-shape-independent reduction order and the segment softmax is
        row-local), so batched rollouts reproduce sequential ones exactly.
        Without *cache* the layer caches :meth:`backward` reads are left as
        they were.
        """
        hidden = np.asarray(observations, dtype=np.float64)
        if hidden.ndim != 2:
            raise ValueError(f"expected a (K, F) batch, got shape {hidden.shape}")
        for layer in self.trunk:
            hidden = layer.forward(hidden, cache)
        probabilities = self.layout.softmax(self.head_layer.forward(hidden, cache))
        values = self.value_head.forward(hidden, cache)[:, 0]
        return probabilities, values

    def repeat_rows(self, observations: np.ndarray, rows: np.ndarray) -> None:
        """Expand the last forward's layer caches to the batch *observations*,
        whose row ``k`` repeats row ``rows[k]`` of the forwarded batch.

        Forward rows are independent, so the gathered caches are bit for
        bit those a forward of *observations* itself would leave.
        """
        hidden = observations
        for layer in self.trunk:
            layer._input, hidden = hidden, layer._output[rows]
            layer._output = hidden
        for layer in (self.head_layer, self.value_head):
            layer._input, layer._output = hidden, layer._output[rows]

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
        (every kernel reduces over the batch in row order).

        The head block's weight and bias gradients are one fused pass over
        all T columns (each column reduces over the rows alone, exactly as
        a head's own layer would).  Its input gradient is one einsum per
        head, summed in head order.  The first trunk layer's input gradient
        would be discarded, so it is never computed.

        The caller is responsible for converting policy-gradient losses into
        gradients with respect to the head logits (see
        :class:`repro.rl.policy.CategoricalPolicy`).
        """
        grads = np.asarray(head_grad_logits, dtype=np.float64)
        if grads.ndim == 1:
            grads = grads[None, :]
        value_column = np.asarray(value_grad, dtype=np.float64).reshape(-1, 1)
        self.head_layer.backward(grads, input_gradient=False)
        grad_hidden = np.zeros_like(self.head_layer._input)
        for head, (_, start, stop) in zip(self.heads.values(), self.layout.slots.values()):
            grad_hidden += np.einsum("kh,fh->kf", grads[:, start:stop], head.weight)
        grad_hidden += self.value_head.backward(value_column)
        for index in reversed(range(len(self.trunk))):
            grad_hidden = self.trunk[index].backward(grad_hidden, input_gradient=index > 0)

    def zero_grad(self) -> None:
        self.grad_buffer.fill(0.0)

    def parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(weight, gradient)`` views per parameter, in :meth:`named_parameters`
        order; they tile :attr:`buffer` and :attr:`grad_buffer`."""
        return [(weight, grad) for _, weight, grad in self._named]

    def weights(self) -> list[np.ndarray]:
        """Every weight array in :meth:`parameters` order, without the gradients."""
        return [weight for _, weight, _ in self._named]

    def num_parameters(self) -> int:
        return self.buffer.size

    # -- structural state export/import ---------------------------------------------------
    def named_parameters(self) -> list[tuple[str, np.ndarray]]:
        """Every weight array with a stable name, in :meth:`parameters` order.

        The order (trunk layers, heads in insertion order, value head; weight
        then bias each) is the contract checkpoints and optimizer-state
        serialization rely on.
        """
        return [(name, weight) for name, weight, _ in self._named]

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
