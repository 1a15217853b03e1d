"""The Adam optimiser for the numpy policy networks.

A policy network hands out its parameters as views that tile one flat
buffer (see :class:`~repro.rl.network.MultiHeadPolicyNetwork`), and
:meth:`Adam.step` then updates that buffer in one pass of in-place ufuncs.
Any other ``(weight, grad)`` list goes through the same loop, one buffer per
pair.  The update is elementwise and keeps the per-parameter operation
order, so both routes compute the same bits.

The clip norm is the one reduction.  It stays the sum, over parameters in
list order, of ``np.sum(g * g)`` per parameter: one sum over the flat buffer
would group the additions differently and change the norm's last bit.
"""

from __future__ import annotations

import numpy as np


class Adam:
    """Adam optimiser (Kingma & Ba, 2015) over in-place numpy parameters."""

    def __init__(
        self,
        learning_rate: float = 0.003,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
        clip_norm: float | None = 5.0,
    ):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.clip_norm = clip_norm
        self._step = 0
        #: First and second moments per updated buffer, keyed by its identity.
        self._moments: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def step(self, parameters: list[tuple[np.ndarray, np.ndarray]]) -> None:
        self._step += 1
        scale = _clip_scale(parameters, self.clip_norm)
        correction1 = 1 - self.beta1**self._step
        correction2 = 1 - self.beta2**self._step
        for weight, grad in _buffers(parameters):
            if id(weight) not in self._moments:
                self._moments[id(weight)] = (np.zeros_like(weight), np.zeros_like(weight))
            m, v = self._moments[id(weight)]
            g = grad * scale
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            g *= g
            g *= 1 - self.beta2
            v += g
            update = m / correction1
            update *= self.learning_rate
            denominator = np.divide(v, correction2, out=g)
            np.sqrt(denominator, out=denominator)
            denominator += self.epsilon
            update /= denominator
            weight -= update

    # -- structural state export/import ------------------------------------------------
    def export_state(self, weights: list[np.ndarray]) -> dict[str, object]:
        """Serialize the optimiser state aligned to *weights* order.

        The moment table is keyed by buffer identity, which does not survive
        a process boundary; exporting projects it onto the caller's weight
        order (the network's :meth:`~repro.rl.network.MultiHeadPolicyNetwork.weights`,
        which is ``parameters()`` order), one entry per parameter also when
        the moments are one flat buffer.  Weights the optimiser has not seen
        yet export as ``None``.
        """
        moments = []
        for entry in _per_parameter(weights, self._moments):
            m, v = entry or (None, None)
            moments.append(None if m is None else (m.dtype.str, m.shape, m.tobytes(), v.tobytes()))
        return {"step": self._step, "moments": moments}

    def load_state(self, weights: list[np.ndarray], state: dict[str, object]) -> None:
        """Restore an :meth:`export_state` payload against *weights*.

        Bit-identical resume: the restored moments and step counter make the
        next :meth:`step` compute exactly what an uninterrupted run would.
        """
        moments: list = state["moments"]  # type: ignore[assignment]
        if len(moments) != len(weights):
            raise ValueError(
                f"optimizer state covers {len(moments)} parameters, got {len(weights)}"
            )
        seen = [weight for weight, entry in zip(weights, moments) if entry is not None]
        buffer = _tiled(weights)
        owners = [buffer] if buffer is not None and seen else seen
        rebuilt = {id(owner): (np.zeros_like(owner), np.zeros_like(owner)) for owner in owners}
        for views, entry in zip(_per_parameter(weights, rebuilt), moments):
            if entry is None:
                continue
            dtype_str, shape, *raws = entry
            for view, raw in zip(views, raws):
                loaded = np.frombuffer(raw, dtype=np.dtype(dtype_str)).reshape(shape)
                if loaded.shape != view.shape:
                    raise ValueError(
                        f"moment shape {loaded.shape} does not match parameter shape "
                        f"{view.shape}"
                    )
                view[...] = loaded
        self._step = int(state["step"])
        self._moments = rebuilt


def _tiled(arrays: list[np.ndarray]) -> np.ndarray | None:
    """The one flat buffer that *arrays* are views of and together cover, or ``None``."""
    base = arrays[0].base if arrays else None
    if (
        base is None
        or base.ndim != 1
        or any(array.base is not base for array in arrays)
        or sum(array.size for array in arrays) != base.size
    ):
        return None
    return base


def _buffers(
    parameters: list[tuple[np.ndarray, np.ndarray]],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The ``(weight, grad)`` buffers one step updates: the two flat buffers
    *parameters* tile, or else every pair on its own."""
    weights = _tiled([weight for weight, _ in parameters])
    grads = _tiled([grad for _, grad in parameters])
    if weights is None or grads is None:
        return parameters
    return [(weights, grads)]


def _per_parameter(weights: list[np.ndarray], moments: dict) -> list:
    """Each weight's ``(m, v)`` in the moment table *moments*, or ``None``; a
    flat buffer's moments are cut into views laid out like *weights*."""
    buffer = _tiled(weights)
    if buffer is None:
        return [moments.get(id(weight)) for weight in weights]
    start = buffer.__array_interface__["data"][0]
    return [
        tuple(
            np.ndarray(w.shape, w.dtype, m, w.__array_interface__["data"][0] - start, w.strides)
            for m in moments.get(id(buffer), ())
        )
        or None
        for w in weights
    ]


def _clip_scale(
    parameters: list[tuple[np.ndarray, np.ndarray]], clip_norm: float | None
) -> float:
    """Global-norm gradient clipping factor (1.0 when clipping is off or unnecessary)."""
    if clip_norm is None:
        return 1.0
    total = 0.0
    for _, grad in parameters:
        total += float(np.add.reduce(grad * grad, axis=None))  # np.sum, minus its wrapper
    norm = np.sqrt(total)
    if norm <= clip_norm or norm == 0.0:
        return 1.0
    return clip_norm / norm
