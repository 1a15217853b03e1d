"""Gradient-descent optimisers for the numpy policy networks."""

from __future__ import annotations

import numpy as np


class SGD:
    """Plain stochastic gradient descent with optional gradient clipping."""

    def __init__(self, learning_rate: float = 0.01, clip_norm: float | None = 5.0):
        self.learning_rate = learning_rate
        self.clip_norm = clip_norm

    def step(self, parameters: list[tuple[np.ndarray, np.ndarray]]) -> None:
        scale = _clip_scale(parameters, self.clip_norm)
        for weight, grad in parameters:
            weight -= self.learning_rate * scale * grad


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
        self._moments: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def step(self, parameters: list[tuple[np.ndarray, np.ndarray]]) -> None:
        self._step += 1
        scale = _clip_scale(parameters, self.clip_norm)
        for weight, grad in parameters:
            key = id(weight)
            if key not in self._moments:
                self._moments[key] = (np.zeros_like(weight), np.zeros_like(weight))
            m, v = self._moments[key]
            g = grad * scale
            m[...] = self.beta1 * m + (1 - self.beta1) * g
            v[...] = self.beta2 * v + (1 - self.beta2) * (g * g)
            m_hat = m / (1 - self.beta1**self._step)
            v_hat = v / (1 - self.beta2**self._step)
            weight -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)

    # -- structural state export/import ------------------------------------------------
    def export_state(self, weights: list[np.ndarray]) -> dict[str, object]:
        """Serialize the optimiser state aligned to *weights* order.

        The internal moment table is keyed by array identity, which does not
        survive a process boundary; exporting projects it onto the caller's
        weight order (the network's :meth:`~repro.rl.network.MultiHeadPolicyNetwork.weights`,
        which is :meth:`~repro.rl.network.MultiHeadPolicyNetwork.parameters`
        order).  Weights the optimiser has not seen yet export as ``None``.
        """
        moments: list[tuple[str, tuple[int, ...], bytes, bytes] | None] = []
        for weight in weights:
            entry = self._moments.get(id(weight))
            if entry is None:
                moments.append(None)
            else:
                m, v = entry
                moments.append((m.dtype.str, tuple(m.shape), m.tobytes(), v.tobytes()))
        return {"step": self._step, "moments": moments}

    def load_state(self, weights: list[np.ndarray], state: dict[str, object]) -> None:
        """Restore an :meth:`export_state` payload against *weights*.

        Bit-identical resume: the restored moments and step counter make the
        next :meth:`step` compute exactly what an uninterrupted run would.
        """
        moments = state["moments"]
        if len(moments) != len(weights):  # type: ignore[arg-type]
            raise ValueError(
                f"optimizer state covers {len(moments)} parameters, "  # type: ignore[arg-type]
                f"got {len(weights)}"
            )
        rebuilt: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for weight, entry in zip(weights, moments):  # type: ignore[arg-type]
            if entry is None:
                continue
            dtype_str, shape, m_raw, v_raw = entry
            m = np.frombuffer(m_raw, dtype=np.dtype(dtype_str)).reshape(shape).copy()
            v = np.frombuffer(v_raw, dtype=np.dtype(dtype_str)).reshape(shape).copy()
            if m.shape != weight.shape:
                raise ValueError(
                    f"moment shape {m.shape} does not match parameter shape "
                    f"{weight.shape}"
                )
            rebuilt[id(weight)] = (m, v)
        self._step = int(state["step"])
        self._moments = rebuilt


def _clip_scale(
    parameters: list[tuple[np.ndarray, np.ndarray]], clip_norm: float | None
) -> float:
    """Global-norm gradient clipping factor (1.0 when clipping is off or unnecessary)."""
    if clip_norm is None:
        return 1.0
    total = 0.0
    for _, grad in parameters:
        total += float(np.sum(grad * grad))
    norm = np.sqrt(total)
    if norm <= clip_norm or norm == 0.0:
        return 1.0
    return clip_norm / norm
