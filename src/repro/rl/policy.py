"""Categorical multi-head policy on top of :class:`MultiHeadPolicyNetwork`.

The policy samples one index per softmax head (operation type, filter
attribute, operator, term, group attribute, aggregation function and
aggregation attribute), records the probabilities needed for the REINFORCE
update, and converts policy-gradient losses into logit gradients for the
network's backward pass.

Each decision is taken *for an environment*:
:meth:`CategoricalPolicy.decision_biases` receives the environment it
decides for and returns one :class:`BiasRow`: a ``(T,)`` logit-bias row in
the network's concatenated head layout plus one flag per head that carries
a bias.  With ``mask_invalid_actions`` the base policy folds the
environment's per-head validity masks
(:meth:`ExplorationEnvironment.head_mask`, backed by the schema-only
:meth:`ActionSpace.valid_mask`) into the row: masked-out choices receive a
large negative logit bias, driving their probability to exactly zero.  The
specification-aware network (Section 5.3) overrides
:meth:`~CategoricalPolicy.decision_biases` to add its guidance toward
snippet-compatible parameter values.  The row is the only bias
representation: the decision kernel stacks the rows of a batch directly,
and the row in effect at sampling time is recorded on the decision so the
gradient update re-applies the same distribution.

Acting comes in two shapes: :meth:`CategoricalPolicy.act` for one
observation, and :meth:`CategoricalPolicy.act_batch` for a ``(K, F)`` stack
of observations from K environments stepped in lock-step (see
:mod:`repro.explore.rollouts`).  Both run one decision kernel over the
network's concatenated ``(K, T)`` head rows (see
:class:`~repro.rl.network.HeadLayout`): the bias fold, entropy and log-prob
sums and inverse-CDF sampling are single passes whose reductions stay
inside each row, so a batched decision for environment ``k`` is
bit-identical to the sequential decision taken with the same RNG stream.

The kernel has two steps.  :meth:`CategoricalPolicy.decision_distributions`
is deterministic: from forward outputs and bias rows it derives each row's
:class:`DecisionDistribution` (folded log-probabilities, entropy, value,
padded probabilities and per-head CDF).
:meth:`CategoricalPolicy.sample_decisions` then draws one uniform per head
per row, in row order, and looks the choices up.
:meth:`CategoricalPolicy.decisions_from_forward` composes the two.  The
episodes of a lock-step wave all start at the root state, so on the local
route :meth:`~CategoricalPolicy.act_batch` forwards and folds each distinct
(observation, bias row, folded flags) of a call once and samples every row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING, Hashable, Mapping, NamedTuple, Sequence

import numpy as np

from .network import HeadLayout, MultiHeadPolicyNetwork

if TYPE_CHECKING:  # repro.explore builds on rl
    from repro.explore.environment import ExplorationEnvironment

#: Additive logit applied to masked-out choices; large enough that the
#: post-softmax probability underflows to exactly 0.0.
MASK_LOGIT_BIAS = -1e9


class BiasRow(NamedTuple):
    """The logit biases of one decision, in the concatenated head layout.

    ``row`` holds a ``(T,)`` bias for every column of the head rows (see
    :class:`~repro.rl.network.HeadLayout`); ``folded`` marks, per head,
    whether the head carries a bias at all.  Unflagged heads keep the raw
    network output — a zero-bias fold is not a bitwise no-op — and their
    columns of ``row`` are ignored.
    """

    row: np.ndarray
    folded: np.ndarray

    @classmethod
    def empty(cls, layout: HeadLayout) -> "BiasRow":
        """A writable all-zero row with no head flagged."""
        return cls(np.zeros(layout.total), np.zeros(len(layout.names), dtype=bool))

    def head(self, layout: HeadLayout, name: str) -> np.ndarray:
        """The writable columns of head *name*, flagging the head as biased."""
        position, start, stop = layout.slots[name]
        self.folded[position] = True
        return self.row[start:stop]

    def freeze(self) -> "BiasRow":
        """This row made read-only, for sharing through a memo; memoised rows
        share one interned read-only flags array per pattern."""
        self.row.flags.writeable = False
        self.folded.flags.writeable = False
        pattern = self.folded.tobytes()
        return BiasRow(self.row, _FOLDED_PATTERNS.setdefault(pattern, self.folded))


#: Interned folded-flag arrays by content (at most ``2**H`` per head count).
_FOLDED_PATTERNS: dict[bytes, np.ndarray] = {}


class DecisionDistribution(NamedTuple):
    """The deterministic step of one decision: everything but the draws.

    ``log_p`` is the folded ``(T,)`` log-probability row, ``grid`` the
    folded probabilities as a zero-padded ``(H, width)`` grid and ``cdf``
    its per-head cumulative sums, with ``totals`` their last column.  It is
    a function of the weights, the observation and the bias row only, so
    equal rows of one call share it.
    """

    log_p: np.ndarray
    entropy: float
    value: float
    grid: np.ndarray
    cdf: np.ndarray
    totals: np.ndarray


def _check_rows(count: int, biases_list: Sequence[BiasRow], rngs) -> None:
    if len(biases_list) != count:
        raise ValueError("need one bias row per observation")
    if rngs is not None and len(rngs) != count:
        raise ValueError("need one RNG per observation")


def row_key(observation: np.ndarray, biases: BiasRow) -> tuple[bytes, bytes, bytes]:
    """The content of one decision row, as bytes: the observation, the bias
    row and its folded flags.  Rows with equal keys share one forward and
    one :class:`DecisionDistribution` (a fresh ``BiasRow`` every step means
    identity would never match)."""
    return (observation.tobytes(), biases.row.tobytes(), biases.folded.tobytes())


def distinct_rows(keys: Sequence[Hashable]) -> tuple[list[int], list[int]]:
    """``(firsts, sources)`` of a sequence of row keys: row *k* reads forward
    row ``sources[k]``, and ``firsts[j]`` is the first row whose key owns
    forward row *j* (forward rows in first-seen order)."""
    slots: dict[Hashable, int] = {}
    firsts: list[int] = []
    sources: list[int] = []
    for k, key in enumerate(keys):
        slot = slots.setdefault(key, len(slots))
        if slot == len(firsts):
            firsts.append(k)
        sources.append(slot)
    return firsts, sources


def _stack(rows: list[np.ndarray]) -> np.ndarray:
    """*rows* as one ``(K, ...)`` array; a single row becomes a view, not a copy."""
    return rows[0][None] if len(rows) == 1 else np.array(rows)


@dataclass
class PolicyDecision:
    """One sampled action with everything needed for the gradient update."""

    indices: dict[str, int]
    log_prob: float
    value: float
    entropy: float
    observation: np.ndarray = field(repr=False, default=None)
    #: Logit biases that were in effect when the action was sampled; reused at
    #: update time so the gradient matches the sampling distribution.
    biases: BiasRow = field(repr=False, default=None)


class CategoricalPolicy:
    """Samples factored actions and computes REINFORCE gradients."""

    def __init__(
        self,
        network: MultiHeadPolicyNetwork,
        rng: np.random.Generator | None = None,
        mask_invalid_actions: bool = False,
    ):
        self.network = network
        self.rng = rng or np.random.default_rng(0)
        #: Fold the environment's validity masks into every decision.
        self.mask_invalid_actions = mask_invalid_actions
        #: Optional acting delegate ``(obs, biases_list, rngs, greedy) ->
        #: list[PolicyDecision]``.  When set, :meth:`act_batch` routes the
        #: fully-prepared batch there instead of running the network forward
        #: itself — the continuous batcher installs a hook here to coalesce
        #: this policy's rows with other requests' into one shared wave.
        #: The delegate must be bit-identical to the local path (the batcher
        #: is; see :mod:`repro.engine.batcher`).  Learning never routes
        #: through it: gradient forwards stay on the owning thread.
        self.act_backend = None

    # -- acting --------------------------------------------------------------------------
    def decision_biases(
        self, environment: "ExplorationEnvironment | None" = None
    ) -> BiasRow:
        """The logit biases of one decision in *environment*, as one row.

        This is the per-step, per-environment part of acting; the rollout
        collector calls it once per environment and hands the rows to
        :meth:`act_batch`.  The base policy has no biases of its own, so the
        row carries *environment*'s validity masks when
        ``mask_invalid_actions`` is set, and nothing otherwise.
        """
        return self._apply_masks(BiasRow.empty(self.network.layout), environment)

    def _apply_masks(
        self, biases: BiasRow, environment: "ExplorationEnvironment | None"
    ) -> BiasRow:
        """Fold *environment*'s per-head validity masks into *biases* (in place).

        The masked-out columns are :meth:`_masked_columns`; they take
        :data:`MASK_LOGIT_BIAS` and the heads that own them are flagged.
        """
        if not self.mask_invalid_actions or environment is None:
            return biases
        masked = self._masked_columns(environment)
        biases.row[masked] += MASK_LOGIT_BIAS
        biases.folded[self.network.layout.owner[masked]] = True
        return biases

    def _masked_columns(self, environment: "ExplorationEnvironment") -> np.ndarray:
        """The ``(T,)`` columns *environment*'s validity masks rule out.

        Masks shorter than a head (e.g. the base action-type mask against
        the specification-aware head with its extra snippet entry) are
        padded with ``True``; all-true and degenerate all-false masks are
        ignored, so the heads owning a masked column are exactly the usable
        ones.  The masks are laid out as one ``(T,)`` validity row and
        reduced per head in one pass.
        """
        layout = self.network.layout
        valid = np.ones(layout.total, dtype=bool)
        for name, (_, start, stop) in layout.slots.items():
            mask = environment.head_mask(name)
            if mask is not None:
                mask = np.asarray(mask, dtype=bool)[: stop - start]
                valid[start : start + len(mask)] = mask
        usable = np.logical_or.reduceat(valid, layout.offsets) & ~np.logical_and.reduceat(
            valid, layout.offsets
        )
        return np.flatnonzero(~valid & usable[layout.owner])

    def act(
        self,
        observation: np.ndarray,
        environment: "ExplorationEnvironment | None" = None,
        greedy: bool = False,
        rng: np.random.Generator | None = None,
    ) -> PolicyDecision:
        """Sample (or argmax, when *greedy*) one index per head.

        The biases are :meth:`decision_biases` for *environment*.  ``rng``
        overrides the policy's own generator for this decision —
        sequential replays of batched rollouts use it to consume the same
        per-environment stream the batch did.  Acting is the batch kernel
        with K = 1, so a batched decision for the same observation, biases
        and RNG state is bit-identical by construction.
        """
        biases = self.decision_biases(environment)
        return self.act_batch(
            np.asarray(observation, dtype=np.float64)[None, :],
            [biases],
            None if rng is None else [rng],
            greedy=greedy,
        )[0]

    def act_batch(
        self,
        observations: np.ndarray,
        biases_list: Sequence[BiasRow],
        rngs: Sequence[np.random.Generator] | None = None,
        greedy: bool = False,
    ) -> list[PolicyDecision]:
        """Decide for a ``(K, F)`` batch of observations in one network pass.

        ``biases_list[k]`` holds environment *k*'s bias row
        (:meth:`decision_biases` for that environment) and ``rngs[k]`` its
        sampling stream; without ``rngs`` every row draws from the
        policy's own generator, in row order.  Everything that
        does not consume randomness is vectorised across the batch — the
        trunk/head forward, the bias folds, the per-head log/entropy/CDF
        statistics — while sampling draws one uniform per head from each
        row's own RNG.  All batched kernels reduce along the contiguous
        last axis, so row *k* of every intermediate is bit-identical to the
        same computation on ``observations[k]`` alone, whatever K is.

        That row independence lets equal rows share work: each distinct
        (observation, bias row) pair of the call is forwarded and folded
        once, and every row is still sampled, in row order.
        """
        obs = np.asarray(observations, dtype=np.float64)
        if obs.ndim != 2:
            raise ValueError(f"expected a (K, F) observation batch, got {obs.shape}")
        _check_rows(len(obs), biases_list, rngs)
        if self.act_backend is not None:
            # Pin each row to an explicit RNG before handing off: the wave
            # thread may interleave rows of several policies, and every row
            # must keep sampling from its own stream (``self.rng`` rows draw
            # in row order, exactly as the local route would).
            pinned = list(rngs) if rngs is not None else [self.rng] * len(obs)
            return self.act_backend(obs, list(biases_list), pinned, greedy)
        firsts, sources = distinct_rows(
            [row_key(row, biases) for row, biases in zip(obs, biases_list)]
        )
        probabilities, values = self.network.forward_batch(
            obs if len(firsts) == len(obs) else obs.take(firsts, axis=0)
        )
        return self.decisions_from_forward(
            obs, probabilities, values, biases_list, rngs, greedy, sources
        )

    def _fold_biases(
        self,
        probabilities: np.ndarray,
        biases_list: Sequence[BiasRow],
    ) -> np.ndarray:
        """Re-softmax every head segment that carries a logit bias, in one pass.

        Segment ``(k, h)`` of the ``(K, T)`` head rows becomes
        ``softmax(log(clip(p)) + bias)`` over head ``h``'s columns when
        ``biases_list[k]`` flags head ``h``; other segments keep the raw head
        output untouched.  A row sized for another head layout (e.g. biases
        computed against a differently extended action space) raises instead
        of being folded across the wrong columns.
        """
        layout = self.network.layout
        for biases in biases_list:
            if len(biases.row) != layout.total or len(biases.folded) != len(layout.names):
                raise ValueError(
                    f"bias row has {len(biases.row)} entries over {len(biases.folded)} "
                    f"heads; the policy has {layout.total} over {len(layout.names)}"
                )
        folded = _stack([biases.folded for biases in biases_list])
        if not np.count_nonzero(folded):
            return probabilities
        bias_rows = _stack([biases.row for biases in biases_list])
        biased = layout.softmax(np.log(np.maximum(probabilities, 1e-12)) + bias_rows)
        return np.where(folded.take(layout.owner, axis=-1), biased, probabilities)

    def decision_distributions(
        self,
        probabilities: np.ndarray,
        values: np.ndarray,
        biases_list: Sequence[BiasRow],
    ) -> list[DecisionDistribution]:
        """The deterministic step of a decision, for every row of a forward.

        Folds ``biases_list[k]`` into row *k* of the ``(K, T)`` head
        probabilities and derives everything sampling needs that draws no
        randomness: the folded log-probabilities, the entropy summed over
        heads, and the rows laid out as a zero-padded ``(K, H, width)`` grid
        with its per-head CDF (padding repeats each head's total).
        """
        layout = self.network.layout
        probs = self._fold_biases(probabilities, biases_list)
        log_p = np.log(np.maximum(probs, 1e-12))
        entropies = -np.add.reduceat(probs * log_p, layout.offsets, axis=-1).sum(axis=-1)
        grid = layout.grid(probs)
        cdf = np.cumsum(grid, axis=-1)
        totals = cdf[:, :, -1]
        entropies = entropies.tolist()
        values = np.asarray(values, dtype=np.float64).tolist()
        return [
            DecisionDistribution(log_p[k], entropies[k], values[k], grid[k], cdf[k], totals[k])
            for k in range(len(probs))
        ]

    def sample_decisions(
        self,
        obs: np.ndarray,
        distributions: Sequence[DecisionDistribution],
        biases_list: Sequence[BiasRow],
        rngs: Sequence[np.random.Generator] | None = None,
        greedy: bool = False,
    ) -> list[PolicyDecision]:
        """The sampling step: one decision per row, in row order.

        Sampling draws one uniform per head, in head order, from
        ``rngs[k]`` (or the policy's own generator); the inverse-CDF lookup
        counts the entries of the head's own cumsum that are <= the target
        (padding repeats the head total, so the clamp to the last real
        choice covers it).  Greedy rows draw nothing and take each head's
        argmax; over the zero-padded grid that is the argmax over the real
        choices, since every head's largest probability is positive.
        """
        layout = self.network.layout
        heads = len(layout.names)
        last = layout.sizes - 1
        # Decisions keep views into one private copy of the observations.
        observations = np.array(obs, dtype=np.float64)
        decisions = []
        for k, distribution in enumerate(distributions):
            if greedy:
                chosen = distribution.grid.argmax(-1)
            else:
                draws = (self.rng if rngs is None else rngs[k]).random(heads)
                targets = draws * distribution.totals
                chosen = np.minimum(
                    np.add.reduce(distribution.cdf <= targets[:, None], -1), last
                )
            log_prob = np.add.reduce(distribution.log_p.take(chosen + layout.offsets))
            decisions.append(
                PolicyDecision(
                    indices=dict(zip(layout.names, chosen.tolist())),
                    log_prob=float(log_prob),
                    value=distribution.value,
                    entropy=distribution.entropy,
                    observation=observations[k],
                    biases=biases_list[k],
                )
            )
        return decisions

    def decisions_from_forward(
        self,
        obs: np.ndarray,
        probabilities: np.ndarray,
        values: np.ndarray,
        biases_list: Sequence[BiasRow],
        rngs: Sequence[np.random.Generator] | None = None,
        greedy: bool = False,
        sources: Sequence[int] | None = None,
    ) -> list[PolicyDecision]:
        """The post-forward half of :meth:`act_batch`:
        :meth:`decision_distributions`, then :meth:`sample_decisions`.

        Takes the concatenated ``(K, T)`` head probabilities and values of a
        forward pass and performs everything downstream of the network — the
        bias fold, entropy/log-prob sums and per-row sampling.  The
        continuous batcher (:mod:`repro.engine.batcher`) calls this directly
        with the outputs of a *multi-network* forward so that rows
        belonging to different requests still share one decision kernel.

        With ``sources``, row *k* reads forward row ``sources[k]``: rows of
        one state share one forward row and one distribution (every forward
        row must be read).  Both routes pass them, and so run all
        post-forward work through this one method, which is where the
        traced benchmark times ``rl.decide``.
        """
        _check_rows(len(obs), biases_list, rngs)
        if sources is None:
            distributions = self.decision_distributions(probabilities, values, biases_list)
        else:
            readers: dict[int, int] = {}
            for k, source in enumerate(sources):
                readers.setdefault(source, k)
            fresh = self.decision_distributions(
                probabilities, values, [biases_list[readers[row]] for row in range(len(readers))]
            )
            distributions = [fresh[source] for source in sources]
        return self.sample_decisions(obs, distributions, biases_list, rngs, greedy)

    # -- learning ------------------------------------------------------------------------
    def accumulate_gradient_batch(
        self,
        decisions: Sequence[PolicyDecision],
        advantages: Sequence[float] | np.ndarray,
        value_targets: Sequence[float] | np.ndarray,
        entropy_coefficient: float = 0.01,
        value_coefficient: float = 0.5,
    ) -> None:
        """Accumulate gradients for a batch of decisions in one network pass.

        The loss per decision is the standard actor-critic objective::

            L = -advantage * log pi(a|s) + value_coef * (V(s) - target)^2
                - entropy_coef * H(pi)

        One batched re-forward replaces ``len(decisions)`` single-row
        forwards (which dominated update cost), re-applying each row's
        recorded logit biases so the gradient matches the sampling
        distribution.  Episodes revisit states, so about half the decisions
        of an update repeat an (observation, bias row) pair: each distinct
        pair is forwarded and folded once, and the rows and the network's
        layer caches are gathered back (:meth:`MultiHeadPolicyNetwork.repeat_rows`).
        Bit-identity contract: because every forward and backward kernel is
        batch-shape independent and parameter-gradient accumulation reduces
        over the batch in row order, this call produces exactly the
        gradients of ``len(decisions)`` sequential one-decision calls.
        Gradients are pushed into the network; the caller applies the
        optimiser step afterwards.
        """
        if not decisions:
            return
        observations = np.array(
            [decision.observation for decision in decisions], dtype=np.float64
        )
        biases_list = [decision.biases for decision in decisions]
        firsts, sources = distinct_rows(
            [row_key(row, biases) for row, biases in zip(observations, biases_list)]
        )
        rows = np.array(sources)
        probabilities, values = self.network.forward_batch(observations[firsts])
        probs = self._fold_biases(probabilities, [biases_list[k] for k in firsts])
        self.network.repeat_rows(observations, rows)
        layout = self.network.layout
        # Entropy bonus gradient: d(-H)/d logits = p * (log p + H), with
        # ``negative_entropy`` = -H of each head segment (per distinct row).
        log_p = np.log(np.maximum(probs, 1e-12))
        negative_entropy = np.add.reduceat(probs * log_p, layout.offsets, axis=-1)
        entropy_grad = entropy_coefficient * probs * (log_p - negative_entropy[:, layout.owner])
        # d(-advantage * log p_chosen)/d logits = advantage * (p - onehot)
        head_choices = itemgetter(*layout.names)
        chosen = np.array(
            [head_choices(decision.indices) for decision in decisions], dtype=np.intp
        ).reshape(len(decisions), len(layout.names))
        grad = probs[rows]
        grad[np.arange(len(decisions))[:, None], chosen + layout.offsets] -= 1.0
        grad *= np.asarray(advantages, dtype=np.float64)[:, None]
        grad += entropy_grad[rows]
        value_grads = value_coefficient * 2.0 * (
            values[rows] - np.asarray(value_targets, dtype=np.float64)
        )
        self.network.backward(grad, value_grads)

    def zero_grad(self) -> None:
        self.network.zero_grad()

    def parameters(self):
        return self.network.parameters()

    # -- diagnostics ----------------------------------------------------------------------
    def action_distribution(
        self,
        observation: np.ndarray,
        environment: "ExplorationEnvironment | None" = None,
    ) -> Mapping[str, np.ndarray]:
        """Per-head probabilities without sampling (used in tests and the ablation)."""
        probabilities, _ = self.network.forward_batch(
            np.asarray(observation, dtype=np.float64)[None, :]
        )
        folded = self._fold_biases(probabilities, [self.decision_biases(environment)])
        return self.network.layout.split(folded[0])
