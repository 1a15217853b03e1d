"""The exploration context: content-keyed CDRL state pooled across requests.

Training a CDRL agent recomputes the same pure functions over and over — the
guidance of a session state, the structural LDX answers for a tree shape, the
interestingness of a view — and identical inputs recur across requests on
the same (specification, dataset).  A :class:`SharedExplorationContext`
pools that work: action spaces, their validity-mask and mask-fold memos
(by view schema, pooled per dataset and vocabulary, so specifications that
extend a dataset's space alike share them), generic-reward scorers, LDX
matchers with their per-shape memos, view-feature memos, and the
specification-aware policy's guidance memos (one read-only bias row per
guidance key and mask fold) and decision memos (the guidance memo's row for
each session state).  Pools are keyed by content (rendered specification,
table fingerprint, vocabulary), and every pooled structure memoises a pure
function of its key, so sharing changes how often things are computed,
never what they evaluate to.

:class:`~repro.engine.core.LinxEngine` owns one context and hands it to
every request, batched or not; an agent built on its own makes a private
one.  Memory is bounded by one entry budget, :data:`MAX_POOLED_ENTRIES`:
every new memo key and pool is charged to it, and reaching it clears every
memo and pool at once.
"""

from __future__ import annotations

import threading
import weakref
from typing import Any, Callable, Optional

from repro.dataframe.table import DataTable
from repro.explore.action_space import ActionSpace
from repro.explore.reward import GenericExplorationReward
from repro.ldx.ast import LdxQuery
from repro.ldx.verifier import LdxMatcher

from .snippets import SnippetLibrary

#: Entries (memo keys plus pools) one context holds before it clears every
#: memo and pool.  The largest entries (bias rows, validity masks) are about
#: 1 KB, so a long-running engine's pooled memory stays in the tens of MB.
MAX_POOLED_ENTRIES = 65536


class PooledMemo(dict):
    """A memo dict that charges every new key to its context's entry budget.

    Reads are plain dict reads.  Writes of a new key go through
    :meth:`SharedExplorationContext._charge`, which may clear every memo of
    the context (this one included) before the key is stored.
    """

    __slots__ = ("_context", "__weakref__")

    def __init__(self, context: "SharedExplorationContext"):
        super().__init__()
        self._context = context

    def __setitem__(self, key, value) -> None:
        if key not in self:
            self._context._charge()
        super().__setitem__(key, value)


class SharedExplorationContext:
    """Content-keyed exploration state shared by every request of an engine."""

    def __init__(self):
        self._lock = threading.Lock()
        self._pools: dict[tuple, Any] = {}
        #: Every live memo handed out, so a clear also empties the memos of
        #: requests still running on pools that are no longer registered.
        self._memos: "weakref.WeakValueDictionary[int, PooledMemo]" = (
            weakref.WeakValueDictionary()
        )
        self._entries = 0
        self.clears = 0

    # -- the entry budget -------------------------------------------------------------
    def _charge(self) -> None:
        """Count one new entry, clearing everything first if the budget is full.

        The count only grows between clears (a memo dropped by its request
        keeps its share), so it never undercounts the live entries.
        """
        with self._lock:
            if self._entries >= MAX_POOLED_ENTRIES:
                for memo in list(self._memos.values()):
                    memo.clear()
                self._pools.clear()
                self._entries = 0
                self.clears += 1
            self._entries += 1

    def _memo(self) -> PooledMemo:
        memo = PooledMemo(self)
        with self._lock:
            self._memos[id(memo)] = memo
        return memo

    def _pooled(self, key: tuple, build: Callable[[], Any]) -> Any:
        with self._lock:
            pool = self._pools.get(key)
        if pool is None:
            self._charge()
            fresh = build()
            with self._lock:
                pool = self._pools.setdefault(key, fresh)
        return pool

    # -- pools ------------------------------------------------------------------------
    def action_space(self, table: DataTable, query: Optional[LdxQuery]) -> ActionSpace:
        """The pooled :class:`ActionSpace` for *table*, extended for *query*.

        The specification-aware policy's snippet library appends its
        specification's operators, terms and group/aggregation attributes
        to the space it is given, so the rendered specification is part of
        the key and the space is handed out already extended (the policy's
        own library then adds nothing); pass ``None`` for a policy that
        leaves the space as built.  The space's validity-mask and mask-fold
        memos are pooled per (dataset, :meth:`ActionSpace.vocabulary`):
        the masks read nothing else of the space.
        """
        spec = None if query is None else query.render()
        return self._pooled(
            ("action_spaces", spec, table.fingerprint()),
            lambda: self._action_space(table, query),
        )

    def _action_space(self, table: DataTable, query: Optional[LdxQuery]) -> ActionSpace:
        space = ActionSpace(table)
        if query is not None:
            SnippetLibrary(query, space)  # extends the space's vocabulary
        space.mask_memo, space.fold_memo = self._pooled(
            ("mask_memos", table.fingerprint(), space.vocabulary()),
            lambda: (self._memo(), self._memo()),
        )
        return space

    def scorer(self, table: DataTable) -> GenericExplorationReward:
        """The pooled generic-reward scorer for *table*'s content.

        Its interestingness and diversity memos are keyed by view content
        fingerprints, so one scorer serves every request on the dataset.
        """
        return self._pooled(
            ("scorers", table.fingerprint()),
            lambda: GenericExplorationReward(memo=self._memo),
        )

    def matcher(self, query: LdxQuery) -> LdxMatcher:
        """The pooled LDX matcher for one specification.

        Its answers are pure functions of (specification, tree shape), and
        every new shape entry of its memo is charged to the entry budget.
        It serves verification, the compliance reward and the guidance.
        """
        return self._pooled(
            ("matchers", query.render()), lambda: LdxMatcher(query, memo=self._memo())
        )

    def decision_memo(self, query: LdxQuery, table: DataTable, mask_invalid: bool) -> dict:
        """The pooled decision memo for one (specification, dataset) pair.

        It maps a session-state key to the specification-aware policy's
        read-only bias row (see
        :meth:`~repro.cdrl.spec_network.SpecificationAwarePolicy.decision_biases`).
        """
        return self._pooled(
            ("decision_memos", query.render(), table.fingerprint(), bool(mask_invalid)),
            self._memo,
        )

    def guidance_memo(self, query: LdxQuery, table: DataTable) -> dict:
        """The pooled guidance memo for one (specification, dataset) pair: the
        read-only bias row of each (guidance key, masked columns) pair."""
        return self._pooled(("guidance_memos", query.render(), table.fingerprint()), self._memo)

    def view_feature_memo(self, table: DataTable) -> dict:
        """The pooled observation-feature memo for environments over *table*.

        View features are a pure function of the view's and the dataset's
        content, keyed by the view fingerprint.
        """
        return self._pooled(("view_feature_memos", table.fingerprint()), self._memo)

    def describe(self) -> dict[str, Any]:
        """Pool counts by kind, entries charged, the budget and clears so far."""
        with self._lock:
            counts = dict.fromkeys(
                (
                    "action_spaces",
                    "mask_memos",
                    "scorers",
                    "matchers",
                    "decision_memos",
                    "guidance_memos",
                    "view_feature_memos",
                ),
                0,
            )
            for key in self._pools:
                counts[key[0]] += 1
            return {
                **counts,
                "entries": self._entries,
                "max_entries": MAX_POOLED_ENTRIES,
                "clears": self.clears,
            }
