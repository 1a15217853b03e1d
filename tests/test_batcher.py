"""Tests for continuous cross-request inference batching.

The load-bearing property: wave composition must never change results.  A
row decided inside a shared multi-request wave is bit-identical to the same
row decided alone on its own thread, across random request mixes, seeds and
join/leave orderings.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cdrl import CdrlConfig
from repro.engine import ExploreRequest, InferenceBatcher, LinxEngine
from repro.cdrl.context import SharedExplorationContext
from repro.ldx.parser import parse_ldx
from repro.rl import network as network_module
from repro.rl.network import (
    HeadLayout,
    MultiHeadPolicyNetwork,
    architecture_signature,
    stacked_forward,
)
from repro.rl.policy import BiasRow, CategoricalPolicy

LDX = "ROOT CHILDREN <A1>\nA1 LIKE [G,.*]"

HEADS = {"action": 3, "column": 4}
UNBIASED = BiasRow.empty(HeadLayout(HEADS))


def _network(seed: int) -> MultiHeadPolicyNetwork:
    return MultiHeadPolicyNetwork(
        observation_size=5, head_sizes=HEADS, hidden_sizes=(8,), seed=seed
    )


def _request(seed: int, episodes: int = 8) -> ExploreRequest:
    return ExploreRequest(
        goal="g",
        dataset="netflix",
        num_rows=60,
        ldx_text=LDX,
        seed=seed,
        episodes=episodes,
    )


def _result_key(result) -> tuple:
    """Everything result-shaped (excludes timings and cache occupancy)."""
    return (
        result.operations,
        result.utility_score,
        result.fully_compliant,
        result.structurally_compliant,
        result.episodes_trained,
        result.notebook_markdown,
        result.insights,
    )


class TestStackedForward:
    def test_matches_per_network_forward_batch_bitwise(self):
        rng = np.random.default_rng(7)
        networks = [_network(seed) for seed in range(3)]
        net_index = np.array([0, 1, 1, 2, 0, 2, 2])
        observations = rng.normal(size=(len(net_index), 5))
        probabilities, values = stacked_forward(networks, net_index, observations)
        for row, slot in enumerate(net_index):
            expected_probs, expected_values = networks[slot].forward_batch(
                observations[row : row + 1]
            )
            assert np.array_equal(probabilities[row], expected_probs[0])
            assert values[row] == expected_values[0]

    def test_rejects_mixed_architectures(self):
        small = _network(0)
        wide = MultiHeadPolicyNetwork(
            observation_size=5, head_sizes=HEADS, hidden_sizes=(16,), seed=0
        )
        with pytest.raises(ValueError, match="architecturally"):
            stacked_forward([small, wide], np.array([0, 1]), np.zeros((2, 5)))

    def test_rejects_an_index_outside_the_networks(self):
        for net_index in ([0, 1], [-1, 0]):
            with pytest.raises(ValueError, match="out of range"):
                stacked_forward([_network(0)], np.array(net_index), np.zeros((2, 5)))

    def test_signature_distinguishes_shapes_not_weights(self):
        assert architecture_signature(_network(0)) == architecture_signature(_network(9))
        wide = MultiHeadPolicyNetwork(
            observation_size=5, head_sizes=HEADS, hidden_sizes=(16,), seed=0
        )
        assert architecture_signature(_network(0)) != architecture_signature(wide)


class TestInferenceBatcherWaves:
    def test_wave_results_match_local_act_batch(self):
        """Concurrent submissions from distinct policies == each policy's
        own act_batch on the same rows with the same RNG state."""
        observations = {
            seed: np.random.default_rng(100 + seed).normal(size=(2, 5))
            for seed in range(4)
        }
        expected = {}
        for seed, obs in observations.items():
            policy = CategoricalPolicy(_network(seed), rng=np.random.default_rng(seed))
            expected[seed] = policy.act_batch(obs, [UNBIASED, UNBIASED])
        actual = {}
        with InferenceBatcher(linger_ms=20.0) as batcher:
            def worker(seed):
                policy = CategoricalPolicy(
                    _network(seed), rng=np.random.default_rng(seed)
                )
                member = batcher.attach()
                policy.act_backend = (
                    lambda obs, biases, rngs, greedy: batcher.submit(
                        member, policy, obs, biases, rngs, greedy
                    )
                )
                try:
                    actual[seed] = policy.act_batch(observations[seed], [UNBIASED, UNBIASED])
                finally:
                    batcher.detach(member)

            threads = [
                threading.Thread(target=worker, args=(seed,)) for seed in observations
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            occupancy = batcher.describe()
        for seed, decisions in expected.items():
            assert len(actual[seed]) == len(decisions)
            for mine, theirs in zip(actual[seed], decisions):
                assert mine.indices == theirs.indices
                assert mine.log_prob == theirs.log_prob
                assert mine.value == theirs.value
                assert mine.entropy == theirs.entropy
        assert occupancy["rows"] == 8
        assert occupancy["members"] == 0  # everyone detached

    def test_group_failure_reaches_only_its_submitters(self):
        with InferenceBatcher(linger_ms=5.0) as batcher:
            policy = CategoricalPolicy(_network(0))
            member = batcher.attach()
            try:
                with pytest.raises(ValueError):
                    # One bias row short: rejected before a wave forms.
                    batcher.submit(
                        member, policy, np.zeros((2, 5)), [UNBIASED], [policy.rng], False
                    )
                with pytest.raises(Exception):
                    # A malformed bias blows up *inside* the wave; the error
                    # must reach this submitter, not kill the wave thread.
                    batcher.submit(
                        member,
                        policy,
                        np.zeros((1, 5)),
                        [BiasRow(np.zeros(99), np.ones(2, dtype=bool))],
                        [policy.rng],
                        False,
                    )
                # ... and the batcher still serves afterwards.
                decisions = batcher.submit(
                    member, policy, np.zeros((1, 5)), [UNBIASED], [policy.rng], False
                )
                assert len(decisions) == 1
            finally:
                batcher.detach(member)

    def test_submit_after_close_raises(self):
        batcher = InferenceBatcher()
        batcher.close()
        policy = CategoricalPolicy(_network(0))
        with pytest.raises(RuntimeError, match="shut down"):
            batcher.submit(None, policy, np.zeros((1, 5)), [UNBIASED], [policy.rng], False)


class TestWaveDedupe:
    @pytest.mark.parametrize("greedy", [False, True], ids=["sampled", "greedy"])
    def test_each_distinct_row_is_forwarded_once_on_its_network(self, greedy, monkeypatch):
        """A wave of two members holding 8 copies of each root state forwards
        every distinct (network, row) once, never merges identical rows of
        different networks, and decides exactly as each member alone."""
        roots = np.random.default_rng(5).normal(size=(2, 5))
        layout = HeadLayout(HEADS)
        biased = BiasRow.empty(layout)
        biased.head(layout, "column")[:] = [0.5, -1.0, 0.0, 2.0]
        # Member 1's rows are byte-equal to member 0's first root.
        submitted = {
            0: (np.repeat(roots, 8, axis=0), [UNBIASED] * 8 + [biased] * 8),
            1: (np.repeat(roots[:1], 8, axis=0), [UNBIASED] * 8),
        }
        networks = {seed: _network(seed) for seed in submitted}

        def policy(seed):
            return CategoricalPolicy(networks[seed], rng=np.random.default_rng(seed))

        expected = {
            seed: policy(seed).act_batch(obs, biases, greedy=greedy)
            for seed, (obs, biases) in submitted.items()
        }

        first_layers = {id(network.trunk[0].weight): seed for seed, network in networks.items()}
        forwarded = []
        affine = network_module._affine

        def counting_affine(x, weight, bias):
            seed = first_layers.get(id(weight))
            if seed is not None:
                forwarded.extend((seed, row.tobytes()) for row in x)
            return affine(x, weight, bias)

        monkeypatch.setattr(network_module, "_affine", counting_affine)
        actual = {}
        with InferenceBatcher(linger_ms=10_000.0) as batcher:
            members = {seed: batcher.attach() for seed in submitted}

            def worker(seed):
                acting = policy(seed)
                acting.act_backend = lambda obs, biases, rngs, greedy: batcher.submit(
                    members[seed], acting, obs, biases, rngs, greedy
                )
                obs, biases = submitted[seed]
                try:
                    actual[seed] = acting.act_batch(obs, biases, greedy=greedy)
                finally:
                    batcher.detach(members[seed])

            threads = [threading.Thread(target=worker, args=(seed,)) for seed in submitted]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            occupancy = batcher.describe()
        assert (occupancy["waves"], occupancy["rows"]) == (1, 24)
        assert sorted(forwarded) == sorted(
            [(0, roots[0].tobytes()), (0, roots[1].tobytes()), (1, roots[0].tobytes())]
        )
        for seed, decisions in expected.items():
            assert len(actual[seed]) == len(decisions)
            for mine, theirs in zip(actual[seed], decisions):
                assert mine.indices == theirs.indices
                assert mine.log_prob == theirs.log_prob
                assert mine.value == theirs.value
                assert mine.entropy == theirs.entropy


class TestSharedExplorationContext:
    @pytest.fixture
    def netflix_table(self):
        from repro.datasets import load_dataset

        return load_dataset("netflix", num_rows=60)

    def test_pools_are_content_keyed(self, netflix_table):
        from repro.datasets import load_dataset

        shared = SharedExplorationContext()
        query = parse_ldx(LDX)
        same_content = load_dataset("netflix", num_rows=60)
        assert shared.action_space(netflix_table, query) is shared.action_space(
            same_content, parse_ldx(LDX)
        )
        assert shared.scorer(netflix_table) is shared.scorer(same_content)
        other = load_dataset("netflix", num_rows=80)
        assert shared.action_space(netflix_table, query) is not shared.action_space(
            other, query
        )
        assert shared.matcher(query) is shared.matcher(parse_ldx(LDX))
        assert shared.matcher(query) is not shared.matcher(
            parse_ldx("ROOT CHILDREN <A1>\nA1 LIKE [F,.*]")
        )
        assert shared.describe()["action_spaces"] == 2
        # Specifications extend the space they are given: one pool each.
        other_query = parse_ldx("ROOT CHILDREN <A1>\nA1 LIKE [F,.*]")
        assert shared.action_space(netflix_table, query) is not shared.action_space(
            netflix_table, other_query
        )


class TestCrossRequestBitIdentity:
    """The acceptance property: batched == sequential, bit for bit."""

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seeds=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=4),
        episodes=st.sampled_from([4, 8]),
        stagger=st.lists(
            st.floats(min_value=0.0, max_value=0.01),
            min_size=4,
            max_size=4,
        ),
    )
    def test_batched_concurrent_matches_sequential(self, seeds, episodes, stagger):
        """Random request mixes, seeds and join orderings: payload-identical.

        Duplicate seeds are legal (two members may share nothing or a
        network-shaped twin); the stagger delays randomise which requests'
        rows actually share waves — the property must hold for every
        interleaving.
        """
        expected = {}
        sequential = LinxEngine(cdrl_config=CdrlConfig(episodes=8))
        for seed in set(seeds):
            expected[seed] = _result_key(
                sequential.explore(_request(seed, episodes=episodes))
            )
        engine = LinxEngine(
            cdrl_config=CdrlConfig(episodes=8),
            inference_batching=True,
            batch_linger_ms=2.0,
        )
        results = {}
        errors = []

        def worker(index, seed):
            import time

            time.sleep(stagger[index % len(stagger)])
            try:
                results[index] = (seed, engine.explore(_request(seed, episodes=episodes)))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(index, seed))
            for index, seed in enumerate(seeds)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        engine.close()
        assert not errors
        assert len(results) == len(seeds)
        for seed, result in results.values():
            assert _result_key(result) == expected[seed]

    def test_batcher_coalesces_under_concurrent_load(self):
        """Occupancy: concurrent requests actually share waves (>1 mean)."""
        engine = LinxEngine(
            cdrl_config=CdrlConfig(episodes=12),
            inference_batching=True,
            batch_linger_ms=20.0,
        )
        threads = [
            threading.Thread(
                target=engine.explore, args=(_request(seed, episodes=12),)
            )
            for seed in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        occupancy = engine.batcher.describe()
        engine.close()
        assert occupancy["waves"] > 0
        assert occupancy["mean_submissions_per_wave"] > 1.0
        assert occupancy["max_wave_rows"] > 1

    def test_unbatched_stage_falls_back_cleanly(self):
        """A generator without supports_batching never sees the batcher."""
        engine = LinxEngine(
            cdrl_config=CdrlConfig(episodes=5),
            stages={"session_generator": "atena"},
            inference_batching=True,
        )
        result = engine.explore(_request(seed=0, episodes=5))
        occupancy = engine.batcher.describe()
        engine.close()
        assert result.episodes_trained == 5
        assert occupancy["waves"] == 0  # the ATENA path never submitted


class TestPooledActionSpaces:
    def test_spec_extended_space_does_not_leak_into_later_requests(self):
        """Playstore meta-goal 2's specification extends the action space.

        A later request on the same dataset in the same batched engine must
        still see the space a private engine would build, so both payloads
        equal their unbatched runs.
        """
        from repro.bench.generator import generate_benchmark

        benchmark = generate_benchmark()
        extending = benchmark.by_meta_goal(2)
        plain = benchmark.by_meta_goal(1)
        requests = [
            ExploreRequest(
                goal=instance.goal,
                dataset=instance.dataset,
                num_rows=120,
                ldx_text=instance.ldx_text,
                seed=3,
                episodes=6,
            )
            for instance in (
                next(i for i in extending if i.dataset == "playstore"),
                next(i for i in plain if i.dataset == "playstore"),
            )
        ]
        config = CdrlConfig(episodes=6)
        expected = [
            _result_key(LinxEngine(cdrl_config=config).explore(request))
            for request in requests
        ]
        engine = LinxEngine(cdrl_config=config, inference_batching=True)
        try:
            actual = [_result_key(engine.explore(request)) for request in requests]
        finally:
            engine.close()
        assert actual == expected
