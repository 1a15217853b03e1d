"""Few-shot example bank construction (Section 6, "Prompts Number of Examples").

Few-shot examples are built from benchmark instances: each example carries
the analytical goal, the dataset schema, the gold LDX specification and the
PyLDX rendering of that specification.  The evaluation scenarios of
Section 7.2 (seen/unseen dataset, seen/unseen meta-goal) are realised by
filtering which instances may appear in the prompt for a given test
instance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.generator import Benchmark, BenchmarkInstance
from repro.datasets.registry import load_dataset
from repro.llm.interface import FewShotExample

from .pyldx import ldx_to_pyldx


def example_from_instance(instance: BenchmarkInstance) -> FewShotExample:
    """Convert a benchmark instance into a few-shot example."""
    schema = tuple(load_dataset(instance.dataset).columns)
    return FewShotExample(
        goal=instance.goal,
        dataset=instance.dataset,
        schema=schema,
        pyldx_code=ldx_to_pyldx(instance.ldx_text, dataset_name=instance.dataset),
        ldx_text=instance.ldx_text,
        explanation=f"Template for the meta-goal: {instance.meta_goal_name}.",
        meta_goal_id=instance.meta_goal_id,
    )


@dataclass(frozen=True)
class Scenario:
    """A Table 2 evaluation scenario: which examples may appear in the prompt."""

    name: str
    seen_dataset: bool
    seen_meta_goal: bool


SCENARIOS: tuple[Scenario, ...] = (
    Scenario("seen dataset, seen meta-goal", True, True),
    Scenario("seen dataset, unseen meta-goal", True, False),
    Scenario("unseen dataset, seen meta-goal", False, True),
    Scenario("unseen dataset, unseen meta-goal", False, False),
)


class FewShotBank:
    """Selects few-shot examples per test instance and scenario."""

    def __init__(self, benchmark: Benchmark, examples_per_prompt: int = 8):
        self.benchmark = benchmark
        self.examples_per_prompt = examples_per_prompt
        #: Each instance's example, built on first pick; examples are frozen,
        #: so every prompt shares them.
        self._examples: dict[int, FewShotExample] = {}

    def select(
        self, test: BenchmarkInstance, scenario: Scenario
    ) -> tuple[FewShotExample, ...]:
        """Few-shot examples for *test* under *scenario*.

        The test instance itself is never included.  One example per
        (meta-goal, dataset) combination is taken, preferring the allowed
        combinations, in increasing meta-goal order (the least-to-most
        prompting order of Section 6).
        """
        chosen: list[BenchmarkInstance] = []
        seen_keys: set[tuple[int, str]] = set()
        for instance in self.benchmark.instances:
            if instance.instance_id == test.instance_id:
                continue
            if scenario.seen_dataset != (instance.dataset == test.dataset):
                if not self._allowed_fallback(scenario, instance, test):
                    continue
            # Ad-hoc goals (meta_goal_id 0) have no meta-goal to hold out:
            # every meta-goal's examples are eligible.
            if test.meta_goal_id != 0 and scenario.seen_meta_goal != (
                instance.meta_goal_id == test.meta_goal_id
            ):
                continue
            key = (instance.meta_goal_id, instance.dataset)
            if key in seen_keys:
                continue
            seen_keys.add(key)
            chosen.append(instance)
            if len(chosen) >= self.examples_per_prompt:
                break
        chosen.sort(key=lambda inst: (inst.meta_goal_id, inst.dataset))
        return tuple(self._example(instance) for instance in chosen)

    def _example(self, instance: BenchmarkInstance) -> FewShotExample:
        if instance.instance_id not in self._examples:
            self._examples[instance.instance_id] = example_from_instance(instance)
        return self._examples[instance.instance_id]

    @staticmethod
    def _allowed_fallback(
        scenario: Scenario, instance: BenchmarkInstance, test: BenchmarkInstance
    ) -> bool:
        """Whether a dataset-mismatched instance may still be used.

        In the *seen dataset* scenarios only same-dataset examples are used;
        in the *unseen dataset* scenarios only other-dataset examples are.
        """
        if scenario.seen_dataset:
            return instance.dataset == test.dataset
        return instance.dataset != test.dataset
