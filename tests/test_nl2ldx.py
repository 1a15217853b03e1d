"""Tests for PyLDX, the simulated LLMs and the NL→LDX derivation pipelines."""

from __future__ import annotations

import pytest

from repro.bench import generate_benchmark
from repro.ldx import parse_ldx, try_parse_ldx
from repro.llm import (
    DerivationTask,
    TASK_NL_TO_LDX,
    TASK_NL_TO_PANDAS,
    TASK_PANDAS_TO_LDX,
    chatgpt_client,
    gpt4_client,
    render_prompt,
)
from repro.metrics import lev2_score
from repro.nl2ldx import fewshot
from repro.nl2ldx import (
    ChainedPipeline,
    DirectPipeline,
    FewShotBank,
    PyLdxError,
    SCENARIOS,
    example_from_instance,
    ldx_to_pyldx,
    parse_pyldx,
    pyldx_text_to_ldx,
)

PAPER_PYLDX = """
df = pd.read_csv("epic_games.tsv", delimiter="\\t")
some_platform = df[df['platform'] == <VALUE>]
other_platforms = df[df['platform'] != <VALUE>]
some_platform_agg = some_platform.groupby(<COL>).agg(<AGG>)
other_platforms_agg = other_platforms.groupby(<COL>).agg(<AGG>)
"""


@pytest.fixture(scope="module")
def corpus():
    return generate_benchmark()


class TestPyLdx:
    def test_parse_paper_example(self):
        program = parse_pyldx(PAPER_PYLDX)
        operations = program.operations()
        assert len(operations) == 4
        assert operations[0].kind == "filter"
        assert operations[0].term.is_placeholder

    def test_pyldx_to_ldx_structure_and_continuity(self):
        ldx_text = pyldx_text_to_ldx(PAPER_PYLDX)
        query = parse_ldx(ldx_text)
        assert len(query.operational_specs()) == 4
        # Repeated <VALUE>/<COL>/<AGG> placeholders become shared continuity vars.
        assert set(query.continuity_variables()) == {"VALUE", "COL", "AGG"}

    def test_unsupported_lines_ignored(self):
        code = PAPER_PYLDX + "\ncomparison = pd.concat([a, b], axis=1)\n# a comment\n"
        assert parse_pyldx(code).operations()
        assert try_parse_ldx(pyldx_text_to_ldx(code)) is not None

    def test_code_without_operations_raises(self):
        with pytest.raises(PyLdxError):
            parse_pyldx("df = pd.read_csv('x.csv')")

    def test_ldx_to_pyldx_roundtrip_preserves_structure(self, comparison_query):
        code = ldx_to_pyldx(comparison_query, dataset_name="netflix")
        assert "read_csv" in code
        recovered = parse_ldx(pyldx_text_to_ldx(code))
        assert len(recovered.operational_specs()) == len(comparison_query.operational_specs())
        assert lev2_score(comparison_query, recovered) > 0.8

    def test_numeric_filter_terms_preserved(self):
        code = 'df = pd.read_csv("f.csv")\nsub = df[df[\'month\'] >= 6]\nagg = sub.groupby(<COL>).agg(<AGG>)'
        query = parse_ldx(pyldx_text_to_ldx(code))
        spec = query.operational_specs()[0]
        assert spec.operation.kind == "F"
        assert spec.operation.fields[1].value == "ge"


class TestPrompts:
    def test_nl2pandas_prompt_contains_sections(self, corpus):
        example = example_from_instance(corpus.instances[0])
        task = DerivationTask(
            kind=TASK_NL_TO_PANDAS,
            examples=(example,),
            goal="Find an atypical country",
            dataset="netflix",
            schema=("country", "type"),
            dataset_sample="country,type\nIndia,Movie",
        )
        prompt = render_prompt(task)
        assert "PyLDX" in prompt
        assert "Analysis Goal" in prompt
        assert "Find an atypical country" in prompt

    def test_pandas2ldx_prompt_contains_examples(self, corpus):
        example = example_from_instance(corpus.instances[0])
        task = DerivationTask(
            kind=TASK_PANDAS_TO_LDX,
            examples=(example,),
            pyldx_code="df = pd.read_csv('x.csv')",
        )
        prompt = render_prompt(task)
        assert "LDX is a specification language" in prompt
        assert example.ldx_text.splitlines()[0] in prompt

    def test_nl2ldx_prompt(self, corpus):
        example = example_from_instance(corpus.instances[0])
        task = DerivationTask(
            kind=TASK_NL_TO_LDX,
            examples=(example,),
            goal="Survey the price attribute",
            dataset="playstore",
            schema=("price",),
        )
        prompt = render_prompt(task)
        assert "Task: Survey the price attribute" in prompt

    def test_unknown_task_kind_raises(self):
        with pytest.raises(ValueError):
            render_prompt(DerivationTask(kind="bogus", examples=()))


class TestSimulatedLLM:
    def test_deterministic_outputs(self, corpus):
        bank = FewShotBank(corpus)
        client = gpt4_client()
        pipeline = ChainedPipeline(client, bank)
        test = corpus.instances[0]
        first = pipeline.derive(test, SCENARIOS[0]).ldx_text
        second = pipeline.derive(test, SCENARIOS[0]).ldx_text
        assert first == second

    def test_seen_scenario_produces_high_quality_ldx(self, corpus):
        bank = FewShotBank(corpus)
        pipeline = ChainedPipeline(gpt4_client(), bank)
        test = corpus.instances[0]
        result = pipeline.derive(test, SCENARIOS[0])
        assert result.parsed
        assert lev2_score(test.ldx_query(), result.query) > 0.6

    def test_chained_beats_direct_on_unseen_meta_goal(self, corpus):
        bank = FewShotBank(corpus)
        client = chatgpt_client()
        chained = ChainedPipeline(client, bank)
        direct = DirectPipeline(client, bank)
        unseen = SCENARIOS[1]  # seen dataset, unseen meta-goal
        sample = corpus.instances[::23][:8]
        chained_scores = []
        direct_scores = []
        for test in sample:
            chained_scores.append(lev2_score(test.ldx_query(), chained.derive(test, unseen).query))
            direct_scores.append(lev2_score(test.ldx_query(), direct.derive(test, unseen).query))
        assert sum(chained_scores) >= sum(direct_scores)

    def test_fewshot_bank_respects_scenarios(self, corpus):
        bank = FewShotBank(corpus)
        test = corpus.instances[0]
        seen = bank.select(test, SCENARIOS[0])
        assert all(example.dataset == test.dataset for example in seen)
        assert all(example.meta_goal_id == test.meta_goal_id for example in seen)
        unseen = bank.select(test, SCENARIOS[3])
        assert all(example.dataset != test.dataset for example in unseen)
        assert all(example.meta_goal_id != test.meta_goal_id for example in unseen)

    def test_fewshot_bank_builds_each_example_once(self, corpus, monkeypatch):
        built = []
        build = fewshot.example_from_instance
        monkeypatch.setattr(
            fewshot,
            "example_from_instance",
            lambda instance: built.append(instance.instance_id) or build(instance),
        )
        bank = FewShotBank(corpus)
        first = bank.select(corpus.instances[0], SCENARIOS[0])
        again = bank.select(corpus.instances[0], SCENARIOS[0])
        assert len(built) == len(set(built)) == len(first)
        assert all(mine is theirs for mine, theirs in zip(first, again))
        by_id = {instance.instance_id: instance for instance in corpus.instances}
        assert first == tuple(build(by_id[instance_id]) for instance_id in built)

    def test_fewshot_bank_never_leaks_test_instance(self, corpus):
        bank = FewShotBank(corpus)
        test = corpus.instances[5]
        for scenario in SCENARIOS:
            for example in bank.select(test, scenario):
                assert example.goal != test.goal
