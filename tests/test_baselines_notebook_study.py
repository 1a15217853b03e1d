"""Tests for baselines, notebook rendering, insight extraction and the study harness."""

from __future__ import annotations

import json

import pytest

from repro.baselines import (
    AtenaAgent,
    AtenaConfig,
    ChatGptDirectBaseline,
    HumanExpertBaseline,
    SheetsExplorerBaseline,
    SheetsSpecification,
    specification_from_ldx,
)
from repro.ldx import parse_ldx, verify
from repro.notebook import extract_insights, render_notebook
from repro.rl.trainer import TrainerConfig
from repro.study import SimulatedRaterPanel, StudyTask, UserStudy


class TestNotebookRendering:
    def test_markdown_contains_steps_and_goal(self, compliant_session):
        notebook = render_notebook(compliant_session, goal="Find an atypical country")
        markdown = notebook.to_markdown()
        assert "Find an atypical country" in markdown
        assert "## Step 1" in markdown and "## Step 4" in markdown
        assert "groupby" in markdown

    def test_ipynb_is_valid_json_with_cells(self, compliant_session):
        notebook = render_notebook(compliant_session)
        document = json.loads(notebook.to_ipynb_json())
        assert document["nbformat"] == 4
        code_cells = [c for c in document["cells"] if c["cell_type"] == "code"]
        assert len(code_cells) == compliant_session.num_queries()

    def test_commentary_reports_filter_share(self, compliant_session):
        notebook = render_notebook(compliant_session)
        filter_cells = [c for c in notebook.cells if c.title.startswith("FILTER")]
        assert any("%" in cell.commentary for cell in filter_cells)


class TestInsights:
    def test_contrast_insight_found_in_comparison_session(self, compliant_session):
        insights = extract_insights(compliant_session)
        assert any(insight.kind == "contrast" for insight in insights)

    def test_dominant_group_insight(self, compliant_session):
        insights = extract_insights(compliant_session)
        assert any(insight.kind == "dominant_group" for insight in insights)

    def test_insights_deduplicated_and_bounded(self, compliant_session):
        insights = extract_insights(compliant_session, max_insights=3)
        assert len(insights) <= 3
        assert len({i.text for i in insights}) == len(insights)

    def test_empty_session_yields_no_insights(self, small_table):
        from repro.explore import session_from_operations

        assert extract_insights(session_from_operations(small_table, [])) == []


class TestBaselines:
    def test_chatgpt_baseline_is_descriptive(self, small_table):
        session = ChatGptDirectBaseline().generate(small_table, "Find an atypical country")
        assert session.num_queries() >= 2
        kinds = [node.operation.kind for node in session.query_nodes()]
        assert kinds.count("G") >= 2  # mostly descriptive aggregations

    def test_chatgpt_baseline_not_compliant_with_comparison_goal(
        self, small_table, comparison_query
    ):
        session = ChatGptDirectBaseline().generate(small_table, "Find an atypical country")
        assert not verify(session.to_tree(), comparison_query)

    def test_sheets_specification_from_ldx(self, small_table, comparison_query):
        specification = specification_from_ldx(comparison_query, small_table)
        assert "country" in specification.columns

    def test_sheets_baseline_generates_univariate_summaries(self, small_table):
        specification = SheetsSpecification(columns=("country", "duration"), subset=None)
        session = SheetsExplorerBaseline().generate(small_table, specification)
        assert 1 <= session.num_queries() <= 5
        assert all(node.depth() <= 1 for node in session.query_nodes())

    def test_human_expert_is_compliant_and_high_utility(self, small_table, comparison_query):
        session = HumanExpertBaseline().generate(small_table, comparison_query)
        assert verify(session.to_tree(), comparison_query)

    def test_atena_agent_produces_session(self, small_table):
        agent = AtenaAgent(small_table, config=AtenaConfig(episodes=6, episode_length=3))
        result = agent.run()
        assert result.session.steps_taken == 3
        assert len(result.history.episode_returns) == 6

    def test_atena_agent_keeps_nested_trainer_settings(self, small_table):
        nested = TrainerConfig(value_coefficient=0.1, reward_scale=2.0, elite_episodes=0)
        agent = AtenaAgent(
            small_table, config=AtenaConfig(episodes=6, seed=5, trainer=nested)
        )
        assert agent.trainer.config == TrainerConfig(
            value_coefficient=0.1, reward_scale=2.0, elite_episodes=0,
            episodes=6, seed=5,
        )


class TestStudy:
    def test_panel_rates_compliant_sessions_higher(
        self, compliant_session, noncompliant_session, comparison_query
    ):
        panel = SimulatedRaterPanel(num_raters=10)
        good = panel.rate(
            "LINX", compliant_session, "goal", comparison_query, "netflix_mini"
        )
        bad = panel.rate(
            "ATENA", noncompliant_session, "goal", comparison_query, "netflix_mini"
        )
        assert good.relevance > bad.relevance
        assert 1 <= good.relevance <= 7
        assert good.relevant_insights >= bad.relevant_insights

    def test_panel_deterministic(self, compliant_session, comparison_query):
        panel = SimulatedRaterPanel(num_raters=5)
        first = panel.rate("LINX", compliant_session, "goal", comparison_query, "netflix_mini")
        second = panel.rate("LINX", compliant_session, "goal", comparison_query, "netflix_mini")
        assert first.relevance == second.relevance

    def test_study_runs_on_limited_systems(self):
        study = UserStudy(
            linx_episodes=15,
            atena_episodes=10,
            dataset_rows=120,
            systems=("ChatGPT", "Google Sheets"),
        )
        tasks = [
            StudyTask(
                dataset="netflix",
                goal="Find a country with different viewing habits than the rest of the world",
                ldx_text=(
                    "ROOT CHILDREN <B1,B2>\n"
                    "B1 LIKE [F,country,eq,(?<X>.*)] and CHILDREN {C1}\n"
                    "C1 LIKE [G,(?<Y>.*),count,.*]\n"
                    "B2 LIKE [F,country,neq,(?<X>.*)] and CHILDREN {C2}\n"
                    "C2 LIKE [G,(?<Y>.*),count,.*]\n"
                ),
            )
        ]
        outcome = study.run(tasks)
        assert len(outcome.results) == 2
        relevance = outcome.relevance_by_dataset()
        assert "ChatGPT" in relevance
