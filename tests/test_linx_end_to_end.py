"""End-to-end tests of LINX through the engine (goal → specifications → notebook)."""

from __future__ import annotations

import pytest

from repro import ExploreRequest, LinxEngine
from repro.cdrl import CdrlConfig
from repro.dataframe import DataTable
from repro.ldx import try_parse_ldx

GOAL = "Find a country with different viewing habits than the rest of the world"


@pytest.fixture(scope="module")
def engine() -> LinxEngine:
    # Small training budget: the specification-aware guidance makes compliant
    # sessions reachable even with few episodes.
    return LinxEngine(cdrl_config=CdrlConfig(episodes=30, seed=3))


@pytest.fixture
def netflix_mini() -> DataTable:
    return DataTable(
        {
            "country": ["India", "US", "US", "India", "UK", "US", "India", "UK", "US", "India"],
            "type": ["Movie"] * 4 + ["TV Show"] * 3 + ["Movie"] * 3,
            "rating": ["TV-14", "TV-MA", "TV-MA", "TV-14", "TV-MA", "PG", "TV-14", "R", "TV-MA", "TV-14"],
            "duration": [100, 50, 90, 110, 45, 95, 120, 105, 80, 99],
        },
        name="netflix",
    )


def _explore(engine: LinxEngine, table: DataTable, goal: str, ldx_text: str | None = None):
    request = ExploreRequest(goal=goal, dataset=table.name, ldx_text=ldx_text)
    return engine.explore(request, table=table)


class TestSpecificationDerivation:
    def test_derived_specs_parse(self, engine):
        ldx_text = engine.spec_deriver.derive("netflix", GOAL).ldx_text
        assert try_parse_ldx(ldx_text) is not None

    def test_derivation_mentions_goal_attribute(self, engine):
        derivation = engine.spec_deriver.derive(
            "playstore", "Survey the price attribute of the data"
        )
        assert "price" in derivation.ldx_text


class TestEndToEnd:
    def test_explore_with_explicit_ldx(self, engine, netflix_mini, comparison_query):
        result = _explore(engine, netflix_mini, GOAL, ldx_text=comparison_query.render())
        assert result.artifacts.session.num_queries() >= 4
        assert result.fully_compliant
        assert "## Step" in result.notebook_markdown
        assert result.artifacts.insights

    def test_explore_derives_specs_when_missing(self, engine, netflix_mini):
        result = _explore(engine, netflix_mini, GOAL)
        assert result.artifacts.query is not None
        assert result.artifacts.session.num_queries() >= 1
        assert result.artifacts.notebook.cells

    def test_malformed_ldx_falls_back(self, engine, netflix_mini):
        result = _explore(engine, netflix_mini, "whatever goal", ldx_text="THIS IS NOT LDX (((")
        assert result.derivation_fallback
        assert result.artifacts.query is not None
        assert result.artifacts.session.num_queries() >= 1
