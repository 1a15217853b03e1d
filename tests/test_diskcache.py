"""Process-pool checks on engines built with custom stage objects."""

from __future__ import annotations

import pytest

from repro.engine import LinxEngine, RequestScheduler


class TestEngineIntegration:
    def test_process_pool_rejects_custom_stages(self):
        class NullRenderer:
            name = "null"

            def render(self, session, goal):
                raise NotImplementedError

        engine = LinxEngine(notebook_renderer=NullRenderer())
        with pytest.raises(ValueError):
            RequestScheduler(engine, workers="process")
