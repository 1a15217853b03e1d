"""Every method the benchmark's tracer patches must still exist.

``perfbench/tracing.py`` wraps the methods it times by name, through
``vars(owner)[attribute]``; renaming or moving one breaks traced runs.  This
resolves each target the way the tracer does, without installing anything.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.tracing import TARGETS  # noqa: E402


@pytest.mark.parametrize(
    "module_name, path, span", TARGETS, ids=[f"{m}:{p}" for m, p, _ in TARGETS]
)
def test_tracer_target_resolves(module_name, path, span):
    owner = importlib.import_module(module_name)
    *owners, attribute = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    assert callable(vars(owner).get(attribute)), (
        f"{module_name}.{path} (span {span!r}) is not defined where the tracer patches it"
    )
