"""Whole-result helpers over :class:`~repro.engine.store.ResultStore`.

The serving tier only ever stores pre-serialized JSON
(:meth:`~repro.engine.store.ResultStore.commit_result`) and reads raw
text back (:meth:`~repro.engine.store.ResultStore.get_payload_text`).
Tests want to round-trip whole :class:`~repro.engine.result.ExploreResult`
objects, so these helpers layer that on the store's public methods.
"""

from __future__ import annotations

import json
import sqlite3
from contextlib import closing
from typing import Any, Optional

from repro.engine import ExploreResult, ResultStore


def put(store: ResultStore, namespace: str, request_hash: str, result: ExploreResult) -> None:
    """Persist *result* under ``(namespace, request_hash)`` in one transaction."""
    store.commit_result(
        namespace,
        request_hash,
        json.dumps(result.to_dict()),
        request_id=str(result.request.get("request_id", "")),
        dataset=result.dataset_name,
    )


def get_payload(
    store: ResultStore, namespace: str, request_hash: str
) -> Optional[dict[str, Any]]:
    """The stored result as a parsed JSON object, or ``None``."""
    text = store.get_payload_text(namespace, request_hash)
    return None if text is None else json.loads(text)


def get(store: ResultStore, namespace: str, request_hash: str) -> Optional[ExploreResult]:
    """The stored :class:`ExploreResult`, or ``None``."""
    payload = get_payload(store, namespace, request_hash)
    return None if payload is None else ExploreResult.from_dict(payload)


def contains(store: ResultStore, namespace: str, request_hash: str) -> bool:
    """Whether a result is stored under the key (no counter bump)."""
    return request_hash in store.request_hashes(namespace)


def delete(store: ResultStore, namespace: str, request_hash: str) -> bool:
    """Remove the row under the key; True when one existed.

    Runs on its own connection to the store file: the store keeps no
    in-memory copy of its rows, so its readers see the deletion at once.
    """
    with closing(sqlite3.connect(store.path, timeout=30.0)) as conn, conn:
        cursor = conn.execute(
            "DELETE FROM results WHERE namespace = ? AND request_hash = ?",
            (namespace, request_hash),
        )
        return cursor.rowcount > 0
