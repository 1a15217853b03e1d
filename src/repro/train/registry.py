"""A sqlite-backed registry of named, versioned, servable policy artifacts.

Training produces checkpoints; this module turns them into *operable*
artifacts: ``publish`` stores a checkpoint under ``(name, version)`` with
its engine config fingerprint and final metrics, ``promote`` marks the
version the bare name should serve, and ``attach`` self-registers a
session-generator factory per artifact into the serving tier's
:data:`~repro.engine.registry.STAGE_REGISTRY` — after which an HTTP
``ExploreRequest`` with ``{"session_generator": "cdrl:flights-v2"}`` loads
and serves that exact trained policy instead of training from scratch.

Durability follows :class:`~repro.engine.store.ResultStore` /
:class:`~repro.explore.diskcache.DiskCacheTier`: WAL journaling, one
transaction per write, an in-process lock for thread sharing, and a
schema-version meta row that drops the store wholesale on mismatch.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Optional

from repro.cdrl.agent import CdrlConfig, LinxCdrlAgent

from .checkpoint import TrainingCheckpoint, TrainSpec

#: Version of the on-disk layout (sqlite schema + checkpoint blob format).
REGISTRY_SCHEMA_VERSION = 1

#: Policy names are lowercase slugs; the serving alias adds the ``cdrl:``
#: prefix and ``-v<N>`` suffix, so neither may appear in the name itself.
_NAME_PATTERN = re.compile(r"^[a-z0-9][a-z0-9_-]*$")


def config_fingerprint(config: CdrlConfig) -> str:
    """Digest of a training configuration (mirrors the engine's fingerprint
    recipe: blake2b-12 over the sorted config fields)."""
    payload = repr(sorted(dataclasses.asdict(config).items()))
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=12).hexdigest()


def _validate_name(name: str) -> str:
    key = str(name).strip().lower()
    if not _NAME_PATTERN.match(key):
        raise ValueError(
            f"invalid policy name {name!r}: must be a lowercase slug "
            "([a-z0-9_-], starting alphanumeric)"
        )
    return key


class PolicyRegistry:
    """Persistent mapping of ``(name, version)`` → trained policy artifact."""

    def __init__(self, path: str | Path, timeout: float = 30.0):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(
            str(self.path), timeout=timeout, check_same_thread=False
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        #: Artifacts written / loaded.
        self.publishes = 0
        self.loads = 0
        #: True when a version mismatch dropped a pre-existing registry.
        self.invalidated = False
        #: Stage registries :meth:`attach` has hooked into (new versions
        #: self-register there on publish).
        self._attached: list[Any] = []
        self._ensure_schema()

    # -- schema -----------------------------------------------------------------------
    def _ensure_schema(self) -> None:
        with self._lock, self._conn:
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
            )
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is not None and row[0] != str(REGISTRY_SCHEMA_VERSION):
                self._conn.execute("DROP TABLE IF EXISTS policies")
                self.invalidated = True
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS policies ("
                " name TEXT NOT NULL,"
                " version INTEGER NOT NULL,"
                " config_fingerprint TEXT NOT NULL,"
                " dataset TEXT NOT NULL,"
                " ldx_text TEXT NOT NULL,"
                " metrics TEXT NOT NULL,"
                " checkpoint BLOB NOT NULL,"
                " promoted INTEGER NOT NULL DEFAULT 0,"
                " created_at REAL NOT NULL,"
                " PRIMARY KEY (name, version))"
            )
            self._conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES ('schema_version', ?)",
                (str(REGISTRY_SCHEMA_VERSION),),
            )

    # -- writes -----------------------------------------------------------------------
    def publish(
        self,
        name: str,
        checkpoint: TrainingCheckpoint,
        *,
        metrics: dict | None = None,
    ) -> int:
        """Store *checkpoint* as the next version of *name*; returns the version.

        The first version of a name is promoted automatically (so the bare
        alias serves something immediately); later versions stay candidates
        until :meth:`promote`.
        """
        key = _validate_name(name)
        spec = TrainSpec.from_payload(checkpoint.spec)
        fingerprint = config_fingerprint(spec.config)
        blob = checkpoint.to_blob()
        with self._lock, self._conn:
            row = self._conn.execute(
                "SELECT MAX(version) FROM policies WHERE name = ?", (key,)
            ).fetchone()
            version = (row[0] or 0) + 1
            self._conn.execute(
                "INSERT INTO policies"
                " (name, version, config_fingerprint, dataset, ldx_text, metrics,"
                "  checkpoint, promoted, created_at)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    key,
                    version,
                    fingerprint,
                    spec.dataset,
                    spec.ldx_text,
                    json.dumps(metrics or {}),
                    blob,
                    1 if version == 1 else 0,
                    time.time(),
                ),
            )
            self.publishes += 1
        for stage_registry in self._attached:
            self._register_artifact(stage_registry, key, version)
        return version

    def promote(self, name: str, version: int) -> None:
        """Make *version* what the bare ``cdrl:<name>`` alias serves."""
        key = _validate_name(name)
        with self._lock, self._conn:
            row = self._conn.execute(
                "SELECT 1 FROM policies WHERE name = ? AND version = ?",
                (key, int(version)),
            ).fetchone()
            if row is None:
                raise KeyError(f"policy {key!r} has no version {version}")
            self._conn.execute(
                "UPDATE policies SET promoted = 0 WHERE name = ?", (key,)
            )
            self._conn.execute(
                "UPDATE policies SET promoted = 1 WHERE name = ? AND version = ?",
                (key, int(version)),
            )

    # -- lookups ----------------------------------------------------------------------
    def versions(self, name: str) -> list[int]:
        key = _validate_name(name)
        with self._lock:
            rows = self._conn.execute(
                "SELECT version FROM policies WHERE name = ? ORDER BY version", (key,)
            ).fetchall()
        return [int(row[0]) for row in rows]

    def get(self, name: str, version: Optional[int] = None) -> dict[str, Any]:
        """The artifact record for ``(name, version)``.

        ``version=None`` resolves to the promoted version, falling back to
        the latest.  The returned dict carries the deserialized
        :class:`TrainingCheckpoint` under ``"checkpoint"``.
        """
        key = _validate_name(name)
        with self._lock:
            if version is None:
                row = self._conn.execute(
                    "SELECT name, version, config_fingerprint, dataset, ldx_text,"
                    " metrics, checkpoint, promoted, created_at"
                    " FROM policies WHERE name = ?"
                    " ORDER BY promoted DESC, version DESC LIMIT 1",
                    (key,),
                ).fetchone()
            else:
                row = self._conn.execute(
                    "SELECT name, version, config_fingerprint, dataset, ldx_text,"
                    " metrics, checkpoint, promoted, created_at"
                    " FROM policies WHERE name = ? AND version = ?",
                    (key, int(version)),
                ).fetchone()
            if row is None:
                suffix = "" if version is None else f" version {version}"
                raise KeyError(f"no policy {key!r}{suffix} in {self.path}")
            self.loads += 1
        return {
            "name": row[0],
            "version": int(row[1]),
            "config_fingerprint": row[2],
            "dataset": row[3],
            "ldx_text": row[4],
            "metrics": json.loads(row[5]),
            "checkpoint": TrainingCheckpoint.from_blob(row[6]),
            "promoted": bool(row[7]),
            "created_at": float(row[8]),
        }

    def list_policies(self) -> list[dict[str, Any]]:
        """Every stored artifact's metadata (no checkpoint blobs), ordered."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT name, version, config_fingerprint, dataset, metrics,"
                " promoted, created_at, LENGTH(checkpoint)"
                " FROM policies ORDER BY name, version"
            ).fetchall()
        return [
            {
                "name": row[0],
                "version": int(row[1]),
                "config_fingerprint": row[2],
                "dataset": row[3],
                "metrics": json.loads(row[4]),
                "promoted": bool(row[5]),
                "created_at": float(row[6]),
                "checkpoint_bytes": int(row[7]),
            }
            for row in rows
        ]

    # -- serving integration ----------------------------------------------------------
    def attach(self, stage_registry=None) -> list[str]:
        """Register a session-generator factory per stored artifact.

        Each ``(name, version)`` registers as ``cdrl:<name>-v<version>``
        and each name additionally as the floating alias ``cdrl:<name>``
        (promoted-or-latest, resolved when the stage instance is built).
        Versions published after attaching self-register too.  Returns the
        stage names registered.

        Note the serving caveat: the engine memoizes stage instances per
        ``(kind, name)``, so only the *versioned* names are fully idempotent
        for result-store purposes — the floating alias can start serving a
        newer version after a promote + engine restart.
        """
        if stage_registry is None:
            from repro.engine.registry import STAGE_REGISTRY

            stage_registry = STAGE_REGISTRY
        if all(existing is not stage_registry for existing in self._attached):
            self._attached.append(stage_registry)
        registered: list[str] = []
        seen_names: set[str] = set()
        for record in self.list_policies():
            registered.append(
                self._register_artifact(stage_registry, record["name"], record["version"])
            )
            if record["name"] not in seen_names:
                seen_names.add(record["name"])
                registered.append(self._register_alias(stage_registry, record["name"]))
        return registered

    def _register_artifact(self, stage_registry, name: str, version: int) -> str:
        from repro.engine.registry import KIND_SESSION_GENERATOR

        stage_name = f"cdrl:{name}-v{version}"
        registry = self

        def factory(_context) -> "RegisteredPolicySessionGenerator":
            return RegisteredPolicySessionGenerator(registry, name, version=version)

        stage_registry.register(
            KIND_SESSION_GENERATOR, stage_name, factory, replace=True
        )
        # Publishing a new version must also refresh what the bare alias
        # resolves to on next engine start.
        self._register_alias(stage_registry, name)
        return stage_name

    def _register_alias(self, stage_registry, name: str) -> str:
        from repro.engine.registry import KIND_SESSION_GENERATOR

        stage_name = f"cdrl:{name}"
        registry = self

        def factory(_context) -> "RegisteredPolicySessionGenerator":
            return RegisteredPolicySessionGenerator(registry, name, version=None)

        stage_registry.register(
            KIND_SESSION_GENERATOR, stage_name, factory, replace=True
        )
        return stage_name

    # -- maintenance ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return int(
                self._conn.execute("SELECT COUNT(*) FROM policies").fetchone()[0]
            )

    def describe(self) -> dict[str, Any]:
        with self._lock:
            names = int(
                self._conn.execute(
                    "SELECT COUNT(DISTINCT name) FROM policies"
                ).fetchone()[0]
            )
        return {
            "path": str(self.path),
            "schema_version": REGISTRY_SCHEMA_VERSION,
            "policies": names,
            "artifacts": len(self),
            "publishes": self.publishes,
            "loads": self.loads,
            "invalidated": self.invalidated,
        }

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "PolicyRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class RegisteredPolicySessionGenerator:
    """Serves a trained, registered policy as an engine session generator.

    ``generate`` never trains: it rebuilds the agent with the checkpointed
    weights (:meth:`load_agent`) and runs a small greedy-plus-sampled
    evaluation sweep, returning the best
    session ranked by (compliance with the *request's* LDX, utility) — the
    verification pattern :class:`~repro.engine.stages.AtenaSessionGenerator`
    established for generators whose training objective is not the request.
    """

    def __init__(
        self,
        registry: PolicyRegistry,
        policy_name: str,
        version: Optional[int] = None,
        attempts: int = 5,
    ):
        self.registry = registry
        self.policy_name = _validate_name(policy_name)
        self.version = version
        self.attempts = attempts
        suffix = f"-v{version}" if version is not None else ""
        self.name = f"cdrl:{self.policy_name}{suffix}"
        self._record: Optional[dict[str, Any]] = None

    def _load_record(self) -> dict[str, Any]:
        if self._record is None:
            self._record = self.registry.get(self.policy_name, self.version)
        return self._record

    def load_agent(self, table, cache=None) -> LinxCdrlAgent:
        """A one-environment agent over *table* holding the artifact's weights.

        The agent is rebuilt from the stored training spec, because the
        policy's head structure depends on the *training* LDX and dataset
        schema.
        """
        record = self._load_record()
        spec = TrainSpec.from_payload(record["checkpoint"].spec)
        agent = LinxCdrlAgent(
            table,
            spec.ldx_text,
            config=dataclasses.replace(spec.config, num_envs=1),
            cache=cache,
        )
        try:
            agent.policy.network.load_state(record["checkpoint"].network_state)
        except ValueError as exc:
            raise ValueError(
                f"policy {self.name!r} was trained on dataset "
                f"{record['dataset']!r} and does not fit table {table.name!r}: "
                f"{exc}"
            ) from exc
        return agent

    def generate(
        self,
        table,
        ldx_text: str,
        *,
        episodes: Optional[int] = None,
        seed: Optional[int] = None,
        cache=None,
        on_episode=None,
    ):
        from repro.engine.stages import SessionOutcome
        from repro.explore.rollouts import collect_rollouts
        from repro.ldx.parser import try_parse_ldx
        from repro.ldx.verifier import verify, verify_structure

        agent = self.load_agent(table, cache=cache)
        checkpoint: TrainingCheckpoint = self._load_record()["checkpoint"]
        request_query = try_parse_ldx(ldx_text)
        scorer = agent._generic_reward
        eval_seed = seed if seed is not None else agent.config.seed
        # The request's episode budget bounds the evaluation sweep, not
        # training (there is none): a handful of attempts is plenty.
        attempts = (
            max(1, min(int(episodes), 16)) if episodes is not None else self.attempts
        )
        # Attempt k is a wave of one sampling from env_rng(eval_seed, k).
        best: Optional[tuple[Any, bool, float]] = None
        for attempt in range(attempts):
            rollout = collect_rollouts(
                [agent.environment],
                agent.policy,
                seed=eval_seed,
                episode_base=attempt,
                greedy=(attempt == 0),
                decision_to_choice=agent.trainer.decision_to_choice,
            )
            session = rollout.sessions[0]
            if on_episode is not None:
                on_episode(attempt, rollout.buffers[0].total_reward(), session)
            compliant = bool(
                request_query and verify(session.to_tree(), request_query)
            )
            utility = float(scorer.session_score(session))
            if best is None or (compliant, utility) > (best[1], best[2]):
                best = (session, compliant, utility)
        assert best is not None
        session, compliant, utility = best
        tree = session.to_tree()
        return SessionOutcome(
            session=session,
            fully_compliant=compliant,
            structurally_compliant=bool(
                request_query and verify_structure(tree, request_query)
            ),
            utility_score=utility,
            episodes_trained=len(checkpoint.history.get("episode_returns", [])),
        )
