"""Command-line front-end for the training tier.

Four subcommands cover the train → resume → publish → serve lifecycle::

    # Train a policy and publish it as "flights-delay".
    python -m repro.train train --dataset flights --rows 300 \
        --ldx-file spec.ldx --episodes 60 \
        --checkpoint /tmp/linx/run.ckpt \
        --registry /tmp/linx/policies.sqlite --name flights-delay

    # Continue an interrupted run.
    python -m repro.train resume /tmp/linx/run.ckpt

    # Inspect and manage the registry.
    python -m repro.train list --registry /tmp/linx/policies.sqlite
    python -m repro.train promote flights-delay 2 \
        --registry /tmp/linx/policies.sqlite

A published policy is immediately servable: point the HTTP server at the
same registry (``python -m repro.engine.server --policy-registry ...``) and
submit requests with ``{"stages": {"session_generator": "cdrl:<name>-v<N>"}}``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

from repro.cdrl.agent import CdrlConfig

from .checkpoint import TrainSpec, TrainingCheckpoint
from .registry import PolicyRegistry
from .run import TrainingRun


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        help="checkpoint every N episodes (default: the run's batch_episodes)",
    )
    parser.add_argument(
        "--registry", default=None, help="sqlite policy registry path"
    )
    parser.add_argument(
        "--name",
        default=None,
        help="publish the trained policy under this name (requires --registry)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the per-episode ticker"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.train",
        description="Train, resume, publish and manage CDRL policies.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser("train", help="train a new policy")
    train.add_argument("--dataset", default="flights", help="registered dataset name")
    train.add_argument("--rows", type=int, default=None, help="sample N rows")
    train.add_argument(
        "--dataset-seed", type=int, default=None, help="row-sampling seed"
    )
    ldx = train.add_mutually_exclusive_group()
    ldx.add_argument("--ldx", default=None, help="inline LDX specification text")
    ldx.add_argument(
        "--ldx-file", default=None, help="read the LDX specification from a file"
    )
    train.add_argument("--episodes", type=int, default=100)
    train.add_argument("--episode-length", type=int, default=6)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument(
        "--checkpoint", default=None, help="checkpoint file path (enables resume)"
    )
    _add_run_arguments(train)

    resume = commands.add_parser(
        "resume", help="continue training from a checkpoint file"
    )
    resume.add_argument("checkpoint", help="checkpoint file written by 'train'")
    _add_run_arguments(resume)

    listing = commands.add_parser("list", help="list registry policies")
    listing.add_argument("--registry", required=True)

    promote = commands.add_parser(
        "promote", help="make a version the default for its policy name"
    )
    promote.add_argument("name")
    promote.add_argument("version", type=int)
    promote.add_argument("--registry", required=True)

    return parser


def _resolve_ldx(args: argparse.Namespace) -> str:
    if args.ldx is not None:
        return args.ldx
    if args.ldx_file is not None:
        with open(args.ldx_file, "r", encoding="utf-8") as handle:
            return handle.read()
    # No specification: accept any filter/group session (the engine's
    # fallback spec), so the generic exploration reward drives training.
    from repro.engine.core import PERMISSIVE_LDX

    return PERMISSIVE_LDX


def _ticker(quiet: bool):
    if quiet:
        return None

    def callback(episode: int, episode_return: float, _session) -> None:
        print(f"  episode {episode + 1}: return {episode_return:.4f}")

    return callback


def _train(run: TrainingRun, args: argparse.Namespace) -> int:
    if args.name is not None and args.registry is None:
        print("error: --name requires --registry", file=sys.stderr)
        return 2
    started = time.perf_counter()
    result = run.train(callback=_ticker(args.quiet))
    elapsed = time.perf_counter() - started
    print(f"trained {result.episodes_trained} episodes in {elapsed:.1f}s")
    print(
        f"  best session: compliant={result.fully_compliant}, "
        f"utility={result.utility_score:.4f}, "
        f"{len(result.session.operations)} operations"
    )
    if run.checkpoint_path:
        print(f"  checkpoint: {run.checkpoint_path}")
    if args.name is not None:
        with PolicyRegistry(args.registry) as registry:
            version = run.publish(
                registry,
                args.name,
                metrics={
                    "episodes": result.episodes_trained,
                    "utility": result.utility_score,
                    "fully_compliant": result.fully_compliant,
                    "train_seconds": round(elapsed, 3),
                },
            )
        print(f"  published cdrl:{args.name}-v{version} to {args.registry}")
    return 0


def _command_train(args: argparse.Namespace) -> int:
    config = CdrlConfig(
        episodes=args.episodes,
        episode_length=args.episode_length,
        seed=args.seed,
    )
    spec = TrainSpec(
        dataset=args.dataset,
        ldx_text=_resolve_ldx(args),
        num_rows=args.rows,
        dataset_seed=args.dataset_seed,
        config=config,
    )
    run = TrainingRun(
        spec,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
    )
    return _train(run, args)


def _command_resume(args: argparse.Namespace) -> int:
    checkpoint = TrainingCheckpoint.load(args.checkpoint)
    print(
        f"resuming at episode {checkpoint.episodes_completed}"
        f"/{checkpoint.total_episodes} "
        f"(dataset {checkpoint.spec['dataset']!r})"
    )
    run = TrainingRun.from_checkpoint(
        args.checkpoint, checkpoint_every=args.checkpoint_every
    )
    return _train(run, args)


def _command_list(args: argparse.Namespace) -> int:
    with PolicyRegistry(args.registry) as registry:
        policies = registry.list_policies()
        if not policies:
            print(f"no policies in {args.registry}")
            return 0
        print(f"{len(policies)} artifact(s) in {args.registry}:")
        for record in policies:
            marker = "*" if record["promoted"] else " "
            print(
                f"  {marker} cdrl:{record['name']}-v{record['version']}  "
                f"dataset={record['dataset']}  "
                f"checkpoint={record['checkpoint_bytes']}B  "
                f"metrics={record['metrics']}"
            )
        print("  (* = promoted: served by the bare cdrl:<name> alias)")
    return 0


def _command_promote(args: argparse.Namespace) -> int:
    with PolicyRegistry(args.registry) as registry:
        try:
            registry.promote(args.name, args.version)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        print(f"promoted cdrl:{args.name}-v{args.version}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "train": _command_train,
        "resume": _command_resume,
        "list": _command_list,
        "promote": _command_promote,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
