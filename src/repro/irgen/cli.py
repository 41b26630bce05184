"""``python -m repro.irgen`` — manage the offline IR-generation artifact.

Subcommands::

    build   Build (or warm-load) the one artifact, over every registered
            ISA.
            --expect-cached exits non-zero if a rebuild was needed — the
            CI smoke job uses it to prove the second build is a pure
            cache hit.
    stats   Inventory of a cache root: per-namespace class counts, the
            artifact format and its node-table rows, build stats
            (including the similarity ladder's per-rung verdict counts,
            attempt_truncations, the engine's precision-loss counter,
            and how many specs were lowered as loops or unrolled and
            re-rolled), disk usage, and which namespace is current.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.irgen import (
    ENV_CACHE,
    cache_root_from_env,
    default_jobs,
    ensure_artifact,
    irgen_fingerprint,
    store_inventory,
)
from repro.irgen.artifact import artifact_stored
from repro.isa.registry import supported_isas


def _check_isas(text: str) -> None:
    """Reject unknown names in ``build --isas``.  The list selects
    nothing — every build covers all registered ISAs — and exists only
    because ``bench_e2e/harness.py`` passes it; delete the flag once the
    benchmark stops."""
    known = supported_isas()
    names = (part.strip() for part in text.split(","))
    unknown = [isa for isa in names if isa and isa not in known]
    if unknown:
        print(
            f"error: unknown ISA(s) {', '.join(unknown)}; supported: "
            f"{', '.join(known)}",
            file=sys.stderr,
        )
        raise SystemExit(2)


def _resolve_root(args) -> str:
    root = args.cache_dir or cache_root_from_env()
    if not root:
        print(
            f"error: no cache root; pass --cache-dir or set {ENV_CACHE}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return root


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"artifact root directory (default: ${ENV_CACHE})",
    )


def _rungs(checker_stats: dict) -> str:
    """Non-zero ladder verdict counts, e.g. ``alpha:1156/structural:40``."""
    return "/".join(f"{k}:{v}" for k, v in checker_stats.items() if v) or "-"


_WALLS = (
    ("parse", "parse_wall"), ("check", "check_wall"), ("refine", "refine"), ("merge", "merge"),
)


def _walls(phase_seconds: dict) -> str:
    """Where a cold build's wall time went, e.g. ``parse:2.41s/check:0.37s``."""
    return "/".join(
        f"{name}:{phase_seconds[key]:.2f}s" for name, key in _WALLS if key in phase_seconds
    ) or "-"


def _lowering(stats: dict) -> str:
    """How the specs were lowered, e.g. ``direct:1476/rerolled:114``."""
    return (
        f"direct:{stats.get('specs_lowered_direct', '?')}"
        f"/rerolled:{stats.get('specs_rerolled', '?')}"
    )


def cmd_build(args) -> int:
    root = _resolve_root(args)
    _check_isas(args.isas)
    began = time.monotonic()
    artifact = ensure_artifact(root, jobs=args.jobs, force=args.force)
    elapsed = time.monotonic() - began
    action = "loaded" if artifact.loaded else "built"
    print(
        f"[irgen] {action} {'+'.join(artifact.isas)}:"
        f" {len(artifact.classes)} classes"
        f" from {artifact.stats.instructions} instructions in {elapsed:.2f}s"
        f" (nodes={artifact.nodes},"
        f" checks={artifact.stats.checks},"
        f" rungs={_rungs(artifact.stats.checker_stats)},"
        f" walls={_walls(artifact.phase_seconds)},"
        f" lowering={_lowering(artifact.stats.to_dict())},"
        f" truncations={artifact.stats.attempt_truncations},"
        f" fingerprint={artifact.fingerprint[:16]})"
    )
    if args.expect_cached and not artifact.loaded:
        print(
            "[irgen] error: --expect-cached but the artifact was rebuilt",
            file=sys.stderr,
        )
        return 1
    if not artifact_stored(root, artifact.fingerprint):
        print(f"[irgen] error: could not write under {root}", file=sys.stderr)
        return 1
    return 0


def cmd_stats(args) -> int:
    root = _resolve_root(args)
    current = irgen_fingerprint()
    namespaces = store_inventory(root)
    for entry in namespaces:
        entry["current"] = entry.get("fingerprint") == current
    if args.json:
        print(
            json.dumps(
                {
                    "root": root,
                    "current_fingerprint": current,
                    "namespaces": namespaces,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(f"[irgen] store {root}: {len(namespaces)} namespace(s)")
    print(
        f"[irgen] current fingerprint ({'+'.join(supported_isas())}):"
        f" {current[:16]}"
    )
    for entry in namespaces:
        stats = entry.get("stats", {})
        marker = "*" if entry.get("current") else " "
        state = "complete" if entry.get("complete") else "INCOMPLETE"
        litter = entry.get("tmp_litter", 0)
        print(
            f"  {marker} {entry['dir']}  {state}"
            f"  classes={entry.get('classes', '?')}"
            f"  instructions={entry.get('instructions', '?')}"
            f"  nodes={entry.get('nodes', '?')}"
            f"  checks={stats.get('checks', '?')}"
            f"  rungs={_rungs(stats.get('checker_stats', {}))}"
            f"  walls={_walls(entry.get('phase_seconds', {}))}"
            f"  lowering={_lowering(stats)}"
            f"  truncations={stats.get('attempt_truncations', '?')}"
            f"  uninstantiable={stats.get('uninstantiable', '?')}"
            f"  build_s={stats.get('seconds', '?')}"
            f"  KiB={entry['bytes'] // 1024}"
            + (f"  tmp_litter={litter}" if litter else "")
        )
    if not namespaces:
        print("  (empty)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.irgen",
        description="Offline IR-generation artifact store",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="build or warm-load the artifact")
    _add_common(build)
    build.add_argument(
        "--isas",
        default="",
        help="comma-separated ISA names, checked against the registry;"
        " every build covers all registered ISAs",
    )
    build.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: cpu count)",
    )
    build.add_argument(
        "--force", action="store_true", help="rebuild even on a cache hit"
    )
    build.add_argument(
        "--expect-cached",
        action="store_true",
        help="fail unless the artifact loaded without a rebuild",
    )
    build.set_defaults(func=cmd_build)

    stats = sub.add_parser("stats", help="inspect a cache root")
    _add_common(stats)
    stats.add_argument("--json", action="store_true", help="machine output")
    stats.set_defaults(func=cmd_stats)

    args = parser.parse_args(argv)
    if args.func is cmd_build and args.jobs is None:
        args.jobs = default_jobs()
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
