"""The rewrite-rule distiller CLI.

``python -m repro.rules <subcommand>``:

* ``distill`` — anti-unify the cached programs of each ISA namespace
  into parameterized rules, verify each candidate once via SMT over its
  symbolic hole domain, and persist the surviving rules as ``rules.json``
  beside the cache entries they came from;
* ``stats``   — show each namespace's rulebook (rule count, holes,
  member coverage, verification methods);
* ``verify``  — re-run the verifier over every persisted rule and exit
  nonzero if any rule no longer proves out (a corrupt or tampered book).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.autollvm import build_dictionary
from repro.isa.registry import supported_isas
from repro.synthesis.serialize import dictionary_fingerprint


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.rules", description=__doc__
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--cache-dir",
            required=True,
            help="persistent synthesis-cache directory",
        )
        p.add_argument(
            "--isa",
            default=",".join(supported_isas()),
            help="comma-separated ISAs (default: every registered ISA)",
        )
        p.add_argument("--json", action="store_true")

    distill = sub.add_parser(
        "distill", help="distill cached programs into verified rules"
    )
    common(distill)
    distill.add_argument("--seed", type=int, default=7)

    stats = sub.add_parser("stats", help="per-namespace rulebook inventory")
    common(stats)

    verify = sub.add_parser(
        "verify", help="re-verify every persisted rule against its spec"
    )
    common(verify)
    verify.add_argument(
        "--samples",
        type=int,
        default=16,
        help="random hole assignments fuzzed per rule (plus boundaries)",
    )

    return parser.parse_args(argv)


def _isas(args: argparse.Namespace) -> list[str]:
    return [s for s in args.isa.split(",") if s]


def _dictionary():
    """The dictionary every job compiles against, and its fingerprint."""
    dictionary = build_dictionary()
    return dictionary, dictionary_fingerprint(dictionary)


def _open_cache(cache_dir: str, isa: str, dictionary):
    from repro.service.store import PersistentCache

    return PersistentCache(cache_dir, isa, dictionary)


def _cmd_distill(args: argparse.Namespace) -> int:
    from repro.synthesis.rules import clear_preloaded, distill_rules

    payload = []
    dictionary, fingerprint = _dictionary()
    for isa in _isas(args):
        cache = _open_cache(args.cache_dir, isa, dictionary)
        book, report = distill_rules(
            cache.entries().items(), isa, fingerprint=fingerprint,
            seed=args.seed,
        )
        saved = None
        if len(book):
            saved = str(book.save(cache.dir))
        payload.append({
            "isa": isa,
            "report": report.to_dict(),
            "book": book.stats(),
            "saved": saved,
        })
    # New books supersede whatever this process had memoized.
    clear_preloaded()
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for item in payload:
        report, book = item["report"], item["book"]
        print(
            f"{item['isa']}: {report['scanned']} entries scanned, "
            f"{report['eligible']} eligible, "
            f"{report['candidates']} candidate rules, "
            f"{report['verified']} verified, {report['rejected']} rejected"
        )
        if report["skipped"]:
            detail = ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(report["skipped"].items())
            )
            print(f"  skipped: {detail}")
        if item["saved"]:
            print(
                f"  saved {book['rules']} rules "
                f"({book['holes']} holes, covering {book['members']} "
                f"entries) to {item['saved']}"
            )
        else:
            print("  nothing to save")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.service.store import FINGERPRINT_DIR_CHARS
    from repro.synthesis.rules import load_rulebook

    from pathlib import Path

    root = Path(args.cache_dir)
    payload = []
    dictionary, fingerprint = _dictionary()
    for isa in _isas(args):
        directory = root / isa / fingerprint[:FINGERPRINT_DIR_CHARS]
        book = load_rulebook(
            directory, dictionary, expect_fingerprint=fingerprint,
            use_cache=False,
        )
        payload.append(
            {"isa": isa, "book": None if book is None else book.stats()}
        )
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for item in payload:
        book = item["book"]
        if book is None:
            print(f"{item['isa']}: no rulebook")
            continue
        methods = ", ".join(
            f"{name}={count}"
            for name, count in sorted(book["verified_methods"].items())
        )
        print(
            f"{item['isa']}: {book['rules']} rules over {book['shapes']} "
            f"shapes, {book['holes']} holes, distilled from "
            f"{book['members']} entries (verified: {methods})"
        )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.service.store import FINGERPRINT_DIR_CHARS
    from repro.synthesis.rules import load_rulebook, verify_rule

    from pathlib import Path

    root = Path(args.cache_dir)
    payload = []
    failures = 0
    dictionary, fingerprint = _dictionary()
    for isa in _isas(args):
        directory = root / isa / fingerprint[:FINGERPRINT_DIR_CHARS]
        book = load_rulebook(
            directory, dictionary, expect_fingerprint=fingerprint,
            use_cache=False,
        )
        if book is None:
            payload.append({"isa": isa, "rules": 0, "failed": []})
            continue
        failed = []
        for rule in book.rules:
            ok, reason = verify_rule(rule, samples=args.samples)
            if not ok:
                failed.append({"key": rule.key, "reason": reason})
        failures += len(failed)
        payload.append(
            {"isa": isa, "rules": len(book), "failed": failed}
        )
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for item in payload:
            if not item["rules"]:
                print(f"{item['isa']}: no rulebook")
                continue
            print(
                f"{item['isa']}: {item['rules']} rules re-verified, "
                f"{len(item['failed'])} failed"
            )
            for bad in item["failed"]:
                print(f"  FAIL {bad['key']}: {bad['reason']}")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    handlers = {
        "distill": _cmd_distill,
        "stats": _cmd_stats,
        "verify": _cmd_verify,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
