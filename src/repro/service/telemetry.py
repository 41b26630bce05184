"""Shared telemetry aggregation and formatting.

One place sums per-job :class:`~repro.service.jobs.JobTelemetry` into
run-level :class:`~repro.service.scheduler.ServiceStats` and renders the
human-facing summary lines, so the batch CLI (``repro.service stats``),
the scheduler, and the daemon (``repro.daemon stats`` / ``/stats``)
cannot drift apart on how hit rates or hot-path metrics are computed.
"""

from __future__ import annotations


def fold_outcome(stats, outcome) -> None:
    """Fold one job's telemetry into a run aggregate.

    ``stats`` is a :class:`ServiceStats`; ``outcome`` a
    :class:`JobResult`.  Used by :class:`WorkerPool` as it hands out
    each event and by the batch scheduler's serial path.
    """
    telemetry = outcome.telemetry
    stats.ok += 1 if outcome.ok else 0
    stats.cache_hits += telemetry.cache_hits
    stats.failure_hits += telemetry.failure_hits
    stats.synth_calls += telemetry.synth_calls
    stats.rule_hits += telemetry.rule_hits
    stats.entries_added += telemetry.entries_added
    stats.cache_screened += telemetry.cache_screened
    stats.cache_screen_failures += telemetry.cache_screen_failures
    stats.fallbacks += 1 if telemetry.fallback else 0
    stats.busy_seconds += telemetry.wall_seconds
    for key, value in telemetry.perf.items():
        stats.perf[key] = stats.perf.get(key, 0) + value


def perf_line(metrics: dict, raw: dict) -> str:
    """One-line synthesis hot-path summary (perf counters)."""
    line = (
        f"synthesis: {raw.get('candidates_evaluated', 0):.0f} candidates "
        f"({metrics.get('candidates_per_sec', 0.0):,.0f}/s) | "
        f"blast cache {metrics.get('blast_cache_hit_rate', 0.0):.1%} | "
        f"{raw.get('learned_clauses_retained', 0):.0f} learned clauses "
        f"retained over {raw.get('sat_queries', 0):.0f} SAT queries"
    )
    injected = raw.get("faults_injected", 0)
    recovered = raw.get("fault_recoveries", 0)
    if injected or recovered:
        line += (
            f" | faults: {injected:.0f} injected, {recovered:.0f} recovered"
        )
    return line


def format_run_summary(run: dict, label: str = "last run") -> list[str]:
    """Human-readable lines for one recorded run-telemetry dict.

    ``run`` is a :meth:`ServiceStats.to_dict` payload (possibly read
    back from ``stats.json`` or scraped from the daemon's ``/stats``).
    """
    lines = [
        f"{label}: {run.get('jobs')} jobs, "
        f"hit rate {run.get('hit_rate', 0.0):.1%}, "
        f"{run.get('synth_calls')} synthesized, "
        f"wall {run.get('wall_seconds')}s, "
        f"utilization {run.get('utilization', 0.0):.0%}"
    ]
    if run.get("cache_screened"):
        lines.append(
            f"{label} hit check: {run.get('cache_screened')} hits "
            f"checked, {run.get('cache_screen_failures', 0)} evicted"
        )
    metrics = run.get("perf_metrics") or {}
    if metrics:
        lines.append(f"{label} " + perf_line(metrics, run.get("perf") or {}))
    perf = run.get("perf") or {}
    if (
        run.get("rule_hits")
        or perf.get("rule_matches")
        or perf.get("rule_misses")
        or perf.get("rule_distilled")
    ):
        lines.append(
            f"{label} rules: {perf.get('rule_matches', 0):.0f} windows "
            f"served by rule vs {perf.get('rule_misses', 0):.0f} fell "
            f"through to synthesis"
            + (
                f", {perf.get('rule_distilled', 0):.0f} distilled "
                f"({perf.get('rule_verify_failures', 0):.0f} rejected)"
                if perf.get("rule_distilled") or perf.get("rule_verify_failures")
                else ""
            )
        )
    return lines


def tier_summary(daemon_stats: dict) -> list[str]:
    """Per-tier hit-rate lines for a daemon ``/stats`` payload."""
    tiers = daemon_stats.get("tiers") or {}
    lines = []
    l1 = tiers.get("l1") or {}
    if l1:
        lines.append(
            f"L1 results: {l1.get('hits', 0)}/{l1.get('lookups', 0)} hits "
            f"({l1.get('hit_rate', 0.0):.1%}), "
            f"{l1.get('size', 0)}/{l1.get('capacity', 0)} resident, "
            f"{l1.get('evictions', 0)} evicted"
        )
    l2 = tiers.get("l2") or {}
    if l2:
        lines.append(
            f"L2 windows: {l2.get('cache_hits', 0)} hits + "
            f"{l2.get('failure_hits', 0)} negative vs "
            f"{l2.get('synth_calls', 0)} synthesized "
            f"({l2.get('hit_rate', 0.0):.1%})"
        )
    rules = tiers.get("rules") or {}
    if rules:
        lines.append(
            f"rules: {rules.get('rule_hits', 0)} windows served by rule "
            f"({rules.get('matches', 0)} matches vs "
            f"{rules.get('misses', 0)} fell through to synthesis)"
        )
    pack = tiers.get("pack") or {}
    if pack.get("imported_entries"):
        lines.append(f"packs: {pack['imported_entries']} entries imported")
    return lines
