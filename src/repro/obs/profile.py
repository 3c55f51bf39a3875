"""The ``repro profile`` hot-spot report: where a PARK run spends its time.

:func:`hotspot_report` distills a run's :class:`~repro.obs.metrics.Metrics`
into a JSON-serializable dict — run counters, per-phase wall-time
breakdown, per-rule hot spots (time, match calls, firings), and index
efficiency — and :func:`render_profile` prints it as the aligned table the
CLI shows.  Both operate on data recorded *after* the run, so they cannot
perturb it; on a failed run they render whatever was recorded up to the
failure.
"""

from __future__ import annotations


#: The engine phases, in pipeline order, with display labels.
PHASES = (
    ("phase.match", "match (Γ rounds)"),
    ("phase.apply", "apply (merge ΔI)"),
    ("phase.policy", "policy (conflicts)"),
    ("phase.incorp", "incorp (final D)"),
)


def hotspot_report(metrics, result=None, wall_time=None, top=None, meta=None):
    """Build the profile dict from *metrics* (and optionally the run result).

    *wall_time* is the caller-measured wall seconds for the whole run;
    *top* truncates the per-rule table to the N slowest rules; *meta*
    is carried through verbatim (the CLI records file names and engine
    configuration there).  *result* may be ``None`` — e.g. when the run
    died in an engine error — in which case only metrics-derived data
    appears.
    """
    counters = metrics.counters

    run = {
        "rounds": counters.get("engine.rounds", 0),
        "epochs": counters.get("engine.epochs", 0),
        "restarts": counters.get("engine.restarts", 0),
        "conflicts_resolved": counters.get("engine.conflicts_resolved", 0),
        "firings": counters.get("engine.firings", 0),
        "blocked_instances": counters.get("engine.blocked_instances", 0),
    }
    if result is not None:
        run["result_atoms"] = len(result.database)
        run["policy"] = result.policy_name

    phases = {}
    phase_total = 0.0
    for name, label in PHASES:
        entry = metrics.timers.get(name)
        if entry is None:
            continue
        phases[name] = {
            "label": label,
            "count": entry[0],
            "seconds": round(entry[1], 6),
            "max_s": round(entry[3], 6),
        }
        phase_total += entry[1]
    denominator = wall_time if wall_time else phase_total
    for entry in phases.values():
        entry["share"] = round(entry["seconds"] / denominator, 4) if denominator else None

    rules = []
    for description, (calls, seconds, firings) in metrics.rules.items():
        rules.append(
            {
                "rule": description,
                "seconds": round(seconds, 6),
                "share": round(seconds / denominator, 4) if denominator else None,
                "calls": calls,
                "firings": firings,
                "firings_per_call": round(firings / calls, 2) if calls else None,
            }
        )
    rules.sort(key=lambda entry: (-entry["seconds"], entry["rule"]))
    truncated = 0
    if top is not None and len(rules) > top:
        truncated = len(rules) - top
        rules = rules[:top]

    lookups = counters.get("storage.index_lookups", 0)
    hits = counters.get("storage.index_hits", 0)
    index = {
        "lookups": lookups,
        "hits": hits,
        "hit_ratio": round(hits / lookups, 4) if lookups else None,
        "scans": counters.get("storage.full_scans", 0),
        "index_builds": counters.get("storage.index_builds", 0),
        "composite_builds": counters.get("storage.composite_builds", 0),
        "snapshot_copies": counters.get("storage.snapshot_copies", 0),
    }

    storage = {
        "intern_table_size": metrics.gauges.get("storage.intern_table_size", 0),
    }

    plan_cache = {
        "hits": counters.get("plan_cache.hits", 0),
        "misses": counters.get("plan_cache.misses", 0),
        "invalidations": counters.get("plan_cache.invalidations", 0),
    }

    matching = {
        "rule_match_calls": counters.get("match.rule_matches", 0),
        "full_matches": counters.get("eval.full_matches", 0),
        "delta_matches": counters.get("eval.delta_matches", 0),
        "volatile_rematched": counters.get("eval.volatile_rematched", 0),
        "volatile_skipped_clean": counters.get("eval.volatile_skipped_clean", 0),
        "intern_hits": counters.get("intern.sub_hits", 0)
        + counters.get("intern.head_hits", 0)
        + counters.get("intern.const_hits", 0),
    }

    report = {
        "meta": dict(meta) if meta else {},
        "wall_time_s": round(wall_time, 6) if wall_time is not None else None,
        "run": run,
        "phases": phases,
        "rules": rules,
        "rules_truncated": truncated,
        "index": index,
        "storage": storage,
        "plan_cache": plan_cache,
        "matching": matching,
        "counters": dict(sorted(counters.items())),
    }
    return report


def _format_seconds(seconds):
    if seconds is None:
        return "-"
    if seconds >= 1.0:
        return "%.3f s" % seconds
    return "%.2f ms" % (seconds * 1e3)


def _format_share(share):
    return "%5.1f%%" % (share * 100) if share is not None else "     -"


def render_profile(report):
    """The profile dict as the aligned text table ``repro profile`` prints."""
    lines = []
    meta = report.get("meta") or {}
    title = meta.get("rules", "PARK run")
    lines.append("PARK profile: %s" % title)
    config = ", ".join(
        "%s=%s" % (key, meta[key])
        for key in ("policy", "evaluation", "matcher", "blocking")
        if key in meta
    )
    if config:
        lines.append("  %s" % config)
    if meta.get("error"):
        lines.append("  ! run failed: %s" % meta["error"])
        lines.append("  (partial telemetry up to the failure)")

    run = report["run"]
    lines.append(
        "  wall time %s   rounds %d   epochs %d   conflicts %d   "
        "firings %d   blocked %d"
        % (
            _format_seconds(report.get("wall_time_s")),
            run["rounds"],
            run["epochs"],
            run["conflicts_resolved"],
            run["firings"],
            run["blocked_instances"],
        )
    )
    lines.append("")

    lines.append("per-phase breakdown")
    lines.append("  %-18s %10s %7s %8s" % ("phase", "time", "share", "calls"))
    for name, _label in PHASES:
        entry = report["phases"].get(name)
        if entry is None:
            continue
        lines.append(
            "  %-18s %10s %7s %8d"
            % (
                entry["label"],
                _format_seconds(entry["seconds"]),
                _format_share(entry["share"]),
                entry["count"],
            )
        )
    lines.append("")

    lines.append("per-rule hot spots (by time)")
    lines.append(
        "  %-32s %10s %7s %8s %9s %9s"
        % ("rule", "time", "share", "calls", "firings", "fir/call")
    )
    for entry in report["rules"]:
        rule_text = entry["rule"]
        if len(rule_text) > 32:
            rule_text = rule_text[:29] + "..."
        lines.append(
            "  %-32s %10s %7s %8d %9d %9s"
            % (
                rule_text,
                _format_seconds(entry["seconds"]),
                _format_share(entry["share"]),
                entry["calls"],
                entry["firings"],
                "%.2f" % entry["firings_per_call"]
                if entry["firings_per_call"] is not None
                else "-",
            )
        )
    if report.get("rules_truncated"):
        lines.append("  ... %d more rules" % report["rules_truncated"])
    lines.append("")

    index = report["index"]
    ratio = index["hit_ratio"]
    lines.append(
        "index efficiency: %d lookups, %d hits (%s), %d full scans, "
        "%d index builds (+%d composite), %d snapshot copies"
        % (
            index["lookups"],
            index["hits"],
            "%.1f%%" % (ratio * 100) if ratio is not None else "n/a",
            index["scans"],
            index["index_builds"],
            index["composite_builds"],
            index["snapshot_copies"],
        )
    )
    matching = report["matching"]
    lines.append(
        "matching: %d rule-match calls (%d full, %d delta), "
        "%d volatile rematched / %d reused clean, %d intern hits"
        % (
            matching["rule_match_calls"],
            matching["full_matches"],
            matching["delta_matches"],
            matching["volatile_rematched"],
            matching["volatile_skipped_clean"],
            matching["intern_hits"],
        )
    )
    storage = report.get("storage")
    plan_cache = report.get("plan_cache")
    if storage is not None and plan_cache is not None:
        lines.append(
            "storage: %d interned constants; "
            "plan cache: %d hits, %d misses, %d invalidations"
            % (
                storage["intern_table_size"],
                plan_cache["hits"],
                plan_cache["misses"],
                plan_cache["invalidations"],
            )
        )
    return "\n".join(lines) + "\n"
