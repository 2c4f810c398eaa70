#!/usr/bin/env python3
"""Schema check for PAX Chrome-trace exports (obs/trace_export.hpp).

Validates the structural invariants the exporter promises, so CI catches a
malformed export before anyone loads it into Perfetto:

  * the file is valid JSON: {"displayTimeUnit": "ms", "traceEvents": [...]};
  * every event has name/ph/pid (plus tid and a microsecond ts for
    non-metadata events) with the right types, ph in {M, X, i};
  * "X" (complete) events carry a non-negative dur;
  * every (pid, tid) that appears on a non-metadata event is named by
    process_name/thread_name metadata;
  * timestamps are non-negative and start at zero (the exporter normalizes
    to the run's earliest record);
  * instant events the exporter renders through its generic branch (refill,
    steal, shard sweep/flush, ring_overflow, enablement, ...) carry the
    record's aux payload as a non-negative integer args["aux"].

Usage: check_trace.py <trace.json> [more.json ...]; exits non-zero with a
message on the first violation.
"""
import json
import sys


def fail(path, msg):
    print(f"check_trace: {path}: {msg}", file=sys.stderr)
    sys.exit(1)


# Instant names the exporter's generic branch emits with an "aux" arg
# (obs/trace_export.cpp default case; names from TraceKind to_string).
# ring_overflow is the lock-free deposit path going direct-to-sweep — its
# aux counts the tickets retired directly.
AUX_INSTANTS = {
    "refill",
    "steal_attempt",
    "steal_success",
    "shard_sweep",
    "deposit_flush",
    "ring_overflow",
    "job_open",
    "job_drain",
    "job_finalize",
    "granules_enabled",
    "program_finished",
    "granule_fault",
    "granule_retry",
    "granule_poisoned",
    "watchdog_flag",
}


def check(path):
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            fail(path, f"not valid JSON: {e}")

    if not isinstance(doc, dict):
        fail(path, "root is not an object")
    if doc.get("displayTimeUnit") != "ms":
        fail(path, "missing displayTimeUnit: \"ms\"")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(path, "traceEvents missing, not a list, or empty")

    named_lanes = set()   # (pid,) from process_name metadata
    named_tracks = set()  # (pid, tid) from thread_name metadata
    used_tracks = set()
    min_ts = None
    counts = {}
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            fail(path, f"{where} is not an object")
        for key, types in (("name", str), ("ph", str), ("pid", int)):
            if not isinstance(ev.get(key), types):
                fail(path, f"{where} missing or mistyped '{key}'")
        ph = ev["ph"]
        counts[ph] = counts.get(ph, 0) + 1
        if ph == "M":
            # process_name metadata carries no tid; thread_name does.
            if ev["name"] == "process_name":
                named_lanes.add(ev["pid"])
            elif ev["name"] == "thread_name":
                if not isinstance(ev.get("tid"), int):
                    fail(path, f"{where} thread_name without tid")
                named_tracks.add((ev["pid"], ev["tid"]))
            continue
        if ph not in ("X", "i"):
            fail(path, f"{where} unexpected ph {ph!r}")
        if not isinstance(ev.get("tid"), int):
            fail(path, f"{where} missing or mistyped 'tid'")
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(path, f"{where} missing or negative ts")
        min_ts = ts if min_ts is None else min(min_ts, ts)
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                fail(path, f"{where} 'X' event without non-negative dur")
        if ph == "i" and ev["name"] in AUX_INSTANTS:
            aux = (ev.get("args") or {}).get("aux")
            if not isinstance(aux, int) or isinstance(aux, bool) or aux < 0:
                fail(path, f"{where} instant {ev['name']!r} without a "
                           "non-negative integer args['aux']")
        if ev.get("s") != "g":  # global instants live on no track
            used_tracks.add((ev["pid"], ev["tid"]))

    for pid, tid in sorted(used_tracks):
        if pid not in named_lanes:
            fail(path, f"pid {pid} used but has no process_name metadata")
        if (pid, tid) not in named_tracks:
            fail(path, f"track ({pid}, {tid}) used but has no thread_name "
                       "metadata")
    if min_ts is not None and float(min_ts) != 0.0:
        fail(path, f"timestamps not normalized to zero (min ts = {min_ts})")

    summary = ", ".join(f"{n} {ph!r}" for ph, n in sorted(counts.items()))
    print(f"check_trace: {path}: OK ({len(events)} events: {summary})")


def main():
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in sys.argv[1:]:
        check(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
