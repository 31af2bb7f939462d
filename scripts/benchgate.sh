#!/usr/bin/env bash
# benchgate.sh — the hot-path allocation gate for the call engine and
# the memkv wire. Each gated benchmark carries its own alloc budget
# (name:max_allocs below) and fails the gate if it exceeds it: the
# option machinery, the ring's routing, and the mux client's
# per-request path must stay allocation-lean. Allocations per op are deterministic; time is not
# gated here (bench/AA.md: on this hardware a ns/op gate is a coin flip —
# claim time with scripts/ab.sh's interleaved pairs instead).
#
# Budgets are measured + 1, ratcheted as the hot path loses allocations
# — never loosened:
#   BenchmarkCoreGroupDo:3            zero-options Do on the pooled call
#                                     frame (2 measured: the two copies'
#                                     go records)
#   BenchmarkCoreDoValue:3            the value-only fast lane — the
#                                     floor of the whole engine
#   BenchmarkCoreRingDo:3             sharded routing layered on Do
#   BenchmarkCoreHedgedFastPrimary:11 hedged call whose primary wins:
#                                     wheel-armed hedge, no timer alloc
#   BenchmarkMemkvMuxParallel:2       one multiplexed get, both ends
#                                     (1 measured: the client's value;
#                                     the server looks the key up in
#                                     its read buffer)
#   BenchmarkMemkvWatchFanout:2       one put fanned out to 16 prefix
#                                     watchers (1 measured: the put's
#                                     stored-value copy — every event
#                                     shares it, fan-out itself is
#                                     alloc-free)
#
# Usage: scripts/benchgate.sh
set -euo pipefail
cd "$(dirname "$0")/.."

specs="BenchmarkCoreGroupDo:3 BenchmarkCoreDoValue:3 BenchmarkCoreRingDo:3 BenchmarkCoreHedgedFastPrimary:11 BenchmarkMemkvMuxParallel:2 BenchmarkMemkvWatchFanout:2"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

fail=0
for spec in $specs; do
    bench="${spec%%:*}"
    max_allocs="${spec##*:}"

    go test -run '^$' -bench "^${bench}\$" -benchtime 1s . | tee "$raw"

    allocs=$(awk -v b="$bench" '
$1 ~ "^"b"(-[0-9]+)?$" {
    for (i = 2; i < NF; i++) if ($(i + 1) == "allocs/op") al = $i
}
END { print al }' "$raw")

    if [ -z "${allocs:-}" ]; then
        echo "benchgate: could not parse $bench output" >&2
        exit 1
    fi

    echo "benchgate: $bench measured ${allocs} allocs/op (budget ${max_allocs})"
    if [ "$allocs" -gt "$max_allocs" ]; then
        echo "benchgate: FAIL — $bench at ${allocs} allocs/op exceeds its ${max_allocs}-alloc budget" >&2
        fail=1
    fi
done
exit "$fail"
