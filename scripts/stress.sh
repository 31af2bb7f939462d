#!/usr/bin/env bash
# Stress run: the tests of memkv, core, gateway and repair, in shuffled
# order, N times over, while two loops of the fattree test binary run
# beside them and keep both CPUs of a 2-vCPU machine busy, as a loaded CI
# machine would. A wall-clock bound or an allocation count that holds
# only on an idle machine fails here.
#
#   scripts/stress.sh N [go test flags...] [packages...]
#
# Each run is `go test -shuffle=on -count=1` of the packages (by default
# ./internal/memkv ./internal/core ./internal/gateway ./internal/repair);
# flags after N are passed to every run, so one test can be repeated on
# its own:
#
#   scripts/stress.sh 60 -run '^TestShardedPutVersionedQuorumOneAllocations$' ./internal/memkv
#
# A failing run is printed whole but for its passing packages, so each
# failure comes with the -test.shuffle seed it ran under (rerun it with
# -shuffle=SEED). The last line counts the failed runs and each failed
# test. Exit status 1 if any run failed.
#
# The load is two background loops of this script's own, stopped when
# the script exits; it changes no machine setting.
set -euo pipefail
if (($# < 1)) || ! [[ $1 =~ ^[0-9]+$ ]]; then
	sed -n '2,/^set -euo/{/^set -euo/d;s/^# \{0,1\}//;p}' "$0" >&2
	exit 2
fi
runs=$1
shift
args=("$@")
pkgs=()
for a in "${args[@]}"; do
	[[ $a == ./* ]] && pkgs+=("$a")
done
if ((${#pkgs[@]} == 0)); then
	args+=(./internal/memkv ./internal/core ./internal/gateway ./internal/repair)
fi

cd "$(dirname "${BASH_SOURCE[0]}")/.."
tmp="$(mktemp -d)"
go test -c -o "$tmp/fattree.test" ./internal/fattree
touch "$tmp/loading"
# The binary runs its two long simulations in parallel, then short tests
# one at a time; a second loop fills the gaps.
loads=()
for _ in 1 2; do
	(
		while [[ -e $tmp/loading ]]; do
			"$tmp/fattree.test" -test.count=1 >/dev/null 2>&1 || :
		done
	) 2>/dev/null &
	loads+=($!)
done
stop_load() {
	rm -f "$tmp/loading"
	# Kill each loop's current binary until the loop, which starts no
	# new one once the marker is gone, has exited.
	for load in "${loads[@]}"; do
		while kill -0 "$load" 2>/dev/null; do
			pkill -P "$load" 2>/dev/null || :
			sleep 0.1
		done
		wait "$load" 2>/dev/null || :
	done
	rm -rf "$tmp"
}
trap stop_load EXIT

failed=0
: >"$tmp/failures"
for ((i = 1; i <= runs; i++)); do
	if out="$(go test -shuffle=on -count=1 "${args[@]}" 2>&1)"; then
		continue
	fi
	failed=$((failed + 1))
	echo "== run $i of $runs failed"
	grep -v '^ok ' <<<"$out" || :
	grep -o -- '--- FAIL: [^ ]*' <<<"$out" | cut -d' ' -f3 >>"$tmp/failures" || :
done
echo "== $failed of $runs runs failed$(sort "$tmp/failures" | uniq -c | awk '{printf "; %s x%s", $2, $1}')"
((failed == 0))
