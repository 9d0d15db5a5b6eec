#!/usr/bin/env bash
# Builds the sort system and the benchmark from source, then runs one
# benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload bulk-i64 --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory (Go build cache included).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/mlmserve" || ! -d "$root/cmd/mlmcoord" || ! -d "$root/internal" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/ and internal/ not found in $root)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin"
# The go command keeps its telemetry counters under the user config
# directory; point that into .bench_build too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOENV=off

go build -o "$out/bin/" ./cmd/mlmserve ./cmd/mlmcoord >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -root "$root" "$@"
