#!/usr/bin/env bash
# Builds the benchmark and the adsserver binary from the source tree in
# the current directory (the repository root), then runs the benchmark
# with the given arguments:
#
#   bash perfbench/run.sh --workload serve-point --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/adsserver" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/adsserver and perfbench/ must exist)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" HOME="$out/home" \
	GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/bin/adsserver" ./cmd/adsserver
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -adsserver "$out/bin/adsserver" "$@"
