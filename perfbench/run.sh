#!/usr/bin/env bash
# Builds the benchmark and spatialserver from this checkout's sources and
# runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Every build artefact, Go cache, data dir
# and span file stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/spatialserver" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/spatialserver and perfbench/ are required)" >&2
	exit 2
fi

build="$root/.bench_build/perfbench"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" . && go build -o "$build/bin/spatialserver" spatialsim/cmd/spatialserver)

PERFBENCH_COMMIT=unknown
if [[ -e "$root/.git" ]]; then PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown); fi
PERFBENCH_SOURCE=sha256:$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)
export PERFBENCH_COMMIT PERFBENCH_SOURCE

exec "$build/bin/perfbench" --server-bin "$build/bin/spatialserver" --out-dir "$build/out" "$@"
