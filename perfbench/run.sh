#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload rr_10k --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays inside the checkout: the Go build
# cache and the binary under .bench_build/, traced-run files under
# .bench_out/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
# No network: the build needs nothing beyond the checkout and the toolchain.
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOSUMDB=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2

describe=unknown
if [ -e "$root/.git" ]; then
  describe=$(git -C "$root" describe --always --dirty 2>/dev/null || echo unknown)
fi
exec "$build/perfbench" --describe "$describe" "$@"
