#!/usr/bin/env bash
# Builds the perfbench program from the checkout's sources and runs it with
# the given arguments:
#
#   bash perfbench/run.sh --workload catalog --seed 1 --seconds 15 --trace 0
#
# Every build artefact (binary, Go build cache, temporary files, Go's
# per-user state) stays under the checkout's build directory
# ($CARGO_TARGET_DIR when set, .bench_build otherwise), so the run writes
# nothing outside the checkout.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/home" "$build/tmp"

export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=
export CGO_ENABLED=0

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
