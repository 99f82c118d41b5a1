#!/usr/bin/env bash
# Entry point of the repository benchmark (see BENCHMARK.json and README.md).
# Builds the benchmark binary and cprserver from this checkout into
# .bench_build/, keeping every build cache inside the checkout, then runs one
# benchmark invocation:
#
#   bash perfbench/run.sh --workload embedded-zipf --seed 1 --seconds 10 --trace 0
#
# Progress goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config" "$build/cache"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off GOENV=off

# Provenance: a checkout that is not a git repository reports "unknown".
if [ -e "$root/.git" ] && command -v git >/dev/null 2>&1; then
  export PERFBENCH_GIT_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
  if [ -z "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
    export PERFBENCH_GIT_DIRTY=false
  else
    export PERFBENCH_GIT_DIRTY=true
  fi
fi

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
(cd "$root" && go build -o "$build/cprserver" ./cmd/cprserver) >&2

exec "$build/perfbench" --bin "$build" --root "$root" "$@"
