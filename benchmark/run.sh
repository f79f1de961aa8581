#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the checkout's
# root, so that everything it reads and writes - the Go build cache too -
# stays under the checkout (.bench_build/ and benchmark/out/).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local GOPROXY=off
cd "$here"
# The go tool stamps the commit into the binary inside a git checkout. Where
# it cannot read the git state it refuses to build; build unstamped then,
# and the result file says commit unknown.
if ! log="$(go build -o "$build/mitos-benchmark" . 2>&1)"; then
  case "$log" in
    *"VCS status"*) go build -buildvcs=false -o "$build/mitos-benchmark" . >&2 ;;
    *) echo "$log" >&2; exit 1 ;;
  esac
fi
cd "$root"
exec "$build/mitos-benchmark" "$@"
