#!/usr/bin/env bash
# Builds the e2ebench binary from the checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload verified-30k --seed 1 --seconds 40 --trace 0
#
# Everything the build writes (Go build cache, temp files, the binary)
# stays under .bench_build/ at the root of the checkout. The build fails,
# and the script exits non-zero, when the repository sources beside this
# directory are missing.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-buildvcs=false

# Only the checkout's own .git: git would otherwise search its parents.
commit=unknown
if [ -e "$root/.git" ]; then
  commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi

(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --commit "$commit" "$@"
