#!/usr/bin/env bash
# Builds privreg-server and the benchmark program (perfbench) from source,
# then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload ingest-wire --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, the go command's config directory and
# spill segments all live under $CARGO_TARGET_DIR (default .bench_build),
# inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
mkdir -p "$GOTMPDIR"
go build -o "$out/bin/privreg-server" ./cmd/privreg-server >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
commit="$(git rev-parse HEAD 2>/dev/null || true)"
if [ -z "$commit" ]; then
	commit="src-$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi
# Runs are sequential; clear what a killed run may have left behind.
rm -rf "$out/work"
exec "$out/bin/perfbench" -server "$out/bin/privreg-server" -work "$out/work" -commit "$commit" "$@"
