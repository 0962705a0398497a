#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload gnp1m-2state --seed 1 --seconds 12 --trace 0
#
# Run it from the root of the checkout. The Go build cache, temporary files
# and the binary all stay under $CARGO_TARGET_DIR (default .bench_build), so
# nothing is read or written outside the checkout. Outside a full checkout
# (no repository module next to perfbench/) the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench/run.sh: run from the root of the checkout" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0

bin="$out/perfbench-bin"
(cd "$root/perfbench" && go build -trimpath -o "$bin.tmp.$$" .) >&2
mv -f "$bin.tmp.$$" "$bin"
exec "$bin" "$@"
