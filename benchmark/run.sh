#!/usr/bin/env bash
# Builds the benchmark offline from the committed lock file, then runs it.
#
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh --workload all [--traced] ...   every workload in turn
#   benchmark/run.sh --selfcheck                     two full sets, side by side
#   benchmark/run.sh --manifest | --calibrate | --test
#
# The last line of a single-workload run is the JSON result; the exit
# code is non-zero when a correctness check failed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

manifest=benchmark/Cargo.toml
target="${CARGO_TARGET_DIR:-benchmark/target}"

if [ "${1:-}" = "--test" ]; then
    exec cargo test --offline --locked --manifest-path "$manifest"
fi

# Cargo's progress goes to stderr, so stdout stays the benchmark's own.
cargo build --release --offline --locked --quiet --manifest-path "$manifest"
bin="$target/release/evolve-benchmark"

if [ -e .git ] && command -v git >/dev/null 2>&1; then
    EVOLVE_BENCH_GIT_REV="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
    export EVOLVE_BENCH_GIT_REV
fi

# `--traced` is shorthand for `--trace 1`; `--workload all` fans out.
args=()
workload=""
while [ $# -gt 0 ]; do
    case "$1" in
        --traced) args+=(--trace 1) ;;
        --workload) workload="${2:?--workload needs a name}"; shift ;;
        *) args+=("$1") ;;
    esac
    shift
done

if [ "$workload" = "all" ]; then
    status=0
    for name in $(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' BENCHMARK.json); do
        "$bin" --workload "$name" "${args[@]}" || status=$?
    done
    exit "$status"
elif [ -n "$workload" ]; then
    exec "$bin" --workload "$workload" "${args[@]}"
else
    exec "$bin" "${args[@]}"
fi
