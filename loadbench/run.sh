#!/usr/bin/env bash
# Builds `maprat` and the load generator from source, then runs the
# benchmark with the given arguments (see loadbench/README.md).
#
#   bash loadbench/run.sh --workload cold_catalogue --seed 1 --seconds 10 --trace 0
#   bash loadbench/run.sh spread --runs 10 --seconds 10
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --bin maprat >&2
cargo build --release --offline --quiet --manifest-path loadbench/Cargo.toml >&2
export LOADBENCH_MAPRAT="$target/release/maprat"
export LOADBENCH_WORK="$target/loadbench-work"
exec "$target/release/loadbench" "$@"
