#!/usr/bin/env bash
# Build the benchmark (and the xgqueued daemon next to it) from this
# checkout's sources, then run it from the checkout root:
#
#   bash xgbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Cargo honours CARGO_TARGET_DIR; without it the build goes to
# xgbench/target.
#
# glibc creates malloc arenas on thread contention, so how many arenas the
# rank threads get depends on timing, and peak RSS came out bimodal (45 or
# 60 MiB for xgyro_ensemble). Capping the arenas keeps peak RSS a measure
# of what the program allocates. The cap is inherited by xgqueued.
set -euo pipefail
export MALLOC_ARENA_MAX="${MALLOC_ARENA_MAX:-2}"
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path xgbench/Cargo.toml --bins
exec cargo run --release --offline --quiet --manifest-path xgbench/Cargo.toml --bin xgbench -- "$@"
