#!/usr/bin/env bash
# Builds the `kgq` binary and this benchmark from source, then runs the
# benchmark. Run it from the repository root:
#
#   bash kgqbench/run.sh --workload lookup --seed 1 --seconds 15 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default `.bench_build`), and
# each run's scratch files to `kgqbench-work/` under it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin kgq >&2
cargo build --release --offline --quiet --manifest-path kgqbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/kgqbench" \
    --kgq "$CARGO_TARGET_DIR/release/kgq" \
    --work "$CARGO_TARGET_DIR/kgqbench-work" \
    "$@"
