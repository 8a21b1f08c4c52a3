#!/usr/bin/env bash
# Builds the benchmark and the cluster binaries from this checkout, then
# runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the checkout. Build output goes to
# $CARGO_TARGET_DIR (default .bench_build); cargo's output goes to stderr,
# so stdout carries only the benchmark's lines.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    --bin tthr-node --bin tthr-router 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
