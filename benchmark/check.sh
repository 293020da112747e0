#!/usr/bin/env bash
# The benchmark package's own gate: format, lints, unit tests, then a smoke
# run of the full ledger (one short segment per workload, untraced and
# traced) that fails unless every named metric is present and finite and
# every output check passed.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/ledger}"
manifest=benchmark/Cargo.toml
cargo fmt --manifest-path "$manifest" --check
cargo clippy --manifest-path "$manifest" --offline --locked --release --all-targets -- -D warnings
cargo test --manifest-path "$manifest" --offline --locked --release --quiet
benchmark/run.sh run --all --smoke
