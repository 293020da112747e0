#!/usr/bin/env bash
# Builds the ledger offline and runs it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run
#   benchmark/run.sh run --all [--smoke] [--out FILE]                the full ledger
#   benchmark/run.sh diff A.json B.json
#   benchmark/run.sh selftest
#
# Everything it writes stays inside the checkout: the build goes to
# $CARGO_TARGET_DIR (default target/ledger), registries and other scratch
# files next to the binary, traces to benchmark/results/latest/.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/ledger}"
cargo build --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml
case "${1:-}" in
  run | diff | selftest | help | --help | -h) ;;
  *) set -- run "$@" ;;
esac
exec "$CARGO_TARGET_DIR/release/ledger" "$@"
