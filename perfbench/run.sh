#!/usr/bin/env bash
# Build the tapo/synthesize CLIs and the benchmark program from this
# checkout, then run one benchmark pass:
#
#   bash perfbench/run.sh --workload capped|two_tier|fleet --seed N \
#       --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: target). Progress goes to stderr; the last stdout line is the
# result object.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --locked --quiet -p tapo -p workloads --bins >&2
cargo build --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --bin-dir "$CARGO_TARGET_DIR/release" "$@"
