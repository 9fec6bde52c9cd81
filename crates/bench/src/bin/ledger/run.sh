#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the program under test (the
# `sccl` daemon binary) and the ledger, then run one workload. Arguments
# are passed through to `ledger run`.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../../../../.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline -p sccl --bin sccl >&2
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/ledger" run "$@"
