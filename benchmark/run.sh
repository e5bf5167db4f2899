#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it. All arguments go to the
# program; see README.md. Run from anywhere: paths are relative to this file.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# Cargo's progress goes to stderr; stdout carries only the program's output.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/crdt-paxos-benchmark" --out "$here/out" "$@"
