#!/usr/bin/env bash
# Builds the server and the benchmark from source, then runs the benchmark
# with the arguments given.  Everything is written under the target
# directory (CARGO_TARGET_DIR if set, else ./target of the checkout).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"
# Build output goes to stderr: stdout carries only the benchmark's result.
cargo build --release --offline --quiet -p hydra --bin hydra-serve 1>&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin hydra-benchmark 1>&2
exec "$target/release/hydra-benchmark" "$@"
