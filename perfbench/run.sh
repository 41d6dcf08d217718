#!/usr/bin/env bash
# Build the release `gsnp` binary and the `perfbench` binary from source, then
# run `perfbench`. Arguments pass through unchanged:
#
#   bash perfbench/run.sh --workload deep --seed 1 --seconds 35 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: target/ at the repository
# root); inputs and outputs of the run go to .perfbench/ at the root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
/*) ;;
*) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin gsnp >&2
cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml" >&2

exec "$target/release/perfbench" --gsnp "$target/release/gsnp" --work-dir "$root/.perfbench" "$@"
