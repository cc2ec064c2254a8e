#!/usr/bin/env bash
# Builds perfbench and the campaignd daemon it drives (release, offline),
# then runs perfbench with this script's arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload sweep-memory --seed 1 --seconds 20 --trace 0
#
# The build goes to $CARGO_TARGET_DIR, or perfbench/target when unset.
set -euo pipefail
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml --bins
exec "${CARGO_TARGET_DIR:-perfbench/target}/release/perfbench" "$@"
