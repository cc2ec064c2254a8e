#!/usr/bin/env bash
# Prints the workspace's non-test line count: every `.rs` file under
# `crates/*/src` and `src/`, each counted up to (not including) its first
# `#[cfg(test)]` line. Usage: scripts/nontest_lines.sh
set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src src -name '*.rs' -print0 |
    xargs -0 awk '
        FNR == 1 { counting = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }
    ' |
    awk '{ total += $1 } END { print total + 0 }'
