#!/usr/bin/env bash
# Tier-1 verification entry point: lint (fmt + clippy + rustdoc), build, run the full
# test suite, then run the default-fidelity experiment sweep through the
# parallel harness, report how long it took and diff every table against
# results/golden/. Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== one configuration layer: no environment reads in library or binaries =="
# Every harness knob is a command-line flag (RunOpts::from_args); a run's
# command line must describe it completely.
if grep -rn 'env::var(' crates/*/src src; then
    echo "verify: env::var( found above; add a command-line flag instead" >&2
    exit 1
fi

echo "== non-test lines (crates/*/src + src/, each file up to its first #[cfg(test)]) =="
scripts/nontest_lines.sh

echo "== cargo fmt --all --check =="
cargo fmt --all --check

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc --workspace --no-deps (rustdoc warnings are errors) =="
# Module docs link to items by path: a rename that leaves a link dangling
# (or a public doc linking a private item) fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== cargo build --release --workspace --locked =="
# --locked here and below: a dependency edit that would rewrite the committed
# Cargo.lock fails instead of silently changing it.
cargo build --release --workspace --locked

echo "== cargo test -q --locked =="
cargo test -q --locked

echo "== perfbench builds against the workspace, lockfile untouched =="
# perfbench (the repository benchmark) is a separate package with its own
# committed Cargo.lock: a workspace change that breaks its imports, or that
# would rewrite that lockfile, fails here.
cargo test --offline --locked --manifest-path perfbench/Cargo.toml

echo "== snapshot golden digest gate =="
# The pinned 64-bit digest of a mid-run system snapshot, on both kernels:
# catches both behavioural drift and silent changes to the snapshot encoding.
cargo test --release -q --test golden golden_snapshot_digest

echo "== stepped-vs-event kernel differential gate =="
# The event-driven time-skip kernel must be bitwise identical to the stepped
# oracle: the differential tests compare SimResults and snapshot digests on
# both kernels across (workload x tracker) and across the controller policies
# that change which banks have work (per-request retry, open page, per-bank
# refresh, buffered writes, half RAA credit), one at a time; random_configs
# compares SimResults on random combinations of them.
cargo test --release -q --test kernel_differential --test random_configs

echo "== run_all --jobs ${JOBS} (default fidelity) + golden-table gate =="
start=$(date +%s)
cargo run --release -p autorfm-bench --bin run_all -- --jobs "${JOBS}"
end=$(date +%s)
echo "run_all --jobs ${JOBS}: $((end - start))s"
# run_all exits nonzero if any target panics — among them tracker_zoo's
# OracleRH lower-bound gate: one column per *registered* tracker (so a
# tracker registered but not wired everywhere shows here and in the kernel
# differential above), and the idealized oracle must be strictly cheaper than
# every real tracker; and attack_fuzz's escape-curve gates: one fuzz
# campaign per registered tracker, the eager oracle strictly hardest to
# escape, every real tracker escaping the lowest watched threshold, and the
# MINT/PrIDE curves inside the closed-form run-of-successes band.
# results/golden/ pins every table at default fidelity (100K
# instructions/core): any drift in a regenerated table fails here (set -e).
for golden in results/golden/*.txt; do
    cmp "${golden}" "results/$(basename "${golden}")"
done
echo "golden tables: every results/golden/*.txt reproduced byte for byte"

echo "== ablations + seed_sensitivity rerun over the populated store =="
# Every ablation variant and seed-sensitivity point is a cell keyed by the
# full configuration it runs, so after run_all the store answers all of them
# and a rerun reproduces the golden tables; this is how a killed run resumes.
# That the rerun simulates nothing
# but seed_sensitivity's AutoRFM-4 latency probes (telemetry cells, never
# stored) is pinned by crates/bench/tests/experiments.rs
# (rerun_over_a_populated_store_simulates_only_telemetry_cells) under cargo
# test.
./target/release/run_all --only ablations --only seed_sensitivity \
    --store results/store --jobs "${JOBS}"
for target in ablations seed_sensitivity; do
    cmp "results/golden/${target}.txt" "results/${target}.txt"
done

echo "== snapshot_tool inspect on a stored cell =="
# The store's records are sealed at the current format version (2: XXH64
# trailer); inspect opens one end to end and prints both hashes.
cells=(results/store/cells/*.cell)
inspect_out="$(./target/release/snapshot_tool inspect "${cells[0]}")"
printf '%s\n' "${inspect_out}"
if ! grep -q '^version   : 2$' <<< "${inspect_out}" ||
    ! grep -q '^checksum  : [0-9a-f]\{16\} (xxh64, ok)$' <<< "${inspect_out}"; then
    echo "verify: ${cells[0]} is not a version-2 container with a checksum line" >&2
    exit 1
fi

echo "== campaign service smoke (campaignd + campaign CLI) =="
# Boot the always-on sweep server on an ephemeral port over a scratch store
# (that campaignd adopts fuzz records next to its sweep cells is pinned by
# exactly_once::daemon_adopts_fuzz_store_records under cargo test). Push a
# 4-cell sweep through it, wait for completion, then re-run every cell as a
# direct System simulation and diff result digests (campaign check). That
# resubmitting a completed sweep is pure dedup (same id, zero cells
# scheduled) is pinned by crates/campaign/src/server.rs (http_api_end_to_end)
# under cargo test.
CAMPAIGN_STORE="$(mktemp -d)"
CAMPAIGND_PID=""
# On any exit, stop the campaign daemon (if a failing step left it running)
# and remove the scratch store.
trap '[ -n "${CAMPAIGND_PID}" ] && kill "${CAMPAIGND_PID}" 2>/dev/null; rm -rf "${CAMPAIGN_STORE}"' EXIT
./target/release/campaignd --store "${CAMPAIGN_STORE}" --port 0 &
CAMPAIGND_PID=$!
for _ in $(seq 1 100); do
    if [ -s "${CAMPAIGN_STORE}/daemon.addr" ]; then break; fi
    sleep 0.1
done
campaign() { ./target/release/campaign --store "${CAMPAIGN_STORE}" "$@"; }
submit_out="$(campaign submit --name smoke \
    --workloads mcf,wrf --scenarios baseline-zen,AutoRFM-4 \
    --cores 2 --instructions 10000)"
printf '%s\n' "${submit_out}"
id_re='"id": "([^"]+)"'
if [[ ! "${submit_out}" =~ ${id_re} ]]; then
    echo "verify: campaign submit printed no campaign id" >&2
    exit 1
fi
CAMPAIGN_ID="${BASH_REMATCH[1]}"
campaign wait "${CAMPAIGN_ID}" > /dev/null
campaign check "${CAMPAIGN_ID}"
campaign stats > results/campaign_stats.json
campaign shutdown > /dev/null
wait "${CAMPAIGND_PID}"
CAMPAIGND_PID=""

echo "verify: OK"
