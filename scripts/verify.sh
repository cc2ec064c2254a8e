#!/usr/bin/env bash
# Tier-1 verification entry point: lint (fmt + clippy), build, run the full
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

echo "== cargo fmt --all --check =="
cargo fmt --all --check

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release --workspace =="
cargo build --release --workspace

echo "== cargo test -q =="
cargo test -q

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
# every real tracker. results/golden/ pins every table at default fidelity
# (100K instructions/core): any drift in a regenerated table fails here
# (set -e).
for golden in results/golden/*.txt; do
    cmp "${golden}" "results/$(basename "${golden}")"
done
echo "golden tables: every results/golden/*.txt reproduced byte for byte"

echo "== ablations + seed_sensitivity rerun over the populated store =="
# Every ablation variant and seed-sensitivity point is a cell keyed by the
# full configuration it runs, so after run_all the store answers all of them:
# a rerun simulates nothing and reproduces the golden tables. The one
# exception is seed_sensitivity's 30 AutoRFM-4 latency probes (6 workloads x
# 5 seeds): they read the controller's worst read latency from a telemetry
# registry, and telemetry cells are never stored.
./target/release/run_all --only ablations --only seed_sensitivity \
    --store results/store --jobs "${JOBS}"
for target in ablations seed_sensitivity; do
    cmp "results/golden/${target}.txt" "results/${target}.txt"
done
python3 - <<'EOF'
import json

expected = {"ablations": 0, "seed_sensitivity": 30}
for target, want in expected.items():
    with open(f"results/{target}.json") as f:
        manifest = json.load(f)
    ran = next(m["value"] for m in manifest["metrics"] if m["name"] == "simulations_run")
    assert ran == want, \
        f"{target} simulated {ran} cells over the populated store (expected {want})"
    print(f"{target}: {ran} fresh simulations, {len(manifest['runs'])} cells in its manifest")
EOF

echo "== run_all --resume smoke (table2_trh_history should be skipped) =="
resume_out="$(cargo run --release -p autorfm-bench --bin run_all -- \
    --only table2_trh_history --resume --jobs "${JOBS}" 2>&1)"
printf '%s\n' "${resume_out}"
if ! grep -q "already complete, skipping" <<<"${resume_out}"; then
    echo "verify: --resume did not skip a completed target" >&2
    exit 1
fi

echo "== attack fuzzer smoke (escape curves + OracleRH strictly-hardest gate) =="
# One bounded fuzz campaign per *registered* tracker: mutation + annealing
# over the AttackPattern genome space against the tracker-only AttackSim.
# The binary exits nonzero unless the eager-oracle hardness is strictly
# greater than every real tracker's AND every real tracker escapes at least
# the lowest watched threshold (nonzero curve coverage) AND the MINT/PrIDE
# curves sit inside the closed-form run-of-successes expectation band.
# Per-candidate seeds derive from genome digests, so the sweep is
# bit-identical at any --jobs. Evaluations persist into a scratch store for
# the resume smoke below.
FUZZ_STORE="$(mktemp -d)"
CAMPAIGND_PID=""
# On any exit, stop the campaign daemon (if a failing step left it running)
# and remove the scratch store.
trap '[ -n "${CAMPAIGND_PID}" ] && kill "${CAMPAIGND_PID}" 2>/dev/null; rm -rf "${FUZZ_STORE}"' EXIT
fuzz_out="$(cargo run --release -p autorfm-bench --bin attack_fuzz -- \
    --jobs "${JOBS}" --store "${FUZZ_STORE}")"
printf '%s\n' "${fuzz_out}"
printf '%s\n' "${fuzz_out}" | tail -n 1 > results/attack_fuzz.json

echo "== attack_fuzz --resume smoke (warm store answers every genome) =="
# A second run over the populated store must simulate nothing: every genome
# is answered from disk and the survivor archives come out bit-identical
# (same archive digest). This is the persistence analogue of the campaign
# dedup gate below.
resume_fuzz_out="$(cargo run --release -p autorfm-bench --bin attack_fuzz -- \
    --jobs "${JOBS}" --store "${FUZZ_STORE}" --resume)"
printf '%s\n' "${resume_fuzz_out}" | tail -n 1 > results/attack_fuzz_resume.json
python3 - <<'EOF'
import json

with open("results/attack_fuzz.json") as f:
    cold = json.load(f)
with open("results/attack_fuzz_resume.json") as f:
    warm = json.load(f)
assert warm["sim_evaluated"] == 0, \
    f"resume re-simulated {warm['sim_evaluated']} stored genomes"
assert warm["store_hits"] > 0, "resume answered nothing from the store"
assert warm["archive_digest"] == cold["archive_digest"], \
    f"resume archive digest {warm['archive_digest']} != cold {cold['archive_digest']}"
print(f"attack_fuzz --resume: 0 re-evaluations, {warm['store_hits']} store hits, "
      f"archive digest {warm['archive_digest']} reproduced")
EOF

echo "== campaign service smoke (campaignd + campaign CLI) =="
# Boot the always-on sweep server on an ephemeral port over the fuzz store
# from above — campaignd must adopt the persisted fuzz evaluations next to
# its own sweep cells. Push a 4-cell sweep through it, wait for completion,
# then re-run every cell as a direct System simulation and diff result
# digests (campaign check). Resubmitting the same sweep must be pure dedup:
# zero new cells scheduled.
CAMPAIGN_STORE="${FUZZ_STORE}"
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
CAMPAIGN_ID="$(python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])' <<<"${submit_out}")"
campaign wait "${CAMPAIGN_ID}" > /dev/null
campaign check "${CAMPAIGN_ID}"
resubmit_out="$(campaign submit --name smoke \
    --workloads mcf,wrf --scenarios baseline-zen,AutoRFM-4 \
    --cores 2 --instructions 10000)"
if [ "$(python3 -c 'import json,sys; print(json.load(sys.stdin)["scheduled"])' <<<"${resubmit_out}")" != "0" ]; then
    echo "verify: resubmitted campaign scheduled fresh work instead of dedup" >&2
    exit 1
fi
campaign stats > results/campaign_stats.json
# The daemon shares its store root with attack_fuzz: the adopted fuzz
# records must be visible through /stats alongside the sweep counters.
python3 -c '
import json

with open("results/campaign_stats.json") as f:
    d = json.load(f)
n = d.get("fuzz_records", 0)
assert n > 0, f"campaignd reported no adopted fuzz records: {d}"
print(f"campaignd adopted {n} fuzz records from the shared store")
'
campaign shutdown > /dev/null
wait "${CAMPAIGND_PID}"
CAMPAIGND_PID=""

echo "verify: OK"
