#!/usr/bin/env bash
# Tier-1 verification entry point: lint (fmt + clippy), build, run the full
# test suite, then run the quick experiment sweep through the parallel harness
# and report how long it took. Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== cargo fmt --all --check =="
cargo fmt --all --check

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release --workspace =="
# --workspace matters: without it the root package alone is built and the
# experiment child binaries run_all launches can go stale.
cargo build --release --workspace

echo "== cargo test -q =="
cargo test -q

echo "== snapshot golden digest gate =="
# The pinned 64-bit digest of a mid-run system snapshot: catches both
# behavioural drift and silent changes to the snapshot encoding.
cargo test --release -q --test golden golden_snapshot_digest

echo "== stepped-vs-event kernel differential gate =="
# The event-driven time-skip kernel must be bitwise identical to the stepped
# oracle: the differential matrix compares SimResults and snapshot digests
# across (workload x tracker) on both kernels, and the golden digest must
# also hold under the stepped kernel (it runs on the event kernel above).
cargo test --release -q --test kernel_differential
AUTORFM_STEPPED_KERNEL=1 cargo test --release -q --test golden golden_snapshot_digest

echo "== run_all --quick --jobs ${JOBS} =="
start=$(date +%s)
cargo run --release -p autorfm-bench --bin run_all -- --quick --jobs "${JOBS}"
end=$(date +%s)
echo "run_all --quick --jobs ${JOBS}: $((end - start))s"

echo "== run_all --resume smoke (perf_smoke should be skipped) =="
resume_out="$(cargo run --release -p autorfm-bench --bin run_all -- \
    --only perf_smoke --resume --quick --jobs "${JOBS}" 2>&1)"
printf '%s\n' "${resume_out}"
if ! grep -q "already complete, skipping" <<<"${resume_out}"; then
    echo "verify: --resume did not skip a completed target" >&2
    exit 1
fi

echo "== perf_smoke (serial/parallel + warm-fork + kernel + batch timings) =="
# perf_smoke exits nonzero if any run fails or diverges, or — via the gates —
# if the event kernel's geomean speedup over the stepped oracle drops below
# 1.0, or the batched lockstep engine runs slower than its lanes sequentially
# (a regression must fail CI, not hide in JSON). The kernel and batch A/Bs
# run serially (--jobs 1 affects only the fan-out sections) so timings are
# not cross-polluted.
cargo run --release -p autorfm-bench --bin perf_smoke -- \
    --jobs "${JOBS}" --gate-speedup 1.0 --gate-batch-speedup 1.0

echo "== tracker zoo (registry sweep + OracleRH lower-bound gate) =="
# One quick-sweep column per *registered* tracker — the binary enumerates the
# plugin registry, so adding a tracker without registering it everywhere is
# caught here and by the kernel differential above (which also iterates
# trackers::names()). The idealized OracleRH must show strictly lower
# slowdown than every real tracker; tracker_zoo exits nonzero otherwise.
# Memory-heavy workloads + 200k instructions: enough pressure that every
# real tracker pays for at least one mitigation (shorter runs tie at 0%).
cargo run --release -p autorfm-bench --bin tracker_zoo -- \
    --workloads mcf,bwaves,triad --cores 4 --instructions 200000 --jobs "${JOBS}"

echo "== attack fuzzer smoke (escape curves + OracleRH strictly-hardest gate) =="
# One bounded fuzz campaign per *registered* tracker: mutation + annealing
# over the AttackPattern genome space against the tracker-only AttackSim.
# The binary exits nonzero unless the eager-oracle hardness is strictly
# greater than every real tracker's AND every real tracker escapes at least
# the lowest watched threshold (nonzero curve coverage) AND the MINT/PrIDE
# curves sit inside the closed-form run-of-successes expectation band.
# Per-candidate seeds derive from genome digests, so the sweep is
# bit-identical at any --jobs and any --lanes. Evaluations persist into a
# scratch store for the resume smoke below.
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
# `campaign trackers` must surface registry metadata (names + storage bits +
# capability flags), including all four zoo trackers added in PR 8.
campaign trackers | python3 -c '
import json
import sys

entries = json.load(sys.stdin)["trackers"]
names = {e["name"] for e in entries}
missing = {"graphene", "abacus", "hydra", "oracle"} - names
assert not missing, f"registry trackers missing from API: {missing}"
for e in entries:
    assert "storage_bits" in e and "recursive" in e and "all_bank" in e, e
print(f"campaign trackers: {len(entries)} registry entries ok")
'
# `campaign mitigations` must surface the mitigation-policy registry with
# capability flags (PR 9's mitigation_registry! mirror of the tracker one).
campaign mitigations | python3 -c '
import json
import sys

entries = json.load(sys.stdin)["mitigations"]
names = {e["name"] for e in entries}
missing = {"baseline", "recursive", "fractal", "minimal-pair"} - names
assert not missing, f"registry mitigations missing from API: {missing}"
for e in entries:
    assert "refreshes_per_round" in e and "transitive_safe" in e, e
print(f"campaign mitigations: {len(entries)} registry entries ok")
'
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
