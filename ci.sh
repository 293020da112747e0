#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, full test suite.
# Run from anywhere; operates on the repository root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings -D rustdoc::broken_intra_doc_links" cargo doc --no-deps --workspace -q

echo "== cargo build --release"
cargo build --release

echo "== cargo test -q"
cargo test -q

echo "== cargo test --workspace -q"
cargo test --workspace -q

echo "== ledger builds against the workspace (a drifted signature fails here, not in a benchmark run)"
CARGO_TARGET_DIR=target/ledger cargo build --release --offline --locked --quiet \
  --manifest-path benchmark/Cargo.toml

echo "== oracles, each by exact name (a mistyped filter runs nothing and must fail)"
run_named() { # <exact test name> <cargo test arguments that select its target>
  local name="$1"; shift
  cargo test "$@" -- --exact "$name" 2>&1 | tee "$ORACLE_LOG"
  grep -q "^test $name \.\.\. ok\$" "$ORACLE_LOG" || { echo "test $name did not run and pass"; exit 1; }
}
ORACLE_LOG="$(mktemp)"
run_named golden_corpus_is_reproduced_byte_for_byte -p cpm-serve --test golden
run_named both_framings_return_identical_payloads -p cpm-serve --test golden
run_named mutated_requests_always_get_a_structured_answer -p cpm-serve --test golden
run_named warm_predict_and_select_allocate_a_small_constant -p cpm-serve --test alloc_gate
run_named a_plan_hit_adds_only_the_output_line_to_parse_and_lookup -p cpm-serve --test alloc_gate
# One machine: a plan is a replay on the model's parameters, to the bit.
run_named plan_equals_replay_bit_for_bit_on_the_ideal_paper_cluster -p cpm-workload --test accuracy
# The kernel asserts where the old planner computed garbage: degenerate
# parameters are clamped, never a panic, in optimized builds too.
run_named degenerate_parameter_sets_plan_as_their_clamped_selves -p cpm-serve --test golden
run_named degenerate_parameter_sets_plan_as_their_clamped_selves -p cpm-serve --test golden --release
# One kind of rank under estimation and drift: every communication
# experiment is a ScriptOp program, bit-identical to the closure it replaced
# (the closures live on as the tests' oracle), and the recovered parameter
# sets hash as they did on rank threads.
run_named scripted_roundtrips_match_the_threaded_experiment_bit_for_bit -p cpm-estimate --test scripted_vs_threaded
run_named scripted_one_to_two_matches_the_threaded_experiment_bit_for_bit -p cpm-estimate --test scripted_vs_threaded
run_named scripted_probes_match_the_threaded_experiments_bit_for_bit -p cpm-estimate --test scripted_vs_threaded
run_named probe::tests::scripted_one_way_times_match_the_threaded_probe_bit_for_bit -p cpm-vmpi --lib
run_named parameter_sets_hash_as_they_did_on_rank_threads -p cpm-serve --test estimate_pin --release
run_named lmo_estimation_is_exact_under_fuzzed_schedules -p cpm-estimate --test schedule_fuzz --release
# One description per collective: every algorithm's ScriptOp program matches,
# to the bit, the closure it replaced (kept in the test as reference code) on
# LAM + noise and on ideal clusters; a free-combine reduce is not a gather;
# the two nonblocking ops did not grow the op.
for t in flat_rooted_collectives_match_their_closures_bit_for_bit \
         rootless_collectives_match_their_closures_bit_for_bit \
         two_phase_collectives_match_their_closures_bit_for_bit \
         vector_collectives_match_their_closures_bit_for_bit \
         optimized_gather_matches_its_closure_bit_for_bit \
         tuned_dispatch_matches_the_closure_dispatcher_bit_for_bit; do
  run_named "$t" -p cpm-collectives --test lowered_vs_closure
done
run_named lower::tests::a_free_combine_reduce_is_not_a_gather -p cpm-workload --lib
run_named script::tests::script_ops_stay_sixteen_bytes -p cpm-netsim --lib
# One event queue: what it pops, in what order, is pinned from the commit
# before the swap (five replay_scale traces; a noisy LAM gather's whole
# trace, fuzzer off and on); pending events are bounded by the ranks; the
# 1000-rank replay budget only means something optimized.
run_named replay_scale_cases_reproduce_to_the_bit -p cpm-workload --test pinned_runs
run_named noisy_gather_trace_reproduces_to_the_bit -p cpm-workload --test pinned_runs
run_named thousand_rank_replay_under_budget -p cpm-workload --test pinned_runs --release
run_named engine::tests::pool_slots_equals_peak_pending -p cpm-des --lib
# Plan at replay speed: the streamed trace hash is the tree's hash on every
# trace; a plan is the same from a shared or a rebuilt model, to the bit.
for t in canonical_workloads_hash_as_their_value_trees \
         every_kind_and_every_float_class_hashes_as_its_tree \
         generated_traces_hash_as_their_value_trees; do
  run_named "$t" -p cpm-workload --test trace_hash
done
run_named plans_are_the_same_however_often_and_from_whichever_copy -p cpm-workload --test plan_exact
run_named a_model_changed_after_a_plan_plans_as_its_new_self -p cpm-workload --test plan_exact
run_named script::tests::pending_events_stay_bounded_by_the_ranks -p cpm-netsim --lib
run_named scatter::tests::binomial_emitters_are_linear_in_the_ranks -p cpm-collectives --lib
run_named script::tests::nonblocking_exchange_matches_the_threaded_one_exactly -p cpm-netsim --lib
# One answer: predict == compute == cost == the plan of the one-op trace
# (plus eq. (5)'s escalation term); select, the planner's chooser and
# TunedCollectives pick alike; large fan-ins plan as they replay.
for t in lmo_cost_is_the_plan_of_the_one_op_trace_plus_the_escalation_term \
         predict_compute_select_and_the_dispatcher_all_read_the_one_cost \
         the_papers_gather_result_survives \
         large_fan_ins_plan_as_they_replay_and_their_paths_explain; do
  run_named "$t" -p cpm-serve --test one_answer
done
# The resident parameter sets are bounded; an evicted one comes back from disk.
run_named service::tests::an_evicted_parameter_set_is_loaded_back_unchanged -p cpm-serve --lib
rm -f "$ORACLE_LOG"

echo "== no thread-backed ranks outside crates/vmpi and crates/netsim (tests/ keep them as the oracle)"
THREADLESS="$(ls -d crates/*/src | grep -vE '^crates/(vmpi|netsim)/src$') src examples"
# shellcheck disable=SC2086
if grep -rnwE 'cpm_vmpi::run|vmpi::run|run_timed|run_timed_max|Comm' $THREADLESS; then
  echo "no non-test source outside crates/vmpi and crates/netsim may name cpm_vmpi::run, run_timed* or Comm"; exit 1
fi

echo "== one cost: the service, the planner, the CLI and the dispatcher name no closed-form collective predictor"
# They all read cpm_collectives::cost. The paper's formulas stay in
# cpm-models for the figure binaries and the corollaries; emitters are free
# functions and do not match.
if grep -rnE 'cpm_models::collective|\.linear_scatter\(|\.linear_gather\(|\.binomial_scatter\(|rank_lmo|rank_generic|_bcast_time' \
  crates/serve/src crates/workload/src src/main.rs crates/collectives/src/tuned.rs; then
  echo "predict/select/plan/cpm predict/TunedCollectives must price through cpm_collectives::cost"; exit 1
fi

echo "== one event queue (no calendar, no slot pool, no fallback left to name)"
if ls crates/des/src/calendar.rs crates/des/src/pool.rs 2>/dev/null \
  || grep -rnw 'heap_fallback' crates src examples tests benchmark README.md DESIGN.md; then
  echo "cpm-des is one binary heap: calendar.rs, pool.rs and heap_fallback must stay gone"; exit 1
fi

echo "== no pop observer in the event queue (a traced kernel run counts what it fires)"
if grep -rni 'observer' crates/des/src; then
  echo "cpm-des has no observer API: the netsim kernel counts DesEventCounts in its own dispatch"; exit 1
fi

echo "== Trace::hash streams the canonical text (no Value tree)"
TRACE_HASH="$(sed -n '/    pub fn hash(&self) -> String {/,/^    }$/p' crates/workload/src/trace.rs)"
[ -n "$TRACE_HASH" ] || { echo "Trace::hash not found in crates/workload/src/trace.rs"; exit 1; }
if grep -n 'to_value' <<<"$TRACE_HASH"; then
  echo "Trace::hash must stream through cpm_core::CanonHasher, not hash Trace::to_value"; exit 1
fi

echo "== the figure binaries reproduce their committed JSON byte for byte"
cargo build --release -q -p cpm-bench --bins
FIG_TMP="$(mktemp -d)"
for FIG in fig3 fig4 fig5 fig6 fig7 ablation_binomial; do
  CPM_RESULTS_DIR="$FIG_TMP" "./target/release/$FIG" >/dev/null 2>&1
  cmp "$FIG_TMP/$FIG.json" "bench_results/$FIG.json" \
    || { echo "$FIG no longer reproduces bench_results/$FIG.json"; exit 1; }
done
rm -rf "$FIG_TMP"

echo "== drift loop tests"
cargo test -p cpm-drift -q

echo "== drift ingest bench (smoke)"
cargo bench -p cpm-bench --bench drift -- --test

echo "== flight-recorder bench (smoke + <100ns/record gate)"
cargo bench -p cpm-bench --bench obs -- --test

echo "== DES engine tests (one heap against a sorted-Vec model, schedule fuzzing)"
cargo test -p cpm-des -q
cargo test -p cpm-workload --test determinism -q
cargo test -p cpm-collectives --test schedule_fuzz -q

echo "== workload CLI smoke + golden trace schema"
CPM="./target/release/cpm"
WL_TMP="$(mktemp -d)"
trap 'rm -rf "$WL_TMP"' EXIT
"$CPM" workload gen --kind train --nodes 4 --m 8K --iters 2 --out "$WL_TMP/train.jsonl" >/dev/null
diff -u crates/workload/tests/golden/train_n4.jsonl "$WL_TMP/train.jsonl" \
  || { echo "golden trace schema drifted (crates/workload/tests/golden/train_n4.jsonl)"; exit 1; }
"$CPM" workload gen --kind train --nodes 4 --m 8K --iters 2 \
  | "$CPM" workload predict --nodes 4 --reps 1 | grep -q '"makespan_seconds"'
"$CPM" workload run --trace "$WL_TMP/train.jsonl" --nodes 4 | grep -q '"msgs_sent"'

echo "== critical-path attribution in plan output (all four canonical workloads)"
for KIND in train pipeline moe halo; do
  "$CPM" workload gen --kind "$KIND" --nodes 8 --m 8K --iters 1 \
    | "$CPM" workload predict --nodes 8 --reps 1 > "$WL_TMP/cp_$KIND.json"
  grep -q '"critical_path"' "$WL_TMP/cp_$KIND.json" || { echo "$KIND plan lacks critical_path"; exit 1; }
  grep -q '"terms"' "$WL_TMP/cp_$KIND.json" || { echo "$KIND critical path lacks term attribution"; exit 1; }
done

echo "== DES timeline export (16-rank train; recording must not change the replay)"
"$CPM" workload gen --kind train --nodes 16 --out "$WL_TMP/train16.jsonl" >/dev/null
"$CPM" workload run --trace "$WL_TMP/train16.jsonl" --nodes 16 \
  --trace-out "$WL_TMP/replay16.json" > "$WL_TMP/run16_traced.json" 2>/dev/null
grep -q '"traceEvents"' "$WL_TMP/replay16.json"
grep -q '"desEvents"' "$WL_TMP/replay16.json"
grep -q '"thread_name"' "$WL_TMP/replay16.json"
"$CPM" workload run --trace "$WL_TMP/train16.jsonl" --nodes 16 > "$WL_TMP/run16_plain.json"
diff -u "$WL_TMP/run16_plain.json" "$WL_TMP/run16_traced.json" \
  || { echo "DES recording changed the replayed timings"; exit 1; }

echo "== reactor tests (event loop, framing, pipelining, idle reaping, handler-panic isolation)"
cargo test -p cpm-reactor -q
cargo test -p cpm-serve --test reactor -q

echo "== serve loadgen gate (pipelined in-order answers, tracing overhead, exposition grammar)"
./target/release/loadgen --clients 16 --requests 150 --workers 2 --pipeline 8 \
  --out "$WL_TMP/serve_load.json" --obs-overhead-max 5.0

echo "== fleet tests (ring rebalancing proptest, replication, leader failover)"
cargo test -p cpm-fleet -q

echo "== fleet loadgen smoke (3 nodes, 64 Zipf tenants, kill a replica, zero errors)"
./target/release/loadgen --tenants 64 --zipf 1.1 --clients 8 --requests 100 \
  --fleet 3 --replication 2 --kill-node 1 --p99-max-ms 200 \
  --out "$WL_TMP/fleet_load.json"
grep -q '"errors": 0' "$WL_TMP/fleet_load.json"

echo "== fleet trace smoke (one traced request; merged dump spans >=2 distinct nodes)"
./target/release/loadgen --trace-fleet 3

echo "== the --engine knob is gone (strict flag allowlist: exit 2)"
"$CPM" serve --engine pool >/dev/null 2>&1 && rc=0 || rc=$?
[ "$rc" -eq 2 ] || { echo "cpm serve --engine pool exited $rc, want 2"; exit 1; }

echo "== trace CLI smoke (query over both wires, trace dump)"
"$CPM" serve --store "$WL_TMP/trace-store" --addr 127.0.0.1:0 \
  >"$WL_TMP/serve.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 50); do
  ADDR="$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$WL_TMP/serve.log")"
  [ -n "$ADDR" ] && break
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "serve did not report an address"; kill "$SERVE_PID"; exit 1; }
# DES-fidelity plan over the wire: embed the 16-node config + a 16-rank
# trace in one plan request (the single-object trace form is the jsonl
# header plus an "ops" array), then assert the des metrics show up.
"$CPM" spec --profile ideal --out "$WL_TMP/cluster16.json" >/dev/null
"$CPM" workload gen --kind train --nodes 16 --m 8K --iters 1 --out "$WL_TMP/t16.jsonl" >/dev/null
CFG="$(tr -d '\n' < "$WL_TMP/cluster16.json")"
HDR="$(head -n1 "$WL_TMP/t16.jsonl")"
OPS="$(tail -n +2 "$WL_TMP/t16.jsonl" | paste -sd, -)"
TRACE="${HDR%\}},\"ops\":[$OPS]}"
printf '{"verb":"plan","fidelity":"des","config":%s,"trace":%s}\n' \
  "$CFG" "$TRACE" > "$WL_TMP/plan_des.jsonl"
"$CPM" query --addr "$ADDR" --batch "$WL_TMP/plan_des.jsonl" | grep -q '"fidelity":"des"'
"$CPM" query --addr "$ADDR" --verb stats --format text > "$WL_TMP/expo.txt"
grep -q '^cpm_serve_' "$WL_TMP/expo.txt"
grep -q '^cpm_des_events_total [1-9]' "$WL_TMP/expo.txt"
grep -q '^cpm_des_replay_ns_count 1' "$WL_TMP/expo.txt"
"$CPM" query --addr "$ADDR" --verb stats --wire binary | grep -q '"ok":true'
"$CPM" trace --addr "$ADDR" --out "$WL_TMP/trace.json" --last 1000
grep -q '"traceEvents"' "$WL_TMP/trace.json"
# --fleet must refuse a single-node dump instead of silently passing it off
# as a fleet merge.
if "$CPM" trace --addr "$ADDR" --fleet >/dev/null 2>"$WL_TMP/fleet-err.txt"; then
  echo "trace --fleet unexpectedly accepted a single-node dump"; kill "$SERVE_PID"; exit 1
fi
grep -q 'single-node dump' "$WL_TMP/fleet-err.txt"
"$CPM" query --addr "$ADDR" --verb shutdown >/dev/null
wait "$SERVE_PID"

echo "== hierarchical walkthrough (README 'Hierarchical clusters', live server)"
"$CPM" spec --nodes 4 --cores 8 --out "$WL_TMP/hier.json" \
  | grep 'topology: hierarchical (node x8 -> switch x4)' >/dev/null
"$CPM" estimate --model lmo-hier --config "$WL_TMP/hier.json" --out "$WL_TMP/hier-model.json" \
  | grep 'hierarchical LMO: n = 32 (2 levels)' >/dev/null
"$CPM" predict --model-file "$WL_TMP/hier-model.json" --op bcast --m 64K --alg two-phase \
  | grep 'selected: two-phase' >/dev/null
"$CPM" workload gen --kind train --nodes 32 --m 64K --out "$WL_TMP/train32.jsonl" >/dev/null
"$CPM" workload predict --trace "$WL_TMP/train32.jsonl" --model lmo-hier --nodes 4 --cores 8 \
  | grep '"algorithm": "two-phase"' >/dev/null
"$CPM" serve --store "$WL_TMP/hier-store" --addr 127.0.0.1:0 \
  >"$WL_TMP/hier-serve.log" 2>&1 &
HIER_PID=$!
for _ in $(seq 1 50); do
  HADDR="$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$WL_TMP/hier-serve.log")"
  [ -n "$HADDR" ] && break
  sleep 0.1
done
[ -n "$HADDR" ] || { echo "hier serve did not report an address"; kill "$HIER_PID"; exit 1; }
"$CPM" query --addr "$HADDR" --verb plan --trace "$WL_TMP/train32.jsonl" --model lmo-hier \
  --config "$WL_TMP/hier.json" > "$WL_TMP/hier-plan.json"
grep -q '"model":"lmo-hier"' "$WL_TMP/hier-plan.json"
grep -q '"algorithm":"two-phase"' "$WL_TMP/hier-plan.json"
# Unknown fidelity values must be a structured error, not a fallback.
if "$CPM" query --addr "$HADDR" --verb plan --trace "$WL_TMP/train32.jsonl" \
  --fidelity chaotic --config "$WL_TMP/hier.json" > "$WL_TMP/hier-bad.json" 2>/dev/null; then
  echo "bad fidelity unexpectedly accepted"; kill "$HIER_PID"; exit 1
fi
grep -q 'unknown fidelity' "$WL_TMP/hier-bad.json"
"$CPM" query --addr "$HADDR" --verb shutdown >/dev/null
wait "$HIER_PID"

echo "CI OK"
