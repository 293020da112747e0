//! Per-layer rows that are one public function in a loop. Each is attached
//! to the workload whose end-to-end metric the layer should move.

use std::hint::black_box;
use std::time::Instant;

use cpm_cluster::{ClusterSpec, GroundTruth, MpiProfile};
use cpm_core::rank::Rank;
use cpm_netsim::SimCluster;
use cpm_vmpi::ScriptOp;

use crate::run::{Ctx, Samples};
use crate::span::Tracer;
use crate::stats::median;

/// Median over `batches` batches of the mean time of one `op`, nanoseconds.
fn per_op_ns(batches: usize, per_batch: usize, mut op: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..per_batch {
                op();
            }
            t0.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&times)
}

/// What one harness span costs by itself, so sub-microsecond rows measured
/// with a span around a single call can be read net of it.
fn span_overhead_ns() -> f64 {
    per_op_ns(9, 20_000, || {
        let mut t = Tracer::new(true);
        for _ in 0..8 {
            let s = t.enter("empty", 0);
            t.exit(s);
        }
        black_box(t.spans().len());
    }) / 8.0
}

/// serve_hot: fingerprinting a tenant config, hashing the `plan` trace, and
/// one flight-recorder span (begin + end), all of which sit on its path.
pub fn serve_hot_rows(ctx: &Ctx, plan_trace: &cpm_workload::Trace, s: &mut Samples) {
    let config = &crate::serving::tenant_configs(1)[0];
    s.push(
        "serve.fingerprint_us",
        per_op_ns(9, ctx.work(200), || {
            black_box(cpm_serve::fingerprint(black_box(config)));
        }) / 1e3,
    );
    s.push(
        "workload.hash_us",
        per_op_ns(9, ctx.work(500), || {
            black_box(black_box(plan_trace).hash());
        }) / 1e3,
    );
    let recorder = cpm_obs::Recorder::new(1 << 16);
    s.push(
        "obs.record_ns",
        per_op_ns(9, ctx.work(100_000), || {
            let mut sp = recorder.span(black_box("ledger.span"));
            sp.field_u64("i", black_box(7));
        }),
    );
    s.push("harness.span_overhead_ns", span_overhead_ns());
}

/// fleet_mix: the ring lookup every routed request starts with.
pub fn fleet_rows(ctx: &Ctx, ring: &cpm_fleet::Ring, fps: &[String], s: &mut Samples) {
    let mut i = 0;
    s.push(
        "fleet.ring_owners_ns",
        per_op_ns(9, ctx.work(50_000), || {
            i = (i + 1) % fps.len();
            black_box(ring.owners(black_box(&fps[i]), 2));
        }),
    );
}

/// estimate_cold: what one simulation run costs before it simulates
/// anything (spawn 16 thread-backed ranks, hand off, join); an estimation
/// pays it `estimate.runs` times.
pub fn estimate_rows(ctx: &Ctx, s: &mut Samples) {
    let truth = GroundTruth::synthesize(&ClusterSpec::paper_cluster(), ctx.seed);
    let cluster = SimCluster::new(truth, MpiProfile::ideal(), 0.0, ctx.seed);
    s.push(
        "vmpi.run_overhead_us",
        per_op_ns(9, ctx.work(100), || {
            black_box(cpm_vmpi::run(&cluster, |_| ()).expect("empty program runs"));
        }) / 1e3,
    );
}

/// replay_scale: the event queue alone (64 outstanding events, banded
/// offsets, as a simulation kernel schedules them) and the scripted-rank
/// kernel alone (a 64-rank ring shifting 256 messages per rank).
pub fn replay_rows(ctx: &Ctx, s: &mut Samples) {
    let mut engine: cpm_des::Engine<u64, u64> = cpm_des::Engine::new();
    for i in 0..64u64 {
        engine.schedule(i, i);
    }
    s.push(
        "des.schedule_pop_ns",
        per_op_ns(9, ctx.work(500_000), || {
            let (now, v) = engine.pop().expect("64 events outstanding");
            engine.schedule(now + 64 + (v % 7), black_box(v));
        }),
    );
    let (n, rounds) = (64usize, 256usize);
    let truth = GroundTruth::synthesize(&ClusterSpec::homogeneous(n), ctx.seed);
    let cluster = SimCluster::new(truth, MpiProfile::ideal(), 0.0, ctx.seed);
    let programs: Vec<Vec<ScriptOp>> = (0..n)
        .map(|r| {
            let (right, left) = (Rank::from((r + 1) % n), Rank::from((r + n - 1) % n));
            (0..rounds)
                .flat_map(|_| {
                    [
                        ScriptOp::Send {
                            dst: right,
                            bytes: 1024,
                        },
                        ScriptOp::Recv { src: left },
                    ]
                })
                .collect()
        })
        .collect();
    let (mut events, mut pool_slots) = (0, 0);
    let ns_per_run = per_op_ns(if ctx.smoke { 1 } else { 9 }, 1, || {
        let out = cpm_vmpi::run_program(&cluster, &programs).expect("ring program runs");
        (events, pool_slots) = (out.stats.events, out.stats.pool_slots);
    });
    s.push(
        "vmpi.program_events_per_s",
        events as f64 / (ns_per_run / 1e9),
    );
    s.push("des.pool_slots", pool_slots as f64);
}
