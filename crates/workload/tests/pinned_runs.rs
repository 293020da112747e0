//! Pinned runs: what "the same order" means for the event queue.
//!
//! The kernel's answers are a function of the order in which the queue
//! pops events — time first, then insertion order, or the seeded
//! permutation of same-time events under schedule fuzzing. These vectors
//! were recorded on the commit *before* the calendar queue, its slot pool
//! and its heap fallback were replaced by one binary heap on a packed key,
//! and must hold on every commit after it: the five `replay_scale` traces
//! (event count, message counts and makespan bits), and the full semantic
//! trace — order and every `f64` bit — of a noisy medium-message gather on
//! the paper's 16-node LAM cluster, with the fuzzer off and on.

use std::time::Instant;

use cpm_cluster::{ClusterConfig, ClusterSpec};
use cpm_collectives::linear_gather;
use cpm_core::canonical_hash;
use cpm_core::rank::Rank;
use cpm_netsim::{run_script_traced, DesEventCounts, ScriptOp, SimCluster, TraceEvent};
use cpm_workload::{gen, replay, truth_choices, ReplayReport};
use serde_json::Value;

/// Every message of every `replay_scale` trace.
const M: u64 = 16 * 1024;

fn replay_case(kind: &str, iters: usize, cfg: &ClusterConfig) -> ReplayReport {
    let cl = SimCluster::from_config(cfg);
    let trace = gen::canonical(kind, cl.n(), M, iters).unwrap();
    let choices = truth_choices(&cl, &trace);
    replay(&cl, &trace, &choices).unwrap()
}

#[test]
fn replay_scale_cases_reproduce_to_the_bit() {
    let flat = |n: usize, i: u64| ClusterConfig::ideal(ClusterSpec::homogeneous(n), 2009 + i);
    let cases = [
        (
            "train",
            2,
            flat(1000, 0),
            (24_978, 3_996, 3_996, 0x3fb1_7007_e5cb_d343),
        ),
        (
            "halo",
            4,
            flat(1024, 1),
            (84_480, 15_872, 15_872, 0x3fa0_50ff_830e_b659),
        ),
        (
            "pipeline",
            8,
            flat(512, 2),
            (25_048, 4_088, 4_088, 0x3ff2_ca8d_5e7d_db53),
        ),
        (
            "moe",
            2,
            flat(128, 3),
            (325_504, 65_024, 65_024, 0x3fed_3a83_b5bd_662f),
        ),
        (
            "train",
            2,
            ClusterConfig::hierarchical(8, 8, 2013),
            (1_578, 252, 252, 0x3f9f_94ab_5bc0_3b7a),
        ),
    ];
    for (kind, iters, cfg, want) in cases {
        let r = replay_case(kind, iters, &cfg);
        let got = (r.events, r.msgs_sent, r.msgs_received, r.makespan.to_bits());
        assert_eq!(
            got,
            want,
            "{kind} on {} ranks: (events, sent, received, makespan bits {:#x} = {:e} s)",
            cfg.spec.n_nodes(),
            got.3,
            f64::from_bits(got.3)
        );
    }
}

/// The 1 000-rank `train` replay — lowering, kernel and queue — is an
/// interactive operation: ~25 ms on the reference machine. The budget
/// catches a return to a per-event allocation, an O(n²) emitter or a
/// degenerate queue, each of which costs a multiple of it; unoptimized
/// builds are not timed.
#[test]
fn thousand_rank_replay_under_budget() {
    let cfg = ClusterConfig::ideal(ClusterSpec::homogeneous(1000), 2009);
    let best = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let report = replay_case("train", 2, &cfg);
            assert_eq!(report.msgs_sent, report.msgs_received);
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    if !cfg!(debug_assertions) {
        assert!(
            best < 0.250,
            "1000-rank train replay took {:.0} ms, budget 250 ms",
            best * 1e3
        );
    }
}

/// Hash of a semantic trace: emission order, every field, every `f64` bit.
fn trace_hash(events: &[TraceEvent]) -> String {
    let r = |r: Rank| r.idx() as u64;
    let words = |e: &TraceEvent| match *e {
        TraceEvent::TxSlot {
            msg,
            src,
            dst,
            bytes,
            start,
            end,
        } => vec![
            1,
            msg as u64,
            r(src),
            r(dst),
            bytes,
            start.to_bits(),
            end.to_bits(),
        ],
        TraceEvent::Wire {
            msg,
            src,
            dst,
            start,
            end,
        } => vec![
            2,
            msg as u64,
            r(src),
            r(dst),
            start.to_bits(),
            end.to_bits(),
        ],
        TraceEvent::RxSlot {
            msg,
            dst,
            start,
            end,
        } => vec![3, msg as u64, r(dst), start.to_bits(), end.to_bits()],
        TraceEvent::Received { msg, by, at } => vec![4, msg as u64, r(by), at.to_bits()],
        TraceEvent::BarrierRelease { at } => vec![5, at.to_bits()],
    };
    let seq = |ws: Vec<u64>| Value::Seq(ws.into_iter().map(Value::U64).collect());
    canonical_hash(&Value::Seq(events.iter().map(|e| seq(words(e))).collect()))
}

/// Eight barrier-separated linear gathers of 16 KiB blocks (medium under
/// LAM 7.1.3: escalation draws on) to root 0 of the paper's cluster at 1 %
/// noise: every barrier release is fifteen same-instant wakes, so the tie
/// order — and under fuzzing, the permutation — decides which rank draws
/// which noise sample.
fn noisy_gather(fuzz_seed: Option<u64>) -> (String, usize, DesEventCounts, u64) {
    let mut cl = SimCluster::from_config(&ClusterConfig::paper_lam(7));
    cl.fuzz_seed = fuzz_seed;
    let mut programs: Vec<Vec<ScriptOp>> = vec![Vec::new(); cl.n()];
    for _ in 0..8 {
        linear_gather(cl.n(), Rank(0), M, |rank: Rank, op| {
            programs[rank.idx()].push(op)
        });
        programs.iter_mut().for_each(|p| p.push(ScriptOp::Barrier));
    }
    let out = run_script_traced(&cl, &programs).unwrap();
    let trace = out.trace.expect("a traced run carries its trace");
    (
        trace_hash(&trace.events),
        trace.events.len(),
        out.des_events.expect("a traced run counts its events"),
        out.end_time.to_bits(),
    )
}

#[test]
fn noisy_gather_trace_reproduces_to_the_bit() {
    let counts = DesEventCounts {
        wakes: 384,
        arrivals: 120,
        transfers: 120,
        delivers: 120,
    };
    assert_eq!(
        noisy_gather(None),
        (
            "b84cb56d898cf3bd418883b92450b4a2".to_string(),
            488,
            counts,
            0x3fd8_c78f_5968_6317
        ),
        "FIFO ties"
    );
    assert_eq!(
        noisy_gather(Some(7)),
        (
            "290cba474dc3cc58873404b04b8f8f07".to_string(),
            488,
            counts,
            0x3fd8_c868_20c6_3dd2
        ),
        "ties permuted by fuzz seed 7"
    );
}
