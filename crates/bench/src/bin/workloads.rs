//! Application-level accuracy: for each canonical workload, each model
//! both chooses the per-op algorithms and predicts the end-to-end
//! makespan; the same choices are replayed against the DES, and the
//! relative makespan error is reported per model. The per-collective
//! accuracy gap of the paper (Tables I–II, Figs. 4–7) compounds at
//! schedule level: the homogeneous models charge whole transfers as
//! sender occupancy, so any workload that pipelines or fans in is
//! mispredicted even when their single-message fits are decent.

use cpm_bench::{Figure, PaperContext, Series};
use cpm_core::units::{format_bytes, Bytes};
use cpm_workload::{choose, compare, gen, plan, ModelKind, PlanModel};

fn main() {
    let ctx = PaperContext::from_env();
    let n = ctx.sim.truth.c.len();
    // The four flat models, in reporting order; LMO first.
    let models = [
        PlanModel::Lmo(ctx.lmo.clone()),
        PlanModel::Hockney(ctx.hockney_het.clone()),
        PlanModel::Loggp(ctx.loggp.clone()),
        PlanModel::Plogp(ctx.plogp.clone()),
    ];
    let lmo = &models[0];

    // Sizes on both sides of the LAM escalation band (M1 ≈ 4 KB,
    // M2 ≈ 65 KB): inside it the DES makespan is stochastic and no
    // deterministic prediction can rank the models cleanly.
    let sizes: [Bytes; 2] = [1024, 128 * 1024];
    let iters = 2;

    println!("app-level |rel err| of predicted vs DES-replayed makespan, n = {n}");
    println!("(each model chooses the per-op algorithms; the same choices are replayed)");
    println!();
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>10}",
        "workload", "LMO", "Hockney", "LogGP", "PLogP"
    );
    let mut lmo_wins: Vec<String> = Vec::new();
    for kind in gen::CANONICAL_KINDS {
        for &m in &sizes {
            let trace = gen::canonical(kind, n, m, iters).expect("canonical kind");
            let mut errs = Vec::new();
            for pm in &models {
                let p = plan(&trace, pm).expect("plan");
                let r = replay_checked(&ctx, &trace, pm);
                let c = compare(&trace, &p, &r);
                errs.push(c.rel_error.abs());
            }
            let row = format!("{kind}@{}", format_bytes(m));
            println!(
                "{:<18} {:>9.1}% {:>9.1}% {:>9.1}% {:>9.1}%",
                row,
                errs[0] * 100.0,
                errs[1] * 100.0,
                errs[2] * 100.0,
                errs[3] * 100.0
            );
            let best_rest = errs[1..].iter().copied().fold(f64::INFINITY, f64::min);
            if errs[0] < best_rest {
                lmo_wins.push(row);
            }
        }
    }

    // The figure: the pipeline chain over a size sweep. The DES executes
    // the tuned (LMO-chosen) schedule once per size; every model predicts
    // the same schedule. LMO's separable send lets stage s start
    // micro-batch b+1 while batch b is still in flight; whole-transfer
    // occupancy serializes the chain and overshoots.
    let sweep: Vec<Bytes> = vec![256, 1024, 4096, 16 * 1024, 64 * 1024, 256 * 1024];
    let micro_batches = 4;
    let stage_secs = 5e-4;
    let mut fig = Figure::new(
        "workloads",
        "pipeline workload: DES makespan vs per-model prediction",
    );
    fig.push(Series {
        label: "DES observed".into(),
        points: sweep
            .iter()
            .map(|&m| {
                let t = gen::pipeline(n, m, micro_batches, stage_secs);
                let r = cpm_workload::replay(&ctx.sim, &t, &choose(&t, lmo)).expect("replay");
                (m, r.makespan)
            })
            .collect(),
    });
    for pm in &models {
        fig.push(Series {
            label: label_of(pm.kind()).into(),
            points: sweep
                .iter()
                .map(|&m| {
                    let t = gen::pipeline(n, m, micro_batches, stage_secs);
                    (m, plan(&t, pm).expect("plan").makespan)
                })
                .collect(),
        });
    }
    println!();
    print!("{}", fig.render());
    println!();
    let observed = fig.series[0].clone();
    println!("{:<18} {:>16}", "pipeline sweep", "mean |rel err|");
    for pm in &models {
        let label = label_of(pm.kind());
        let s = fig.series.iter().find(|s| s.label == label).unwrap();
        let err = s.mean_rel_error_vs(&observed).unwrap();
        println!("{:<18} {:>15.1}%", label, err * 100.0);
    }

    fig.save(cpm_bench::output::results_dir())
        .expect("write results");

    hierarchical_row(iters);

    println!();
    if lmo_wins.is_empty() {
        println!("FAIL: LMO was not strictly the most accurate model on any workload");
        std::process::exit(1);
    }
    println!(
        "LMO has the strictly lowest app-level error on {}/{} workload rows: {}",
        lmo_wins.len(),
        gen::CANONICAL_KINDS.len() * sizes.len(),
        lmo_wins.join(", ")
    );
}

/// The hierarchical row: the same canonical workloads on a 4-node ×
/// 8-core cluster, planned once with the level-aware hierarchical LMO
/// (which may pick leader-based two-phase lowerings) and once with the
/// folded flat LMO (identical point-to-point times, flat algorithm menu
/// only). Both plans are replayed against the DES with their own
/// choices, so the gap isolates what level-awareness buys at schedule
/// level. Writes `bench_results/workloads_hier.json`.
fn hierarchical_row(iters: usize) {
    use cpm_cluster::ClusterConfig;
    use cpm_models::HierLmo;
    use cpm_netsim::SimCluster;
    use cpm_workload::replay;

    let (nodes, cores) = (4usize, 8usize);
    let config = ClusterConfig::hierarchical(nodes, cores, 2009);
    let sim = SimCluster::from_config(&config);
    let h = HierLmo::from_truth(&sim.truth, &config.topology).expect("hierarchical truth");
    let hier = PlanModel::LmoHier(h.clone());
    let flat = PlanModel::Lmo(h.to_extended());
    let n = nodes * cores;

    println!();
    println!("hierarchical row: {nodes} nodes x {cores} cores, level-aware vs flat LMO");
    println!(
        "{:<18} {:>10} {:>10} {:>12} {:>12}",
        "workload", "hier err", "flat err", "hier DES", "flat DES"
    );
    let m: Bytes = 64 * 1024;
    for kind in gen::CANONICAL_KINDS {
        let trace = gen::canonical(kind, n, m, iters).expect("canonical kind");
        let eval = |pm: &PlanModel| {
            let p = plan(&trace, pm).expect("plan");
            let r = replay(&sim, &trace, &choose(&trace, pm)).expect("replay");
            (compare(&trace, &p, &r).rel_error.abs(), r.makespan)
        };
        let (he, hm) = eval(&hier);
        let (fe, fm) = eval(&flat);
        println!(
            "{:<18} {:>9.1}% {:>9.1}% {:>10.1}ms {:>10.1}ms",
            format!("{kind}@{}", format_bytes(m)),
            he * 100.0,
            fe * 100.0,
            hm * 1e3,
            fm * 1e3
        );
    }

    // The figure: the training workload over a size sweep — DES makespan
    // under each model's own choices, plus each model's prediction of its
    // own schedule.
    let sweep: Vec<Bytes> = vec![1024, 4096, 16 * 1024, 64 * 1024, 256 * 1024];
    let mut fig = Figure::new(
        "workloads_hier",
        "train workload on 4 nodes x 8 cores: level-aware vs flat LMO",
    );
    let series = |label: &str, pm: &PlanModel, observed: bool| Series {
        label: label.into(),
        points: sweep
            .iter()
            .map(|&m| {
                let t = gen::canonical("train", n, m, iters).expect("train");
                let v = if observed {
                    replay(&sim, &t, &choose(&t, pm)).expect("replay").makespan
                } else {
                    plan(&t, pm).expect("plan").makespan
                };
                (m, v)
            })
            .collect(),
    };
    fig.push(series("DES (hier choices)", &hier, true));
    fig.push(series("hier LMO prediction", &hier, false));
    fig.push(series("DES (flat choices)", &flat, true));
    fig.push(series("flat LMO prediction", &flat, false));
    println!();
    print!("{}", fig.render());
    fig.save(cpm_bench::output::results_dir())
        .expect("write results");
}

fn replay_checked(
    ctx: &PaperContext,
    trace: &cpm_workload::Trace,
    pm: &PlanModel,
) -> cpm_workload::ReplayReport {
    cpm_workload::replay(&ctx.sim, trace, &choose(trace, pm)).expect("replay")
}

fn label_of(mk: ModelKind) -> &'static str {
    match mk {
        ModelKind::Lmo => "LMO",
        ModelKind::LmoHier => "hier LMO",
        ModelKind::Hockney => "het Hockney",
        ModelKind::Loggp => "LogGP",
        ModelKind::Plogp => "PLogP",
    }
}
