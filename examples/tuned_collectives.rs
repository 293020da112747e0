//! The downstream-user story: estimate the LMO model once at startup, then
//! let [`TunedCollectives`] pick the algorithm for every collective call —
//! the paper's companion software tool in one object.
//!
//! ```sh
//! cargo run --release --example tuned_collectives
//! ```

use cpm::cluster::ClusterConfig;
use cpm::collectives::measure::collective_times;
use cpm::collectives::{measure, TunedCollectives};
use cpm::core::units::{format_bytes, KIB};
use cpm::core::Rank;
use cpm::estimate::lmo::estimate_lmo_full;
use cpm::estimate::EstimateConfig;
use cpm::netsim::SimCluster;
use cpm::stats::Summary;

fn main() {
    let sim = SimCluster::from_config(&ClusterConfig::paper_lam(33));
    println!("estimating the LMO model once (startup cost) …");
    let est = estimate_lmo_full(&sim, &EstimateConfig::with_seed(6)).expect("est");
    println!(
        "  {:.1} s of virtual cluster time, {} runs",
        est.virtual_cost, est.runs
    );
    let tuned = TunedCollectives::new(est.model);
    let root = Rank(0);

    // Scatter: the dispatcher flips algorithms by size.
    println!("\nscatter dispatch:");
    for m in [64, 4 * KIB, 32 * KIB, 160 * KIB] {
        let choice = tuned.scatter_choice(root, m).as_str();
        println!("  M = {:>7} → {choice}", format_bytes(m));
    }

    // Gather: tuned vs native in the escalation region.
    let m = 32 * KIB;
    let reps = 16;
    let tuned_times = collective_times(&sim, reps, 9, |e| tuned.gather(root, m, e)).expect("sim");
    let native = measure::linear_gather_times(&sim, root, m, reps, 9).expect("sim");
    println!(
        "\ngather at {}: native {:.1} ms → tuned {:.1} ms ({:.1}x)",
        format_bytes(m),
        Summary::of(&native).mean() * 1e3,
        Summary::of(&tuned_times).mean() * 1e3,
        Summary::of(&native).mean() / Summary::of(&tuned_times).mean()
    );

    // Broadcast dispatch.
    println!("\nbroadcast dispatch:");
    for m in [64, 16 * KIB, 256 * KIB] {
        let choice = tuned.bcast_choice(root, m).as_str();
        println!("  M = {:>7} → {choice}", format_bytes(m));
    }
}
