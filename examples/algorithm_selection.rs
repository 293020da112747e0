//! Model-driven algorithm selection (the application behind the paper's
//! Fig. 6): pick linear vs binomial scatter per message size with the LMO
//! model, and verify the decision against the simulated observations.
//!
//! ```sh
//! cargo run --release --example algorithm_selection
//! ```

use cpm::cluster::ClusterConfig;
use cpm::collectives::measure;
use cpm::collectives::select::predict_scatter_lmo;
use cpm::collectives::Algorithm;
use cpm::core::units::{format_bytes, KIB};
use cpm::estimate::lmo::estimate_lmo_full;
use cpm::estimate::EstimateConfig;
use cpm::netsim::SimCluster;

fn main() {
    let config = ClusterConfig::paper_lam(5);
    let sim = SimCluster::from_config(&config);
    println!("estimating the LMO model …");
    let lmo = estimate_lmo_full(&sim, &EstimateConfig::with_seed(9))
        .expect("estimation")
        .model;
    let root = cpm::core::Rank(0);

    println!(
        "\n{:>10} {:>12} {:>12} {:>10} {:>10}",
        "M", "obs linear", "obs binomial", "LMO picks", "correct?"
    );
    let mut correct = 0;
    let sizes: Vec<u64> = [1, 2, 8, 32, 96, 160].iter().map(|k| k * KIB).collect();
    for &m in &sizes {
        let lin = measure::linear_scatter_once(&sim, root, m);
        let bin = measure::binomial_scatter_once(&sim, root, m);
        let choice = predict_scatter_lmo(&lmo, root, m).choice();
        let truth = if lin <= bin {
            Algorithm::Linear
        } else {
            Algorithm::Binomial
        };
        let ok = choice == truth;
        correct += ok as usize;
        println!(
            "{:>10} {:>10.2}ms {:>10.2}ms {:>10} {:>10}",
            format_bytes(m),
            lin * 1e3,
            bin * 1e3,
            choice.as_str(),
            if ok { "yes" } else { "NO" }
        );
    }
    println!("\ncorrect selections: {correct}/{}", sizes.len());
    println!("(a Hockney-based switch would pick binomial everywhere above a");
    println!(" few KB — the misprediction of the paper's Fig. 6)");
}
