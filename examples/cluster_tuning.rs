//! Working with custom clusters: define a skewed cluster, round-trip its
//! configuration through JSON, and use the heterogeneous model to optimize
//! the mapping of processors onto binomial-tree positions (the Hatta-style
//! application from the paper's introduction).
//!
//! ```sh
//! cargo run --release --example cluster_tuning
//! ```

use cpm::cluster::{ClusterConfig, ClusterSpec, GroundTruth, MpiProfile, NodeTypeSpec};
use cpm::collectives::mapping::{evaluate_mapping, optimize_mapping};
use cpm::collectives::measure;
use cpm::core::units::KIB;
use cpm::core::Rank;
use cpm::estimate::{estimate_lmo, EstimateConfig};
use cpm::netsim::SimCluster;

fn main() {
    // A custom 8-node cluster: seven fast Xeons and one old Celeron.
    let spec = ClusterSpec {
        name: "mixed-8".into(),
        types: vec![
            NodeTypeSpec {
                model: "Fast 1U".into(),
                os: "Linux".into(),
                processor: "3.4 Xeon".into(),
                ghz: 3.4,
                fsb_mhz: 800,
                l2_kb: 1024,
                count: 7,
            },
            NodeTypeSpec {
                model: "Old desktop".into(),
                os: "Linux".into(),
                processor: "1.2 Celeron".into(),
                ghz: 1.2,
                fsb_mhz: 400,
                l2_kb: 128,
                count: 1,
            },
        ],
    };

    // Configurations serialize to JSON for reproducible runs.
    let config = ClusterConfig {
        spec,
        truth: cpm::cluster::config::TruthSource::Seed(23),
        profile: MpiProfile::ideal(),
        noise_rel: 0.0,
        sim_seed: 23,
        noise_seed: None,
        topology: cpm::cluster::Topology::SingleSwitch,
    };
    let json = config.to_json();
    let reloaded = ClusterConfig::from_json(&json).expect("round trip");
    assert_eq!(reloaded, config);
    println!("config round-tripped through {} bytes of JSON", json.len());

    let sim = SimCluster::from_config(&reloaded);
    let truth: &GroundTruth = &sim.truth;
    println!(
        "slowest node is rank 7: C = {:.0}µs, t = {:.1}ns/B (fast nodes ≈ {:.0}µs, {:.1}ns/B)",
        truth.c[7] * 1e6,
        truth.t[7] * 1e9,
        truth.c[0] * 1e6,
        truth.t[0] * 1e9
    );

    // Estimate the LMO model, then optimize the binomial-tree mapping.
    println!("estimating the LMO model …");
    let lmo = estimate_lmo(&sim, &EstimateConfig::with_seed(4))
        .expect("est")
        .model;
    let m = 16 * KIB;
    let root = Rank(0);

    let default_map = evaluate_mapping(&lmo, root, (0..8usize).map(Rank::from).collect(), m);
    let best = optimize_mapping(&lmo, root, m, 8);
    println!(
        "binomial scatter predicted: default mapping {:.2} ms → optimized {:.2} ms",
        default_map.predicted * 1e3,
        best.predicted * 1e3
    );
    println!(
        "optimized tree makes the slow node a leaf: children of rank 7 = {:?}",
        best.tree.children_of(Rank(7))
    );

    // Verify in the simulator: run the binomial scatter with both trees.
    let observe = |tree: cpm::core::BinomialTree| {
        measure::collective_times(&sim, 3, 99, |e| {
            cpm::collectives::binomial_scatter(&tree, m, e)
        })
        .expect("sim")[0]
    };
    let obs_default = observe(default_map.tree.clone());
    let obs_best = observe(best.tree.clone());
    println!(
        "observed:                   default mapping {:.2} ms → optimized {:.2} ms",
        obs_default * 1e3,
        obs_best * 1e3
    );
    assert!(
        obs_best <= obs_default * 1.02,
        "optimization must not regress"
    );
}
