//! Visualizing the resource model: trace a linear and a binomial scatter
//! and render their per-rank timelines (`T` = tx engine, `=` = wire in,
//! `R` = rx engine). The linear scatter shows the root's serialized send
//! slots with overlapping wires — the structure of LMO eq. (4); the
//! binomial one shows the log-depth store-and-forward cascade.
//!
//! ```sh
//! cargo run --release --example timeline
//! ```

use cpm::cluster::{ClusterSpec, GroundTruth, MpiProfile};
use cpm::collectives::measure::programs;
use cpm::collectives::{binomial_scatter, linear_scatter};
use cpm::core::units::KIB;
use cpm::core::{BinomialTree, Rank};
use cpm::netsim::{render_timeline, run_script_traced, SimCluster};

fn main() {
    let n = 8;
    let truth = GroundTruth::synthesize(&ClusterSpec::homogeneous(n), 12);
    let sim = SimCluster::new(truth, MpiProfile::ideal(), 0.0, 12);
    let m = 32 * KIB;

    let traced = |programs: Vec<Vec<_>>| {
        let out = run_script_traced(&sim, &programs).expect("simulation runs");
        out.trace.expect("a traced run records its trace")
    };
    let trace = traced(programs(n, |e| linear_scatter(n, Rank(0), m, e)));
    println!(
        "linear scatter of {} over {n} ranks:",
        cpm::core::units::format_bytes(m)
    );
    print!("{}", render_timeline(&trace, n, 72));

    let tree = BinomialTree::new(n, Rank(0));
    let trace = traced(programs(n, |e| binomial_scatter(&tree, m, e)));
    println!("\nbinomial scatter (same payload):");
    print!("{}", render_timeline(&trace, n, 72));

    println!("\nlegend: T = tx engine busy, = = wire into the rank, R = rx engine busy,");
    println!("        * = several at once. Note the root's serialized T-run in the");
    println!("linear case (eq. 4's serial term) vs the cascading half-size");
    println!("forwards in the binomial case.");
}
