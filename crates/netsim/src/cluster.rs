//! The simulated cluster: ground truth + irregularity profile + noise.

use cpm_cluster::{ClusterConfig, GroundTruth, MpiProfile, Topology};
use cpm_core::rank::Rank;

/// The longest single duration the kernel is asked to charge, seconds:
/// absurd as a time, yet small enough that neither `M·t`, `M/β` nor any
/// sum over a run leaves the finite floats its clock lives in. Trace
/// durations beyond it are invalid; parameters are clamped to it
/// ([`clamp`]).
pub const MAX_DURATION: f64 = 1e200;

/// The one clamp between a parameter and the kernel's clock, applied
/// wherever the kernel reads `C`, `t` or `L` ([`SimCluster::engine`],
/// [`SimCluster::latency`]). The clock is finite by construction
/// (`Time::from_secs` asserts it) and must never run backwards, so a
/// degenerate value — a negative `L`, a Hockney `α < 0`, a NaN — charges
/// zero, and an absurdly large one [`MAX_DURATION`], instead of
/// panicking. Values in range pass through bit for bit. (`f64::clamp`
/// would keep a NaN; `max` drops it.)
#[allow(clippy::manual_clamp)]
pub fn clamp(secs: f64) -> f64 {
    secs.max(0.0).min(MAX_DURATION)
}

/// Everything the kernel needs to simulate one cluster.
#[derive(Clone, Debug)]
pub struct SimCluster {
    /// Hidden physical parameters (the estimators must recover these).
    pub truth: GroundTruth,
    /// TCP/MPI irregularity profile.
    pub profile: MpiProfile,
    /// Relative standard deviation of multiplicative duration noise
    /// (0 disables noise).
    pub noise_rel: f64,
    /// Seed for escalation draws.
    pub seed: u64,
    /// Seed for the measurement-noise stream, independent of the
    /// escalation seed so experiments can pin one while varying the other.
    /// Defaults to `seed`; the kernel mixes both, so [`SimCluster::reseeded`]
    /// still varies noise across repetitions.
    pub noise_seed: u64,
    /// Network topology (the paper's platform is a single switch; the
    /// two-switch variant exists to demonstrate the model's boundary).
    pub topology: Topology,
    /// `Some(seed)` enables the schedule fuzzer: same-timestamp kernel
    /// events fire in a deterministic per-seed permutation instead of
    /// insertion order, shaking out order-dependent bugs. Time order is
    /// never affected. `None` (the default) keeps plain FIFO ties.
    pub fuzz_seed: Option<u64>,
}

impl SimCluster {
    /// Creates a simulated cluster.
    ///
    /// # Panics
    /// Panics when `noise_rel` is negative or not finite.
    pub fn new(truth: GroundTruth, profile: MpiProfile, noise_rel: f64, seed: u64) -> Self {
        assert!(
            noise_rel.is_finite() && noise_rel >= 0.0,
            "noise_rel must be a small non-negative number, got {noise_rel}"
        );
        SimCluster {
            truth,
            profile,
            noise_rel,
            seed,
            noise_seed: seed,
            topology: Topology::SingleSwitch,
            fuzz_seed: None,
        }
    }

    /// The same cluster with the schedule fuzzer enabled: same-timestamp
    /// kernel events fire in a deterministic per-`seed` permutation
    /// (an order-dependence detector; results of correct programs must
    /// not change).
    pub fn with_schedule_fuzz(self, seed: u64) -> Self {
        SimCluster {
            fuzz_seed: Some(seed),
            ..self
        }
    }

    /// The same cluster with a dedicated noise seed (reproducible noise
    /// streams independent of the escalation seed).
    pub fn with_noise_seed(self, noise_seed: u64) -> Self {
        SimCluster { noise_seed, ..self }
    }

    /// The same cluster rewired to a different topology.
    pub fn with_topology(self, topology: Topology) -> Self {
        match &topology {
            Topology::TwoSwitch { split, .. } => {
                assert!(
                    *split > 0 && *split < self.n(),
                    "two-switch split must leave nodes on both sides"
                );
            }
            Topology::Hierarchical { .. } => {
                let ranks = topology.ranks().unwrap_or(0);
                assert!(
                    ranks == self.n(),
                    "hierarchical level tree covers {ranks} ranks but the cluster has {}",
                    self.n()
                );
            }
            Topology::SingleSwitch => {}
        }
        SimCluster { topology, ..self }
    }

    /// Builds the simulated cluster described by a [`ClusterConfig`].
    pub fn from_config(cfg: &ClusterConfig) -> Self {
        Self::new(
            cfg.ground_truth(),
            cfg.profile.clone(),
            cfg.noise_rel,
            cfg.sim_seed,
        )
        .with_noise_seed(cfg.noise_seed.unwrap_or(cfg.sim_seed))
        .with_topology(cfg.topology.clone())
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.truth.n()
    }

    /// Rank `p`'s engine parameters `(C_p, t_p)` as the kernel charges
    /// them: through [`clamp`].
    pub fn engine(&self, p: usize) -> (f64, f64) {
        (clamp(self.truth.c[p]), clamp(self.truth.t[p]))
    }

    /// The latency `L_ij` the kernel charges: through [`clamp`].
    pub fn latency(&self, i: Rank, j: Rank) -> f64 {
        clamp(*self.truth.l.get(i, j))
    }

    /// The rate `β_ij` the kernel charges, clamped through the wire time it
    /// produces: none or a negative one charges zero (`β = ∞`), a vanishing
    /// one is capped at `1 / MAX_DURATION`.
    pub fn rate(&self, i: Rank, j: Rank) -> f64 {
        let beta = *self.truth.beta.get(i, j);
        if beta > 0.0 {
            beta.max(1.0 / MAX_DURATION)
        } else {
            f64::INFINITY
        }
    }

    /// The same cluster with a different stochastic seed — used to vary
    /// escalation/noise draws across repeated experiment runs while keeping
    /// the physical parameters fixed.
    pub fn reseeded(&self, seed: u64) -> Self {
        SimCluster {
            seed,
            ..self.clone()
        }
    }

    /// The same cluster with irregularities and noise disabled — the
    /// ablation control.
    pub fn idealized(&self) -> Self {
        SimCluster {
            truth: self.truth.clone(),
            profile: MpiProfile::ideal(),
            noise_rel: 0.0,
            seed: self.seed,
            noise_seed: self.noise_seed,
            topology: self.topology.clone(),
            fuzz_seed: self.fuzz_seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_cluster::ClusterSpec;

    fn truth() -> GroundTruth {
        GroundTruth::synthesize(&ClusterSpec::homogeneous(4), 9)
    }

    #[test]
    fn from_config_matches_manual_construction() {
        let cfg = ClusterConfig::paper_lam(9);
        let sim = SimCluster::from_config(&cfg);
        assert_eq!(sim.n(), 16);
        assert_eq!(sim.truth, cfg.ground_truth());
        assert_eq!(sim.profile, cfg.profile);
    }

    #[test]
    fn reseeding_keeps_physics() {
        let sim = SimCluster::new(truth(), MpiProfile::lam_7_1_3(), 0.01, 1);
        let re = sim.reseeded(99);
        assert_eq!(re.truth, sim.truth);
        assert_eq!(re.seed, 99);
    }

    #[test]
    fn noise_seed_defaults_to_seed_and_survives_reseeding() {
        let sim = SimCluster::new(truth(), MpiProfile::lam_7_1_3(), 0.01, 7);
        assert_eq!(sim.noise_seed, 7);
        let pinned = sim.with_noise_seed(1234);
        assert_eq!(pinned.noise_seed, 1234);
        // Reseeding varies escalation draws, not the configured noise seed.
        let re = pinned.reseeded(99);
        assert_eq!((re.seed, re.noise_seed), (99, 1234));
        assert_eq!(re.idealized().noise_seed, 1234);
    }

    #[test]
    fn idealized_strips_irregularities() {
        let sim = SimCluster::new(truth(), MpiProfile::lam_7_1_3(), 0.01, 1);
        let ideal = sim.idealized();
        assert_eq!(ideal.profile.name, "ideal");
        assert_eq!(ideal.noise_rel, 0.0);
        assert_eq!(ideal.truth, sim.truth);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_noise_rejected() {
        let _ = SimCluster::new(truth(), MpiProfile::ideal(), -0.1, 1);
    }

    #[test]
    fn hierarchical_config_builds_and_checks_size() {
        let cfg = ClusterConfig::hierarchical(2, 2, 7);
        let sim = SimCluster::from_config(&cfg);
        assert_eq!(sim.n(), 4);
        assert_eq!(sim.topology.ranks(), Some(4));
    }

    #[test]
    #[should_panic(expected = "hierarchical level tree")]
    fn hierarchical_size_mismatch_rejected() {
        let sim = SimCluster::new(truth(), MpiProfile::ideal(), 0.0, 1);
        let _ = sim.with_topology(Topology::hierarchical(8, 4)); // 32 ≠ 4
    }
}
