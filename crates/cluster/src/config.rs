//! Complete simulation configuration with serde round-trip.
//!
//! A [`ClusterConfig`] is everything needed to reproduce a simulated
//! cluster bit-for-bit: the hardware spec, the synthesis seed (or explicit
//! ground truth), the MPI irregularity profile and the measurement-noise
//! level. Experiment binaries read/write these as JSON so runs are
//! reproducible and shareable.

use serde::{Deserialize, Serialize};

use crate::profile::MpiProfile;
use crate::spec::ClusterSpec;
use crate::topology::Topology;
use crate::truth::GroundTruth;

/// Where the ground-truth parameters come from.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TruthSource {
    /// Synthesize from the spec with this seed.
    Seed(u64),
    /// Use these explicit parameters.
    Explicit(GroundTruth),
}

/// A complete, serializable simulation configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Hardware description of the cluster's nodes.
    pub spec: ClusterSpec,
    /// Where the ground-truth communication parameters come from.
    pub truth: TruthSource,
    /// MPI irregularity profile the simulator applies.
    pub profile: MpiProfile,
    /// Relative standard deviation of multiplicative measurement noise
    /// applied to simulated durations (0 disables noise).
    pub noise_rel: f64,
    /// Seed for the simulator's stochastic elements (escalations, noise).
    pub sim_seed: u64,
    /// Dedicated seed for the measurement-noise stream. `None` (the
    /// default) derives it from `sim_seed`; setting it pins the noise
    /// ensemble independently of the escalation draws, which keeps drift
    /// experiments reproducible.
    #[serde(default)]
    pub noise_seed: Option<u64>,
    /// Network topology (defaults to the paper's single switch).
    #[serde(default)]
    pub topology: Topology,
}

impl ClusterConfig {
    /// The paper's evaluation platform: the 16-node heterogeneous cluster
    /// under LAM 7.1.3, with 1 % measurement noise.
    pub fn paper_lam(seed: u64) -> Self {
        ClusterConfig {
            spec: ClusterSpec::paper_cluster(),
            truth: TruthSource::Seed(seed),
            profile: MpiProfile::lam_7_1_3(),
            noise_rel: 0.01,
            sim_seed: seed,
            noise_seed: None,
            topology: Topology::SingleSwitch,
        }
    }

    /// The same cluster under MPICH 1.2.7.
    pub fn paper_mpich(seed: u64) -> Self {
        ClusterConfig {
            profile: MpiProfile::mpich_1_2_7(),
            ..Self::paper_lam(seed)
        }
    }

    /// An idealized run without irregularities or noise, for ablations.
    pub fn ideal(spec: ClusterSpec, seed: u64) -> Self {
        ClusterConfig {
            spec,
            truth: TruthSource::Seed(seed),
            profile: MpiProfile::ideal(),
            noise_rel: 0.0,
            sim_seed: seed,
            noise_seed: None,
            topology: Topology::SingleSwitch,
        }
    }

    /// A hierarchical cluster: `nodes` machines of `cores` ranks each,
    /// homogeneous hardware, ideal MPI profile, no noise. The link
    /// parameters follow [`Topology::hierarchical`]'s two-level node/switch
    /// tree.
    pub fn hierarchical(nodes: usize, cores: usize, seed: u64) -> Self {
        ClusterConfig {
            topology: Topology::hierarchical(cores, nodes),
            ..Self::ideal(ClusterSpec::homogeneous(nodes * cores), seed)
        }
    }

    /// Resolves the ground truth (synthesizing it when seeded). Seeded
    /// synthesis is topology-aware: a hierarchical topology lays its
    /// per-level link parameters over the spec-derived node parameters.
    pub fn ground_truth(&self) -> GroundTruth {
        match &self.truth {
            TruthSource::Seed(s) => {
                GroundTruth::synthesize_hierarchical(&self.spec, *s, &self.topology)
            }
            TruthSource::Explicit(g) => g.clone(),
        }
    }

    /// Checks what building the simulator would otherwise assert, so a
    /// config from a file or a request is refused instead of panicking: a
    /// finite, non-negative noise level; a two-switch split that leaves
    /// nodes on both sides; a hierarchical level tree that is non-empty and
    /// covers exactly the cluster's ranks.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.noise_rel.is_finite() && self.noise_rel >= 0.0) {
            return Err(format!(
                "noise_rel must be finite and non-negative, got {}",
                self.noise_rel
            ));
        }
        let n = match &self.truth {
            TruthSource::Seed(_) => self.spec.n_nodes(),
            TruthSource::Explicit(g) => g.n(),
        };
        match &self.topology {
            Topology::SingleSwitch => Ok(()),
            Topology::TwoSwitch { split, .. } if *split == 0 || *split >= n => Err(format!(
                "two-switch split {split} must leave nodes on both sides of {n}"
            )),
            Topology::TwoSwitch { .. } => Ok(()),
            Topology::Hierarchical { levels } if levels.is_empty() => {
                Err("a hierarchical topology needs at least one level".into())
            }
            Topology::Hierarchical { levels } => {
                let covered = levels
                    .iter()
                    .try_fold(1usize, |k, l| k.checked_mul(l.arity));
                match covered {
                    Some(ranks) if ranks == n => Ok(()),
                    Some(ranks) => Err(format!(
                        "hierarchical level tree covers {ranks} ranks but the cluster has {n}"
                    )),
                    None => Err("hierarchical level tree covers more ranks than exist".into()),
                }
            }
        }
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("config serializes")
    }

    /// Parses from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip_seeded() {
        let cfg = ClusterConfig::paper_lam(11);
        let json = cfg.to_json();
        let back = ClusterConfig::from_json(&json).unwrap();
        assert_eq!(cfg, back);
        assert_eq!(back.ground_truth(), cfg.ground_truth());
    }

    #[test]
    fn json_round_trip_explicit_truth() {
        let mut cfg = ClusterConfig::paper_mpich(3);
        cfg.truth = TruthSource::Explicit(cfg.ground_truth());
        let back = ClusterConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn presets_differ_only_as_documented() {
        let lam = ClusterConfig::paper_lam(5);
        let mpich = ClusterConfig::paper_mpich(5);
        assert_eq!(lam.spec, mpich.spec);
        assert_eq!(lam.ground_truth(), mpich.ground_truth());
        assert_ne!(lam.profile, mpich.profile);

        let ideal = ClusterConfig::ideal(ClusterSpec::homogeneous(4), 5);
        assert_eq!(ideal.noise_rel, 0.0);
        assert_eq!(ideal.profile.name, "ideal");
    }

    #[test]
    fn validate_refuses_what_the_simulator_would_assert() {
        assert_eq!(ClusterConfig::paper_lam(1).validate(), Ok(()));
        assert_eq!(ClusterConfig::hierarchical(2, 3, 1).validate(), Ok(()));
        let six = ClusterConfig {
            spec: ClusterSpec::homogeneous(6),
            ..ClusterConfig::hierarchical(2, 2, 1)
        };
        let err = six.validate().unwrap_err();
        assert!(
            err.contains("covers 4 ranks but the cluster has 6"),
            "{err}"
        );
        let empty = ClusterConfig {
            topology: Topology::Hierarchical { levels: Vec::new() },
            ..ClusterConfig::ideal(ClusterSpec::homogeneous(4), 1)
        };
        assert!(empty.validate().unwrap_err().contains("at least one level"));
        for split in [0, 4, 9] {
            let two = ClusterConfig {
                topology: Topology::two_switch(split, 1e7),
                ..ClusterConfig::ideal(ClusterSpec::homogeneous(4), 1)
            };
            assert!(
                two.validate().unwrap_err().contains("both sides"),
                "{split}"
            );
        }
        let noisy = ClusterConfig {
            noise_rel: -0.5,
            ..ClusterConfig::paper_lam(1)
        };
        assert!(noisy.validate().unwrap_err().contains("noise_rel"));
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(ClusterConfig::from_json("{\"nope\": 1}").is_err());
    }

    #[test]
    fn hierarchical_preset_round_trips_and_resolves() {
        let cfg = ClusterConfig::hierarchical(4, 8, 2009);
        assert_eq!(cfg.spec.n_nodes(), 32);
        assert_eq!(cfg.topology.ranks(), Some(32));
        let back = ClusterConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(cfg, back);
        // Topology-aware synthesis: intra-node links are faster than
        // inter-node links.
        let g = cfg.ground_truth();
        use cpm_core::rank::Rank;
        assert!(g.beta.get(Rank(0), Rank(1)) > g.beta.get(Rank(0), Rank(8)));
        assert!(g.l.get(Rank(0), Rank(1)) < g.l.get(Rank(0), Rank(8)));
    }
}
