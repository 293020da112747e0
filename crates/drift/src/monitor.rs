//! Per-parameter residual tracking and drift detection.
//!
//! Every observation is reduced to a *relative residual*
//! `r = observed/predicted − 1` against the currently served extended LMO
//! model, then standardized by the expected relative measurement noise
//! `σ_rel` and fed to the per-parameter track: a running [`Summary`], an
//! [`Ewma`] (for staleness scoring and event classification) and a
//! two-sided [`Cusum`] (for alarming at a configured in-control ARL).
//!
//! Tracks are scoped the way the LMO model factorizes:
//!
//! - one track per **link** `(i, j)` fed by point-to-point observations —
//!   a β/L change shows up here;
//! - **processor** drift (`C_i`, `t_i`) is not tracked separately: it
//!   perturbs *every* link incident to `i`, so when a link alarm fires the
//!   monitor inspects the EWMAs of the sibling links and escalates the
//!   event to [`DriftScope::Processor`] when a majority of them moved the
//!   same way;
//! - one track for the **threshold region** fed by linear-gather
//!   observations against the escalation-aware expected time — an
//!   `M1`/`M2` or escalation-statistics change shows up here.
//!
//! The observation path is allocation-free after construction: tracks are
//! pre-allocated per link and updated in place.

use cpm_core::rank::{Pair, Rank};
use cpm_models::LmoExtended;
use cpm_stats::{Cusum, CusumAlarm, CusumConfig, Ewma, Summary};

use crate::observe::{ObsKind, Observation};

/// Detector configuration.
#[derive(Clone, Copy, Debug)]
pub struct DriftConfig {
    /// EWMA smoothing factor for the residual stream.
    pub ewma_alpha: f64,
    /// CUSUM tuning (reference value `k`, decision interval `h`) applied
    /// to the standardized residuals.
    pub cusum: CusumConfig,
    /// Expected relative standard deviation of one observation under the
    /// current model — the residual standardization scale.
    pub sigma_rel: f64,
    /// Minimum samples on a track before its alarms are believed.
    pub min_samples: usize,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            ewma_alpha: 0.25,
            cusum: CusumConfig::standard(),
            sigma_rel: 0.01,
            min_samples: 8,
        }
    }
}

/// Which parameter group an event implicates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriftScope {
    /// The link parameters `β_ij` / `L_ij` of one pair.
    Link(Pair),
    /// The processor parameters `C_i` / `t_i` of one node.
    Processor(Rank),
    /// The empirical gather parameters (`M1`, `M2`, escalation stats).
    ThresholdRegion,
}

/// A detected drift.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DriftEvent {
    pub scope: DriftScope,
    /// `Up` — observed times grew past the model; `Down` — shrank.
    pub direction: CusumAlarm,
    /// Mean relative residual accumulated on the alarming track.
    pub residual_mean: f64,
    /// Samples on the alarming track at alarm time.
    pub samples: usize,
}

impl DriftEvent {
    /// A compact human/lineage description, e.g. `link(0,3) up`.
    pub fn describe(&self) -> String {
        let dir = match self.direction {
            CusumAlarm::Up => "up",
            CusumAlarm::Down => "down",
        };
        match self.scope {
            DriftScope::Link(p) => format!("link({},{}) {dir}", p.a.idx(), p.b.idx()),
            DriftScope::Processor(r) => format!("processor({}) {dir}", r.idx()),
            DriftScope::ThresholdRegion => format!("threshold-region {dir}"),
        }
    }
}

/// One parameter track.
#[derive(Clone, Debug)]
struct Track {
    residuals: Summary,
    ewma: Ewma,
    cusum: Cusum,
}

impl Track {
    fn new(cfg: &DriftConfig) -> Self {
        Track {
            residuals: Summary::new(),
            ewma: Ewma::new(cfg.ewma_alpha),
            cusum: Cusum::new(cfg.cusum),
        }
    }

    /// Pushes one relative residual; returns a raw alarm if the CUSUM
    /// crossed its decision interval on this observation.
    fn push(&mut self, r: f64, cfg: &DriftConfig) -> Option<CusumAlarm> {
        self.residuals.push(r);
        self.ewma.push(r);
        let alarm = self.cusum.push(r / cfg.sigma_rel);
        match alarm {
            Some(_) if self.residuals.count() < cfg.min_samples => {
                // Too little evidence to act on; keep accumulating.
                self.cusum.reset();
                None
            }
            other => other,
        }
    }

    /// Normalized staleness in `[0, ∞)`; ≥ 1 means "drifted".
    fn score(&self, cfg: &DriftConfig) -> f64 {
        let cusum_score = self.cusum.statistic() / cfg.cusum.h;
        let ewma_sd = cfg.sigma_rel * self.ewma.stationary_sd();
        let ewma_score = self.ewma.value().map_or(0.0, |v| v.abs() / (4.0 * ewma_sd));
        let base = cusum_score.max(ewma_score);
        if self.cusum.alarmed() {
            base.max(1.0)
        } else {
            base
        }
    }

    /// Did the EWMA move at least two stationary deviations in `dir`?
    fn elevated(&self, dir: CusumAlarm, cfg: &DriftConfig) -> bool {
        let sd = cfg.sigma_rel * self.ewma.stationary_sd();
        match (self.ewma.value(), dir) {
            (Some(v), CusumAlarm::Up) => v > 2.0 * sd,
            (Some(v), CusumAlarm::Down) => v < -2.0 * sd,
            (None, _) => false,
        }
    }
}

/// Staleness of one track.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoreEntry {
    pub score: f64,
    pub mean_residual: f64,
    pub samples: usize,
}

/// A point-in-time staleness report over all tracks.
#[derive(Clone, Debug)]
pub struct StalenessReport {
    /// The worst track score; ≥ 1 means at least one parameter group has
    /// drifted past the detection threshold.
    pub overall: f64,
    /// Total observations ingested.
    pub observations: u64,
    /// Per-link scores (upper-triangle order).
    pub links: Vec<(Pair, ScoreEntry)>,
    /// The threshold-region (gather) track.
    pub threshold: ScoreEntry,
}

/// The online drift detector for one served parameter set.
pub struct DriftMonitor {
    model: LmoExtended,
    cfg: DriftConfig,
    links: Vec<Track>,
    threshold: Track,
    n: usize,
    observations: u64,
}

/// Upper-triangle index of link `(i, j)`, `i < j`, over `n` nodes.
fn link_idx(n: usize, i: usize, j: usize) -> usize {
    debug_assert!(i < j && j < n);
    i * (2 * n - i - 1) / 2 + (j - i - 1)
}

impl DriftMonitor {
    /// Builds a monitor against the given served model.
    pub fn new(model: &LmoExtended, cfg: DriftConfig) -> Self {
        let n = model.c.len();
        DriftMonitor {
            model: model.clone(),
            links: vec![Track::new(&cfg); n * (n - 1) / 2],
            threshold: Track::new(&cfg),
            n,
            observations: 0,
            cfg,
        }
    }

    /// The model observations are compared against.
    pub fn model(&self) -> &LmoExtended {
        &self.model
    }

    /// Total observations ingested.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Ingests one observation; returns an event when a track's CUSUM
    /// crosses its decision interval. Allocation-free except on the (rare)
    /// alarm path.
    pub fn observe(&mut self, obs: &Observation) -> Option<DriftEvent> {
        self.observations += 1;
        match obs.kind {
            ObsKind::P2p { src, dst, bytes } => {
                let pred = self.model.time(src, dst, bytes);
                if !(pred.is_finite() && pred > 0.0) {
                    return None;
                }
                let r = obs.seconds / pred - 1.0;
                if !r.is_finite() {
                    return None;
                }
                let (i, j) = (src.idx().min(dst.idx()), src.idx().max(dst.idx()));
                let idx = link_idx(self.n, i, j);
                let alarm = self.links[idx].push(r, &self.cfg)?;
                Some(self.classify(i, j, alarm))
            }
            ObsKind::Gather { root, bytes } => {
                let pred = self.model.linear_gather(root, bytes).expected;
                if !(pred.is_finite() && pred > 0.0) {
                    return None;
                }
                let r = obs.seconds / pred - 1.0;
                if !r.is_finite() {
                    return None;
                }
                let alarm = self.threshold.push(r, &self.cfg)?;
                Some(DriftEvent {
                    scope: DriftScope::ThresholdRegion,
                    direction: alarm,
                    residual_mean: self.threshold.residuals.mean(),
                    samples: self.threshold.residuals.count(),
                })
            }
        }
    }

    /// Classifies a link alarm: if a majority of the *other* links incident
    /// to one endpoint moved the same way, the processor parameters of that
    /// endpoint are the likelier culprit (a `C`/`t` change perturbs every
    /// incident link); otherwise the link itself drifted.
    fn classify(&self, i: usize, j: usize, alarm: CusumAlarm) -> DriftEvent {
        let track = &self.links[link_idx(self.n, i, j)];
        let (ei, ej) = (
            self.elevated_siblings(i, j, alarm),
            self.elevated_siblings(j, i, alarm),
        );
        let majority = (self.n - 2).div_ceil(2).max(1);
        let scope = if ei >= majority && ei >= ej {
            DriftScope::Processor(Rank::from(i))
        } else if ej >= majority {
            DriftScope::Processor(Rank::from(j))
        } else {
            DriftScope::Link(Pair::new(Rank::from(i), Rank::from(j)))
        };
        DriftEvent {
            scope,
            direction: alarm,
            residual_mean: track.residuals.mean(),
            samples: track.residuals.count(),
        }
    }

    /// Counts links incident to `node` (excluding `(node, other)`) whose
    /// EWMA is elevated in direction `dir`.
    fn elevated_siblings(&self, node: usize, other: usize, dir: CusumAlarm) -> usize {
        (0..self.n)
            .filter(|&x| x != node && x != other)
            .filter(|&x| {
                let (a, b) = (node.min(x), node.max(x));
                self.links[link_idx(self.n, a, b)].elevated(dir, &self.cfg)
            })
            .count()
    }

    /// Snapshot of every track's staleness.
    pub fn staleness(&self) -> StalenessReport {
        let entry = |t: &Track| ScoreEntry {
            score: t.score(&self.cfg),
            mean_residual: if t.residuals.count() == 0 {
                0.0
            } else {
                t.residuals.mean()
            },
            samples: t.residuals.count(),
        };
        let mut links = Vec::with_capacity(self.links.len());
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                let t = &self.links[link_idx(self.n, i, j)];
                links.push((Pair::new(Rank::from(i), Rank::from(j)), entry(t)));
            }
        }
        let threshold = entry(&self.threshold);
        let overall = links
            .iter()
            .map(|(_, e)| e.score)
            .fold(threshold.score, f64::max);
        StalenessReport {
            overall,
            observations: self.observations,
            links,
            threshold,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_core::matrix::SymMatrix;
    use cpm_models::GatherEmpirics;

    fn model(n: usize) -> LmoExtended {
        LmoExtended::new(
            vec![40e-6; n],
            vec![7e-9; n],
            SymMatrix::filled(n, 42e-6),
            SymMatrix::filled(n, 90e6),
            GatherEmpirics::none(),
        )
    }

    fn p2p_obs(model: &LmoExtended, i: u32, j: u32, m: u64, factor: f64) -> Observation {
        let t = model.time(Rank(i), Rank(j), m) * factor;
        Observation::p2p(Rank(i), Rank(j), m, t)
    }

    #[test]
    fn stationary_observations_raise_nothing() {
        let md = model(4);
        let mut mon = DriftMonitor::new(&md, DriftConfig::default());
        for rep in 0..200 {
            for i in 0..4u32 {
                for j in (i + 1)..4u32 {
                    // ±0.5% deterministic wobble, well inside σ_rel.
                    let f = 1.0 + 0.005 * if rep % 2 == 0 { 1.0 } else { -1.0 };
                    assert!(mon.observe(&p2p_obs(&md, i, j, 32768, f)).is_none());
                }
            }
        }
        assert!(mon.staleness().overall < 1.0);
        assert_eq!(mon.observations(), 200 * 6);
    }

    #[test]
    fn single_link_slowdown_is_scoped_to_that_link() {
        let md = model(5);
        let mut mon = DriftMonitor::new(&md, DriftConfig::default());
        let mut event = None;
        for _ in 0..100 {
            for i in 0..5u32 {
                for j in (i + 1)..5u32 {
                    // Link (1,3) runs 10% slow; everything else on-model.
                    let f = if (i, j) == (1, 3) { 1.10 } else { 1.0 };
                    if let Some(e) = mon.observe(&p2p_obs(&md, i, j, 32768, f)) {
                        event.get_or_insert(e);
                    }
                }
            }
        }
        let e = event.expect("a 10σ shift must alarm");
        assert_eq!(e.scope, DriftScope::Link(Pair::new(Rank(1), Rank(3))));
        assert_eq!(e.direction, CusumAlarm::Up);
        assert!(e.residual_mean > 0.05, "mean residual {}", e.residual_mean);
        assert!(mon.staleness().overall >= 1.0);
    }

    #[test]
    fn processor_slowdown_is_escalated_to_the_node() {
        let md = model(5);
        let mut mon = DriftMonitor::new(&md, DriftConfig::default());
        let mut event = None;
        for _ in 0..100 {
            for i in 0..5u32 {
                for j in (i + 1)..5u32 {
                    // Everything touching node 2 runs slow.
                    let f = if i == 2 || j == 2 { 1.10 } else { 1.0 };
                    if let Some(e) = mon.observe(&p2p_obs(&md, i, j, 32768, f)) {
                        event.get_or_insert(e);
                    }
                }
            }
        }
        let e = event.expect("alarm expected");
        assert_eq!(e.scope, DriftScope::Processor(Rank(2)));
    }

    #[test]
    fn speedup_alarms_downward() {
        let md = model(4);
        let mut mon = DriftMonitor::new(&md, DriftConfig::default());
        let mut dir = None;
        for _ in 0..100 {
            if let Some(e) = mon.observe(&p2p_obs(&md, 0, 1, 16384, 0.90)) {
                dir.get_or_insert(e.direction);
            }
        }
        assert_eq!(dir, Some(CusumAlarm::Down));
    }

    #[test]
    fn min_samples_suppresses_early_alarms() {
        let md = model(4);
        let cfg = DriftConfig {
            min_samples: 50,
            ..DriftConfig::default()
        };
        let mut mon = DriftMonitor::new(&md, cfg);
        // A violent shift that would alarm within a handful of samples.
        for k in 0..60 {
            let got = mon.observe(&p2p_obs(&md, 0, 1, 16384, 2.0));
            if k + 1 < 50 {
                assert!(got.is_none(), "alarm before min_samples at {k}");
            }
        }
    }

    #[test]
    fn gather_drift_hits_the_threshold_track() {
        let md = model(4);
        let mut mon = DriftMonitor::new(&md, DriftConfig::default());
        let pred = md.linear_gather(Rank(0), 8192).expected;
        let mut event = None;
        for _ in 0..60 {
            let o = Observation::gather(Rank(0), 8192, pred * 1.2);
            if let Some(e) = mon.observe(&o) {
                event.get_or_insert(e);
            }
        }
        assert_eq!(event.map(|e| e.scope), Some(DriftScope::ThresholdRegion));
    }

    #[test]
    fn describe_is_compact() {
        let e = DriftEvent {
            scope: DriftScope::Link(Pair::new(Rank(0), Rank(3))),
            direction: CusumAlarm::Up,
            residual_mean: 0.1,
            samples: 12,
        };
        assert_eq!(e.describe(), "link(0,3) up");
    }
}
