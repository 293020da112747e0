//! End-to-end pipeline tests: configuration → simulation → estimation →
//! prediction → comparison against observation, across crates.

use cpm::cluster::{ClusterConfig, ClusterSpec, GroundTruth, MpiProfile};
use cpm::collectives::measure;
use cpm::core::units::KIB;
use cpm::core::Rank;
use cpm::estimate::{
    estimate_hockney_het, estimate_lmo, estimate_loggp, estimate_plogp, EstimateConfig,
};
use cpm::netsim::SimCluster;

fn small_cluster(noise: f64) -> SimCluster {
    let truth = GroundTruth::synthesize(&ClusterSpec::homogeneous(6), 5);
    SimCluster::new(truth, MpiProfile::ideal(), noise, 5)
}

fn cfg() -> EstimateConfig {
    EstimateConfig {
        reps: 3,
        ..EstimateConfig::with_seed(77)
    }
}

#[test]
fn every_estimator_runs_on_the_same_cluster() {
    let sim = small_cluster(0.0);
    let c = cfg();
    assert!(estimate_hockney_het(&sim, &c).is_ok());
    assert!(estimate_loggp(&sim, &c).is_ok());
    assert!(estimate_plogp(&sim, &c).is_ok());
    assert!(estimate_lmo(&sim, &c).is_ok());
}

#[test]
fn lmo_scatter_prediction_tracks_observation() {
    let sim = small_cluster(0.0);
    let lmo = estimate_lmo(&sim, &cfg()).unwrap().model;
    for m in [2 * KIB, 16 * KIB, 48 * KIB] {
        let predicted = lmo.linear_scatter(Rank(0), m);
        let observed = measure::linear_scatter_once(&sim, Rank(0), m);
        let rel = (predicted - observed).abs() / observed;
        assert!(
            rel < 0.10,
            "m={m}: predicted {predicted}, observed {observed}"
        );
    }
}

#[test]
fn lmo_beats_hockney_on_linear_scatter() {
    // The paper's core claim, end to end: estimate both models from the
    // same cluster, compare their scatter predictions against observation.
    let sim = small_cluster(0.0);
    let lmo = estimate_lmo(&sim, &cfg()).unwrap().model;
    let hockney = estimate_hockney_het(&sim, &cfg()).unwrap().model;
    let mut lmo_err = 0.0;
    let mut hockney_err = 0.0;
    for m in [4 * KIB, 16 * KIB, 64 * KIB] {
        let observed = measure::linear_scatter_once(&sim, Rank(0), m);
        lmo_err += (lmo.linear_scatter(Rank(0), m) - observed).abs() / observed;
        hockney_err += (hockney.linear_serial(Rank(0), m) - observed).abs() / observed;
    }
    assert!(
        lmo_err * 3.0 < hockney_err,
        "LMO total err {lmo_err} vs Hockney {hockney_err}"
    );
}

#[test]
fn estimation_survives_measurement_noise() {
    let sim = small_cluster(0.02);
    let c = EstimateConfig { reps: 8, ..cfg() };
    let lmo = estimate_lmo(&sim, &c).unwrap().model;
    // The noiseless twin cluster provides the reference.
    let clean = small_cluster(0.0);
    for m in [8 * KIB, 32 * KIB] {
        let predicted = lmo.linear_scatter(Rank(0), m);
        let observed = measure::linear_scatter_once(&clean, Rank(0), m);
        let rel = (predicted - observed).abs() / observed;
        assert!(
            rel < 0.15,
            "m={m}: predicted {predicted}, observed {observed}"
        );
    }
}

#[test]
fn config_file_reproduces_estimates() {
    // Serialize a config, reload it elsewhere, and verify the whole
    // estimation pipeline produces identical parameters.
    let config = ClusterConfig::ideal(ClusterSpec::homogeneous(4), 13);
    let json = config.to_json();
    let reloaded = ClusterConfig::from_json(&json).unwrap();

    let a = estimate_lmo(&SimCluster::from_config(&config), &cfg())
        .unwrap()
        .model;
    let b = estimate_lmo(&SimCluster::from_config(&reloaded), &cfg())
        .unwrap()
        .model;
    assert_eq!(a, b);
}

#[test]
fn full_paper_cluster_pipeline_smoke() {
    // The 16-node cluster with every irregularity on: estimation completes
    // and the scatter prediction lands within 35% everywhere (the leap and
    // escalations bound the achievable accuracy).
    let config = ClusterConfig::paper_lam(3);
    let sim = SimCluster::from_config(&config);
    let lmo = estimate_lmo(&sim, &EstimateConfig::with_seed(31))
        .unwrap()
        .model;
    for m in [4 * KIB, 32 * KIB, 128 * KIB] {
        let predicted = lmo.linear_scatter(Rank(0), m);
        let observed = measure::linear_scatter_once(&sim, Rank(0), m);
        let rel = (predicted - observed).abs() / observed;
        assert!(
            rel < 0.35,
            "m={m}: predicted {predicted}, observed {observed}"
        );
    }
}

#[test]
fn tuned_collectives_from_estimated_model_never_lose_badly() {
    // The downstream story end to end: estimate, build the dispatcher,
    // verify its picks beat (or tie) both fixed algorithms.
    use cpm::collectives::measure::collective_times;
    use cpm::collectives::TunedCollectives;
    let sim = small_cluster(0.0);
    let lmo = estimate_lmo(&sim, &cfg()).unwrap().model;
    let tuned = TunedCollectives::new(lmo);
    let root = Rank(0);
    for m in [64u64, 8 * KIB, 64 * KIB] {
        let t = collective_times(&sim, 1, 1, |e| tuned.scatter(root, m, e)).unwrap()[0];
        let lin = measure::linear_scatter_once(&sim, root, m);
        let bin = measure::binomial_scatter_once(&sim, root, m);
        assert!(
            t <= lin.min(bin) * 1.05,
            "m={m}: tuned {t} vs fixed ({lin}, {bin})"
        );
    }
}
