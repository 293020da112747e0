//! Fingerprinted parameter registry.
//!
//! A [`ClusterConfig`] is content-addressed by a *fingerprint*: a stable
//! hash of its canonical serialized form. Estimating a cluster's model
//! parameters is expensive (hundreds of simulated experiments), so the
//! registry persists the full set of estimated parameters — all four
//! analytical models plus the empirical gather thresholds — to a versioned
//! JSON store on disk, keyed by fingerprint. Any process that sees the same
//! cluster configuration later reuses the stored parameters instead of
//! re-estimating.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use cpm_cluster::ClusterConfig;
use cpm_estimate::lmo::estimate_lmo_full;
use cpm_estimate::{estimate_hockney_het, estimate_loggp, estimate_plogp, EstimateConfig};
use cpm_models::{HockneyHet, LmoExtended, LogGp, PLogP};
use cpm_netsim::SimCluster;
use cpm_workload::{ModelKind, PlanModel};
use serde::{Deserialize, Serialize};
use serde_json::Value;

use crate::service::unknown_model;

/// On-disk format version; bumping it invalidates (ignores) older entries.
pub const FORMAT_VERSION: u32 = 1;

/// Errors from the serve subsystem.
#[derive(Debug)]
pub enum ServeError {
    /// An I/O failure talking to the store or a socket.
    Io(String),
    /// A request was malformed or referenced something unsupported.
    Protocol(String),
    /// The estimation pipeline failed.
    Estimation(String),
    /// A fingerprint was referenced without a config and is not in the
    /// registry.
    UnknownFingerprint(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::Protocol(e) => write!(f, "protocol error: {e}"),
            ServeError::Estimation(e) => write!(f, "estimation error: {e}"),
            ServeError::UnknownFingerprint(fp) => {
                write!(
                    f,
                    "unknown fingerprint {fp:?}: supply a config to estimate it"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e.to_string())
    }
}

/// Shorthand for results carrying a [`ServeError`].
pub type Result<T> = std::result::Result<T, ServeError>;

/// The stable fingerprint of a cluster configuration: 128 bits, hex.
///
/// Computed over the canonical JSON form (sorted keys, compact separators,
/// shortest-round-trip floats), so it is invariant under serde round-trips
/// and field reordering, and changes whenever any parameter that affects
/// the simulated cluster changes.
pub fn fingerprint(config: &ClusterConfig) -> String {
    cpm_core::canonical_hash(&serde_json::to_value(config).expect("config serializes"))
}

/// Fingerprints a config given as raw JSON text, without requiring it to
/// parse into a [`ClusterConfig`] first. Field order in the text is
/// irrelevant: any reordering of `config.to_json()` fingerprints the same
/// as `fingerprint(&config)`. (A hand-written text that *omits* defaulted
/// fields is not canonical — parse it into a [`ClusterConfig`] and use
/// [`fingerprint`] instead.)
pub fn fingerprint_json(json: &str) -> Result<String> {
    let value: Value =
        serde_json::from_str(json).map_err(|e| ServeError::Protocol(e.to_string()))?;
    Ok(cpm_core::canonical_hash(&value))
}

/// Residual statistics of observations against a parameter set, recorded
/// in drift lineage (before/after a re-estimation).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResidualSummary {
    /// Mean absolute relative residual `|obs − pred| / pred`.
    pub mean_abs_rel: f64,
    /// Worst absolute relative residual.
    pub max_abs_rel: f64,
    /// Number of observations summarized.
    pub count: usize,
}

/// Provenance of a republished parameter set: which version it replaced,
/// what triggered the re-estimation, and how much it helped.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Lineage {
    /// `param_version` of the parameter set this one was refit from.
    pub parent_version: u64,
    /// Fingerprint of the parent (normally identical to this set's — the
    /// cluster *configuration* did not change, its physics did).
    pub parent_fingerprint: String,
    /// Human-readable description of the drift event that triggered the
    /// re-estimation, e.g. `link-drift(3,7)`.
    pub trigger: String,
    /// Residuals of the triggering observation window against the parent.
    pub residual_before: ResidualSummary,
    /// Residuals of a fresh validation window against this set.
    pub residual_after: ResidualSummary,
}

/// `config`, if building its simulator would not panic
/// ([`ClusterConfig::validate`]); a structured `bad "config"` error if it
/// would. A request's config must pass here before it reaches the
/// simulator.
pub(crate) fn validated(config: &ClusterConfig) -> Result<&ClusterConfig> {
    config
        .validate()
        .map(|()| config)
        .map_err(|e| ServeError::Protocol(format!("bad \"config\": {e}")))
}

/// Every model parameter the service can serve for one cluster, as
/// estimated from simulated communication experiments.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ParamSet {
    /// On-disk format version ([`FORMAT_VERSION`]).
    pub version: u32,
    /// Monotonic per-fingerprint parameter version, assigned by
    /// [`Registry::publish`]. Freshly estimated sets start at 1; each
    /// republication (drift refit) increments it. 0 marks an entry written
    /// before versioning existed (or never published).
    #[serde(default)]
    pub param_version: u64,
    /// Provenance when this set was republished by the drift loop; `None`
    /// for an original estimation.
    #[serde(default)]
    pub lineage: Option<Lineage>,
    /// Fingerprint of `config` at estimation time.
    pub fingerprint: String,
    /// The configuration the parameters were estimated for.
    pub config: ClusterConfig,
    /// Extended LMO (paper §III) including the empirical gather thresholds
    /// M1/M2 and escalation statistics.
    pub lmo: LmoExtended,
    /// Heterogeneous Hockney (per-pair α/β regression).
    pub hockney: HockneyHet,
    /// LogGP.
    pub loggp: LogGp,
    /// Parameterized LogP.
    pub plogp: PLogP,
    /// Total virtual cluster time spent estimating, seconds.
    pub virtual_cost: f64,
    /// Total simulation runs performed.
    pub runs: usize,
}

impl ParamSet {
    /// Runs the full estimation pipeline for `config`: LMO (with gather
    /// empirics), heterogeneous Hockney, LogGP and PLogP.
    pub fn estimate(config: &ClusterConfig, est: &EstimateConfig) -> Result<ParamSet> {
        validated(config)?;
        let sim = SimCluster::from_config(config);
        let err = |e: cpm_core::error::CpmError| ServeError::Estimation(e.to_string());
        let lmo = estimate_lmo_full(&sim, est).map_err(err)?;
        let hockney = estimate_hockney_het(&sim, est).map_err(err)?;
        let loggp = estimate_loggp(&sim, est).map_err(err)?;
        let plogp = estimate_plogp(&sim, est).map_err(err)?;
        Ok(ParamSet {
            version: FORMAT_VERSION,
            param_version: 1,
            lineage: None,
            fingerprint: fingerprint(config),
            config: config.clone(),
            virtual_cost: lmo.virtual_cost
                + hockney.virtual_cost
                + loggp.virtual_cost
                + plogp.virtual_cost,
            runs: lmo.runs + hockney.runs + loggp.runs + plogp.runs,
            lmo: lmo.model,
            hockney: hockney.model,
            loggp: loggp.model,
            plogp: plogp.model,
        })
    }

    /// Number of nodes the parameters describe.
    pub fn n(&self) -> usize {
        self.lmo.c.len()
    }

    /// The set's model of a flat `kind` — the one map from a kind to its
    /// model, which `predict`, `select` and `plan` all read. Its link
    /// matrices and size functions are shared with the set, not copied.
    /// `lmo-hier` is not in a set: it is derived from a hierarchical
    /// config.
    pub fn model(&self, kind: ModelKind) -> Result<PlanModel> {
        Ok(match kind {
            ModelKind::Lmo => PlanModel::Lmo(self.lmo.clone()),
            ModelKind::Hockney => PlanModel::Hockney(self.hockney.clone()),
            ModelKind::Loggp => PlanModel::Loggp(self.loggp.clone()),
            ModelKind::Plogp => PlanModel::Plogp(self.plogp.clone()),
            ModelKind::LmoHier => return Err(unknown_model(kind.as_str())),
        })
    }
}

/// The on-disk text of a parameter set.
fn render(ps: &ParamSet) -> Result<String> {
    serde_json::to_string_pretty(ps).map_err(|e| ServeError::Io(e.to_string()))
}

/// Writes `json` to `path` by write-temp-then-rename.
fn write_atomic(path: &Path, json: &str) -> Result<()> {
    let tmp = path.with_extension("json.tmp");
    fs::write(&tmp, json)?;
    fs::rename(&tmp, path)?;
    Ok(())
}

/// How many parameter versions [`Registry::publish`] retains per
/// fingerprint (a ring: older archives are pruned).
pub const HISTORY_RING: usize = 8;

/// A directory of persisted [`ParamSet`]s, one JSON file per fingerprint,
/// under a `v<FORMAT_VERSION>/` subdirectory. The latest parameter set for
/// fingerprint `fp` lives at `fp.json`; [`Registry::publish`] additionally
/// archives each version at `fp.v<K>.json`, retaining the last
/// [`HISTORY_RING`] so drift lineage always points at a real parent.
pub struct Registry {
    dir: PathBuf,
}

impl Registry {
    /// Opens (creating if needed) a registry rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Registry> {
        let dir = dir.into();
        fs::create_dir_all(Self::store_dir_of(&dir))?;
        Ok(Registry { dir })
    }

    fn store_dir_of(dir: &Path) -> PathBuf {
        dir.join(format!("v{FORMAT_VERSION}"))
    }

    fn store_dir(&self) -> PathBuf {
        Self::store_dir_of(&self.dir)
    }

    /// The file a fingerprint persists to.
    pub fn path_for(&self, fp: &str) -> PathBuf {
        self.store_dir().join(format!("{fp}.json"))
    }

    /// Loads the parameter set for `fp`, if present and of the current
    /// format version. Entries with a different version are ignored (they
    /// will be re-estimated and overwritten).
    pub fn load(&self, fp: &str) -> Result<Option<ParamSet>> {
        let path = self.path_for(fp);
        let json = match fs::read_to_string(&path) {
            Ok(j) => j,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(ServeError::Io(format!("{}: {e}", path.display()))),
        };
        let ps: ParamSet = serde_json::from_str(&json)
            .map_err(|e| ServeError::Io(format!("{}: {e}", path.display())))?;
        if ps.version != FORMAT_VERSION {
            return Ok(None);
        }
        Ok(Some(ps))
    }

    /// The archive file of one published version of a fingerprint.
    pub fn path_for_version(&self, fp: &str, version: u64) -> PathBuf {
        self.store_dir().join(format!("{fp}.v{version}.json"))
    }

    /// Persists a parameter set atomically (write-temp-then-rename) as the
    /// *latest* for its fingerprint, without touching the version archive.
    /// Most callers want [`Registry::publish`].
    pub fn store(&self, ps: &ParamSet) -> Result<()> {
        write_atomic(&self.path_for(&ps.fingerprint), &render(ps)?)
    }

    /// Publishes a parameter set: assigns the next `param_version` for its
    /// fingerprint, stores it as the latest, archives it in the version
    /// ring, and prunes archives beyond [`HISTORY_RING`]. Returns the set
    /// with its assigned version (1 exactly when the fingerprint had never
    /// been published here).
    pub fn publish(&self, mut ps: ParamSet) -> Result<ParamSet> {
        let mut versions = self.versions(&ps.fingerprint)?;
        let latest = self
            .load(&ps.fingerprint)?
            .map(|prev| prev.param_version)
            .unwrap_or(0)
            .max(versions.last().copied().unwrap_or(0));
        ps.param_version = latest + 1;
        // One serialisation, two files: the archive first, so the latest
        // pointer never names a version the ring does not hold.
        let json = render(&ps)?;
        write_atomic(
            &self.path_for_version(&ps.fingerprint, ps.param_version),
            &json,
        )?;
        write_atomic(&self.path_for(&ps.fingerprint), &json)?;
        versions.push(ps.param_version);
        self.prune(&ps.fingerprint, &versions);
        Ok(ps)
    }

    /// Installs a parameter set at its *existing* `param_version`
    /// without assigning a new one — the follower half of fleet
    /// replication, where the leader already versioned the set and
    /// replicas must store it under the same number so lineage and
    /// history agree across the shard. Archives the set in the version
    /// ring, updates the latest pointer only if this version is the
    /// newest seen, and prunes the ring like [`Registry::publish`].
    pub fn install(&self, ps: ParamSet) -> Result<ParamSet> {
        if ps.param_version == 0 {
            return Err(ServeError::Protocol(
                "install requires a published set (param_version >= 1)".into(),
            ));
        }
        let json = render(&ps)?;
        write_atomic(
            &self.path_for_version(&ps.fingerprint, ps.param_version),
            &json,
        )?;
        let latest = self
            .load(&ps.fingerprint)?
            .map(|prev| prev.param_version)
            .unwrap_or(0);
        if ps.param_version >= latest {
            write_atomic(&self.path_for(&ps.fingerprint), &json)?;
        }
        self.prune(&ps.fingerprint, &self.versions(&ps.fingerprint)?);
        Ok(ps)
    }

    /// Removes the archives of `versions` (ascending) beyond the last
    /// [`HISTORY_RING`].
    fn prune(&self, fp: &str, versions: &[u64]) {
        for &v in &versions[..versions.len().saturating_sub(HISTORY_RING)] {
            let _ = fs::remove_file(self.path_for_version(fp, v));
        }
    }

    /// The archived version numbers of a fingerprint, ascending.
    pub fn versions(&self, fp: &str) -> Result<Vec<u64>> {
        let prefix = format!("{fp}.v");
        let mut out = Vec::new();
        for entry in fs::read_dir(self.store_dir())? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(v) = name
                .strip_prefix(&prefix)
                .and_then(|rest| rest.strip_suffix(".json"))
                .and_then(|v| v.parse::<u64>().ok())
            {
                out.push(v);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Loads one archived version of a fingerprint, if still in the ring.
    fn load_version(&self, fp: &str, version: u64) -> Result<Option<ParamSet>> {
        let path = self.path_for_version(fp, version);
        let json = match fs::read_to_string(&path) {
            Ok(j) => j,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(ServeError::Io(format!("{}: {e}", path.display()))),
        };
        let ps: ParamSet = serde_json::from_str(&json)
            .map_err(|e| ServeError::Io(format!("{}: {e}", path.display())))?;
        Ok(Some(ps))
    }

    /// All retained versions of a fingerprint, ascending by version.
    pub fn history(&self, fp: &str) -> Result<Vec<ParamSet>> {
        let mut out = Vec::new();
        for v in self.versions(fp)? {
            if let Some(ps) = self.load_version(fp, v)? {
                out.push(ps);
            }
        }
        Ok(out)
    }

    /// All fingerprints currently stored (version archives excluded).
    pub fn list(&self) -> Result<Vec<String>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(self.store_dir())? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(fp) = name.strip_suffix(".json") {
                // `fp.v3.json` archives and stray `.tmp` files are not
                // fingerprints (which are bare hex).
                if !fp.contains('.') {
                    out.push(fp.to_string());
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// Number of stored parameter sets.
    pub fn len(&self) -> usize {
        self.list().map(|v| v.len()).unwrap_or(0)
    }

    /// `true` when no parameter set is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_cluster::ClusterSpec;

    #[test]
    fn fingerprint_is_stable_across_round_trips() {
        let cfg = ClusterConfig::paper_lam(2009);
        let fp = fingerprint(&cfg);
        let back = ClusterConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(fp, fingerprint(&back));
        assert_eq!(fp.len(), 32);
    }

    #[test]
    fn fingerprint_separates_configs() {
        let a = ClusterConfig::paper_lam(2009);
        let b = ClusterConfig::paper_lam(2010);
        let c = ClusterConfig::paper_mpich(2009);
        let d = ClusterConfig::ideal(ClusterSpec::homogeneous(16), 2009);
        let fps = [
            fingerprint(&a),
            fingerprint(&b),
            fingerprint(&c),
            fingerprint(&d),
        ];
        for i in 0..fps.len() {
            for j in (i + 1)..fps.len() {
                assert_ne!(fps[i], fps[j], "{i} vs {j}");
            }
        }
    }

    /// Recursively reverses the entry order of every JSON object, producing
    /// a maximally field-order-permuted but semantically identical value.
    fn reverse_fields(v: Value) -> Value {
        match v {
            Value::Map(entries) => Value::Map(
                entries
                    .into_iter()
                    .rev()
                    .map(|(k, val)| (k, reverse_fields(val)))
                    .collect(),
            ),
            Value::Seq(items) => {
                // Sequence order is semantic (node table order) — keep it.
                Value::Seq(items.into_iter().map(reverse_fields).collect())
            }
            other => other,
        }
    }

    #[test]
    fn fingerprint_ignores_field_order() {
        let cfg = ClusterConfig::paper_lam(2009);
        let permuted =
            serde_json::to_string(&reverse_fields(serde_json::to_value(&cfg).unwrap())).unwrap();
        assert_ne!(
            permuted,
            cfg.to_json(),
            "permutation should actually reorder"
        );
        assert_eq!(fingerprint_json(&permuted).unwrap(), fingerprint(&cfg));
        assert_eq!(fingerprint_json(&cfg.to_json()).unwrap(), fingerprint(&cfg));
    }

    #[test]
    fn fingerprint_separates_table_one_perturbations() {
        let base = ClusterConfig::paper_lam(2009);
        let mut perturbed: Vec<ClusterConfig> = Vec::new();
        // Each perturbation touches one Table I column or run parameter.
        let mut p = base.clone();
        p.spec.types[0].count += 1;
        perturbed.push(p);
        let mut p = base.clone();
        p.spec.types[2].ghz = 2.0;
        perturbed.push(p);
        let mut p = base.clone();
        p.spec.types[4].fsb_mhz += 1;
        perturbed.push(p);
        let mut p = base.clone();
        p.spec.types[5].l2_kb *= 2;
        perturbed.push(p);
        let mut p = base.clone();
        p.noise_rel += 0.001;
        perturbed.push(p);
        let mut p = base.clone();
        p.sim_seed += 1;
        perturbed.push(p);

        let base_fp = fingerprint(&base);
        let mut all = vec![base_fp];
        for p in &perturbed {
            all.push(fingerprint(p));
        }
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                assert_ne!(all[i], all[j], "perturbations {i} and {j} collide");
            }
        }
    }

    #[test]
    fn registry_round_trip() {
        let dir = std::env::temp_dir().join(format!("cpm-reg-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let reg = Registry::open(&dir).unwrap();
        assert!(reg.is_empty());

        let config = ClusterConfig::ideal(ClusterSpec::homogeneous(4), 7);
        let est = EstimateConfig {
            reps: 1,
            ..EstimateConfig::with_seed(7)
        };
        let ps = ParamSet::estimate(&config, &est).unwrap();
        assert_eq!(ps.n(), 4);
        reg.store(&ps).unwrap();

        assert_eq!(reg.list().unwrap(), vec![ps.fingerprint.clone()]);
        let loaded = reg.load(&ps.fingerprint).unwrap().unwrap();
        assert_eq!(loaded, ps);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn publish_assigns_versions_and_retains_a_ring() {
        let dir = std::env::temp_dir().join(format!("cpm-ring-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let reg = Registry::open(&dir).unwrap();

        let config = ClusterConfig::ideal(ClusterSpec::homogeneous(4), 8);
        let est = EstimateConfig {
            reps: 1,
            ..EstimateConfig::with_seed(8)
        };
        let base = ParamSet::estimate(&config, &est).unwrap();
        let fp = base.fingerprint.clone();

        // Publish HISTORY_RING + 3 versions; each bumps param_version.
        let mut published = Vec::new();
        for k in 0..(HISTORY_RING + 3) {
            let mut ps = base.clone();
            ps.virtual_cost = k as f64; // distinguish the versions
            let ps = reg.publish(ps).unwrap();
            assert_eq!(ps.param_version, k as u64 + 1);
            published.push(ps);
        }

        // The latest is served by plain load(); list() shows one entry.
        let latest = reg.load(&fp).unwrap().unwrap();
        assert_eq!(latest.param_version, (HISTORY_RING + 3) as u64);
        assert_eq!(reg.list().unwrap(), vec![fp.clone()]);

        // Only the last HISTORY_RING versions survive, in order.
        let versions = reg.versions(&fp).unwrap();
        let expect: Vec<u64> = (4..=(HISTORY_RING as u64 + 3)).collect();
        assert_eq!(versions, expect);
        assert!(reg.load_version(&fp, 1).unwrap().is_none(), "pruned");
        let history = reg.history(&fp).unwrap();
        assert_eq!(history.len(), HISTORY_RING);
        assert_eq!(history.last().unwrap(), &latest);
        // Lineage can reference the real parent version.
        let parent = reg
            .load_version(&fp, latest.param_version - 1)
            .unwrap()
            .unwrap();
        assert_eq!(parent.param_version, latest.param_version - 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lineage_survives_the_store_round_trip() {
        let dir = std::env::temp_dir().join(format!("cpm-lin-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let reg = Registry::open(&dir).unwrap();
        let config = ClusterConfig::ideal(ClusterSpec::homogeneous(4), 9);
        let est = EstimateConfig {
            reps: 1,
            ..EstimateConfig::with_seed(9)
        };
        let mut ps = ParamSet::estimate(&config, &est).unwrap();
        ps.lineage = Some(Lineage {
            parent_version: 1,
            parent_fingerprint: ps.fingerprint.clone(),
            trigger: "link-drift(0,1)".into(),
            residual_before: ResidualSummary {
                mean_abs_rel: 0.4,
                max_abs_rel: 0.9,
                count: 128,
            },
            residual_after: ResidualSummary {
                mean_abs_rel: 0.01,
                max_abs_rel: 0.05,
                count: 128,
            },
        });
        let ps = reg.publish(ps).unwrap();
        let loaded = reg.load(&ps.fingerprint).unwrap().unwrap();
        assert_eq!(loaded, ps);
        assert_eq!(loaded.lineage.as_ref().unwrap().trigger, "link-drift(0,1)");
        let _ = fs::remove_dir_all(&dir);
    }
}
