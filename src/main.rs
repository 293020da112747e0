//! `cpm` — the command-line companion tool, after the paper's reference
//! [13] ("A Software Tool for Accurate Estimation of Parameters of
//! Heterogeneous Communication Models"): estimate model parameters from
//! communication experiments, persist them as JSON, and predict or observe
//! collectives. `serve` and `query` expose the same pipeline as a
//! long-running prediction service (see the `cpm-serve` crate).
//!
//! The `drift` command family drives the cpm-drift loop (measure → detect
//! → re-estimate → republish) against the same parameter store `serve`
//! uses; `serve` itself speaks the drift-extended protocol (`observe`,
//! `drift-status`, `history` verbs).
//!
//! ```text
//! cpm spec      [--profile lam|mpich|ideal] [--seed N] [--out config.json]
//! cpm estimate  --model lmo|hockney|loggp|plogp [--config FILE] [--out model.json]
//! cpm empirics  [--config FILE]
//! cpm predict   --model-file model.json --op scatter|gather --m BYTES [--root R]
//! cpm observe   --op scatter|gather|bcast|alltoall --m BYTES
//!               [--alg linear|binomial] [--reps N] [--config FILE]
//! cpm serve     [--store DIR] [--addr HOST:PORT] [--seed N] [--reps N]
//! cpm query     [--addr HOST:PORT] [--verb predict|...|observe|drift-status|history] ...
//! cpm drift replay|watch  [--store DIR] [--schedule FILE] [--epochs N] [--obs N]
//! cpm drift report        [--store DIR] [--fingerprint FP | --config FILE]
//! cpm workload gen|predict|run|compare  [--trace FILE|-] [--model M] [--nodes N]
//! ```
//!
//! The `workload` family drives the cpm-workload trace engine: generate a
//! canonical application trace, predict its makespan by critical-path
//! evaluation under an estimated model, replay it through the simulator,
//! or do both and report prediction residuals.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use cpm::cluster::ClusterConfig;
use cpm::collectives::cost::{cheapest, cost, CostModel, Machine, Op, Rooted};
use cpm::collectives::measure;
use cpm::core::units::{format_bytes, Bytes};
use cpm::core::Rank;
use cpm::drift::{replay, DriftConfig, DriftService, RefitReport, ReplayConfig, ReplayOutcome};
use cpm::estimate::lmo::estimate_lmo_full;
use cpm::estimate::{
    estimate_gather_empirics, estimate_hier_lmo, estimate_hockney_het, estimate_loggp,
    estimate_plogp, EstimateConfig,
};
use cpm::fleet::{serve_router, FleetMap, FleetNode, Router, RouterConfig};
use cpm::models::{HierLmo, HockneyHet, LmoExtended, LogGp, PLogP};
use cpm::netsim::{DriftChange, DriftSchedule, DriftShape, DriftTarget, SimCluster};
use cpm::serve::{fingerprint, LineHandler, ResidualSummary, Server, Service, ServiceConfig};
use cpm::stats::Summary;
use cpm::workload::{self, PlanModel, Trace};
use serde::{Deserialize, Serialize};
use serde_json::Value;

/// A persisted, tagged model file.
#[derive(Serialize, Deserialize)]
#[serde(tag = "model", rename_all = "lowercase")]
enum ModelFile {
    Lmo(LmoExtended),
    Hockney(HockneyHet),
    Loggp(LogGp),
    Plogp(PLogP),
    #[serde(rename = "lmo-hier")]
    LmoHier(HierLmo),
}

/// One subcommand: its allowed flags, its help text, its implementation.
struct CommandSpec {
    name: &'static str,
    flags: &'static [&'static str],
    help: &'static str,
    run: fn(&Opts) -> Result<(), String>,
}

const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "spec",
        flags: &["profile", "seed", "noise-seed", "out", "config", "nodes", "cores"],
        help: "\
USAGE: cpm spec [--profile lam|mpich|ideal] [--seed N] [--noise-seed N]
                [--nodes N --cores K] [--config FILE] [--out config.json]

Prints the cluster specification (the paper's 16-node heterogeneous cluster,
Table I) and optionally writes the full ClusterConfig JSON to --out.

--nodes N --cores K builds a hierarchical cluster instead: N identical
nodes of K cores each, fast intra-node links under a slower inter-node
switch (the multi-level LMO setting). The printed topology line shows the
level tree; write the config with --out and feed it to
`cpm estimate --model lmo-hier` or the serve `plan` verb.",
        run: cmd_spec,
    },
    CommandSpec {
        name: "estimate",
        flags: &["model", "profile", "seed", "noise-seed", "config", "out"],
        help: "\
USAGE: cpm estimate --model lmo|hockney|loggp|plogp|lmo-hier
                    [--profile lam|mpich|ideal] [--seed N] [--noise-seed N]
                    [--config FILE] [--out model.json]

Runs the model's communication experiments on the simulated cluster and
prints the estimated parameters; --out persists them as a tagged JSON file
for `cpm predict`. --noise-seed re-draws the measurement noise without
changing the cluster's ground-truth parameters (the topology seed).

--model lmo-hier estimates the hierarchical (multi-level) LMO: per-rank
C/t from disjoint one-to-two triplets and per-level L/β from one
representative pair per level — O(n) experiments instead of O(n³). It
needs a hierarchical cluster: pass a --config written by
`cpm spec --nodes N --cores K --out`.",
        run: cmd_estimate,
    },
    CommandSpec {
        name: "empirics",
        flags: &["profile", "seed", "noise-seed", "config"],
        help: "\
USAGE: cpm empirics [--profile lam|mpich|ideal] [--seed N] [--noise-seed N]
                    [--config FILE]

Locates the empirical gather thresholds M1/M2 and escalation statistics
(paper Section III-B).",
        run: cmd_empirics,
    },
    CommandSpec {
        name: "predict",
        flags: &["model-file", "op", "m", "root", "alg"],
        help: "\
USAGE: cpm predict --model-file model.json --op scatter|gather|bcast --m BYTES
                   [--root R] [--alg linear|binomial|two-phase]

Predicts a collective's execution time from a previously estimated model
file (see `cpm estimate --out`) — the same cost the service serves: the
model's machine for lmo and lmo-hier (plus eq. (5)'s expected escalation
for a linear gather in [M1, M2)), the model's closed form for hockney,
loggp and plogp. The output also reports which algorithm the model
selects for this message size, with every candidate's time.

With an lmo-hier model file, --op bcast also offers --alg two-phase: the
leader-based two-phase algorithm (binomial over node leaders, then
fan-out inside each node).",
        run: cmd_predict,
    },
    CommandSpec {
        name: "observe",
        flags: &[
            "op",
            "m",
            "alg",
            "reps",
            "profile",
            "seed",
            "noise-seed",
            "config",
        ],
        help: "\
USAGE: cpm observe --op scatter|gather|bcast|alltoall --m BYTES
                   [--alg linear|binomial] [--reps N] [--profile lam|mpich|ideal]
                   [--seed N] [--noise-seed N] [--config FILE]

Executes the collective on the simulated cluster and reports timing
statistics over --reps repetitions.",
        run: cmd_observe,
    },
    CommandSpec {
        name: "serve",
        flags: &[
            "store",
            "addr",
            "seed",
            "reps",
            "workers",
            "idle-timeout-ms",
            "fleet",
            "node",
        ],
        help: "\
USAGE: cpm serve [--store DIR] [--addr HOST:PORT] [--seed N] [--reps N]
                 [--workers N] [--idle-timeout-ms MS]
                 [--fleet MAP.json --node NAME]

Runs the prediction service: a TCP server backed by a fingerprinted
parameter registry at --store (default cpm-store). The first query for a
cluster estimates all model parameters once and persists them; later
queries — across restarts — are served from the store and an in-memory
prediction cache. --addr defaults to 127.0.0.1:7971 (use port 0 for an
ephemeral port); --seed and --reps configure the estimation runs.

One serving engine: --workers (default 8) epoll event-loop shards
multiplex ALL connections, each answering its connections' pipelined
requests in order, so many mostly-idle clients cost file descriptors, not
threads. --workers is the number of requests computed at once, not a
connection limit; a long request (a cold estimate) holds its shard, and
the connections sharing that shard, for its duration. The server speaks
JSON lines or the length-prefixed binary framing, negotiated by the first
byte of each connection (see `cpm query --wire binary`), and closes
connections idle for --idle-timeout-ms (default 30000; only a complete
request resets the clock; 0 disables).

The server speaks the drift-extended protocol: beyond the core verbs it
accepts `observe` (ingest a measured transfer time into the drift
monitor), `drift-status` (staleness report) and `history` (version
lineage). Send the `shutdown` verb (`cpm query --verb shutdown`) to stop
it; in-flight requests are drained before the server exits.

--fleet MAP.json (with --node NAME, the member this process is) joins a
parameter fleet (see `cpm fleet init`): the server refuses estimates for
tenants this node does not own on the map's consistent-hash ring,
synchronously replicates every published parameter set to the tenant's
follower nodes (`fleet-install`), and reports role, ownership ranges and
per-peer replication lag in a `fleet` stats section. --addr should be
this node's address in the map.",
        run: cmd_serve,
    },
    CommandSpec {
        name: "fleet init",
        flags: &["addrs", "replication", "vnodes", "out"],
        help: "\
USAGE: cpm fleet init --addrs H1:P1,H2:P2,... [--replication R] [--vnodes V]
                      [--out fleet.json]

Builds a fleet map: the shared topology document every node and router
loads. Members are named node-0, node-1, ... in --addrs order and placed
on a consistent-hash ring with --vnodes virtual nodes each (default 64);
each tenant (cluster fingerprint) is owned by --replication consecutive
distinct nodes (default 2), the first being its leader. Prints the map
and each member's ownership share; --out writes the JSON.",
        run: cmd_fleet_init,
    },
    CommandSpec {
        name: "fleet route",
        flags: &["map", "addr", "shards", "idle-timeout-ms"],
        help: "\
USAGE: cpm fleet route --map fleet.json [--addr HOST:PORT] [--shards N]
                       [--idle-timeout-ms MS]

Runs the fleet router: a stateless front-end that forwards predict,
select, estimate, plan and batch requests to the owning node (by the
tenant fingerprint on the map's ring), with pooled upstream connections,
bounded retry with backoff, and failover to a replica when the leader is
down — follower-served responses are flagged `\"stale\": true` with
`\"served_by\"` naming the replica. Batches are split by owner and the
responses spliced back in request order. Runs on the same event loop as
`cpm serve` (--shards event loops, default 2) and speaks both wire
framings. `stats` returns router-side counters (forwards, retries, stale
reads, failures; --format text for the Prometheus exposition); `shutdown`
stops it.",
        run: cmd_fleet_route,
    },
    CommandSpec {
        name: "query",
        flags: &[
            "addr",
            "verb",
            "model",
            "collective",
            "alg",
            "m",
            "root",
            "config",
            "fingerprint",
            "kind",
            "src",
            "dst",
            "seconds",
            "format",
            "batch",
            "last",
            "wire",
            "trace",
            "fidelity",
        ],
        help: "\
USAGE: cpm query [--addr HOST:PORT]
                 [--verb predict|select|estimate|plan|observe|drift-status|history|stats|trace|shutdown]
                 [--model lmo|hockney|loggp|plogp|lmo-hier] [--collective scatter|gather|bcast]
                 [--alg linear|binomial] [--m BYTES] [--root R]
                 [--config FILE | --fingerprint FP]
                 [--trace FILE|-] [--fidelity analytic|des]
                 [--kind p2p|gather] [--src R] [--dst R] [--seconds T]
                 [--format json|text] [--batch FILE|-] [--wire jsonl|binary]

Sends one request to a running `cpm serve` (default 127.0.0.1:7971) and
prints the JSON response. predict/select/estimate/plan identify the
cluster by an embedded --config file or by --fingerprint; stats and
shutdown need neither. --verb stats reports cache counters plus per-verb
latency quantiles; --format text renders it as a Prometheus-style
exposition instead of JSON. The drift verbs take --fingerprint: observe
ingests one measured transfer time (--kind p2p with --src/--dst, or
--kind gather with --root, plus --m and --seconds) and reports any drift
events it raises; drift-status prints the staleness report; history lists
parameter versions with their re-estimation lineage.

--verb plan submits a workload trace (--trace FILE, or stdin for `-`; see
`cpm workload gen`) and returns the server's plan: per-op algorithm
choices and the critical-path makespan. Optional \"model\" (--model,
default lmo; lmo-hier plans with the hierarchical LMO and needs an
embedded hierarchical --config) and \"fidelity\" (--fidelity, default
analytic; des replays the trace on the server's discrete-event simulator;
anything else is a structured error) fields shape the planning machine.

--batch FILE sends every JSON request line in FILE (`-` for stdin) as one
`batch` round trip — the elements must be predict, select or plan
requests — and prints one response line per element; the exit status is
non-zero if any element failed.

--wire selects the framing: `jsonl` (default) sends newline-terminated
JSON; `binary` opens with a 0x00 preamble and frames the same JSON
payloads with u32 little-endian length prefixes both ways — useful to
smoke-test the binary protocol.",
        run: cmd_query,
    },
    CommandSpec {
        name: "trace",
        flags: &["addr", "out", "last", "!fleet"],
        help: "\
USAGE: cpm trace [--addr HOST:PORT] [--out trace.json] [--last N] [--fleet]

Dumps the flight recorder of a running `cpm serve` (default
127.0.0.1:7971) as Chrome trace-event JSON, loadable in about:tracing or
https://ui.perfetto.dev. Every request the server handled leaves
begin/end spans (serve.request, service.predict, registry.load,
model.compute, plan.lower, ...) tagged with the server-side request id
and the client-supplied \"id\", so the dump attributes time to
individual requests. --last N bounds the dump to the newest N records;
the recorder itself is a fixed-size ring (oldest records are overwritten
under sustained load — the `dropped` count on stderr says how many).
Writes to stdout unless --out is given.

When --addr points at a fleet member or router, the server answers with
the *fleet-wide* merge: it fans the dump request out to every reachable
peer and returns one Chrome trace with a process track per node and flow
arrows linking cross-node parent/child spans (replication pushes, router
forwards) that share a trace id. --fleet asserts that this merge
happened — the command fails if the target served a single-node dump —
and reports the per-node breakdown plus any unreachable peers on
stderr.",
        run: cmd_trace,
    },
    CommandSpec {
        name: "drift replay",
        flags: &[
            "store",
            "schedule",
            "epochs",
            "epoch-duration",
            "obs",
            "m",
            "reps",
            "profile",
            "seed",
            "noise-seed",
            "config",
        ],
        help: "\
USAGE: cpm drift replay [--store DIR] [--schedule FILE] [--epochs N]
                        [--epoch-duration SECONDS] [--obs N] [--m BYTES] [--reps N]
                        [--profile lam|mpich|ideal] [--seed N] [--noise-seed N]
                        [--config FILE]

Runs the full drift loop against a scheduled parameter drift and prints a
JSON report: per epoch the drifted cluster is observed (one-way
point-to-point probes, --obs per pair of --m bytes), residuals against the
served model feed the drift detector, and raised events trigger a minimal
re-estimation (--reps repetitions) that is republished into --store
(default cpm-store) as a new parameter version with lineage. --schedule
loads a DriftSchedule JSON; without it a demo schedule halves the (0,1)
link bandwidth midway through the replay. Fully deterministic for a fixed
cluster and schedule.",
        run: cmd_drift_replay,
    },
    CommandSpec {
        name: "drift watch",
        flags: &[
            "store",
            "schedule",
            "epochs",
            "epoch-duration",
            "obs",
            "m",
            "reps",
            "profile",
            "seed",
            "noise-seed",
            "config",
        ],
        help: "\
USAGE: cpm drift watch [--store DIR] [--schedule FILE] [--epochs N]
                       [--epoch-duration SECONDS] [--obs N] [--m BYTES] [--reps N]
                       [--profile lam|mpich|ideal] [--seed N] [--noise-seed N]
                       [--config FILE]

Same loop as `cpm drift replay`, narrated: one human-readable line per
epoch (staleness score, raised events) and a summary of every refit
(version, experiments re-run, residuals before/after the republish).",
        run: cmd_drift_watch,
    },
    CommandSpec {
        name: "drift report",
        flags: &[
            "store",
            "fingerprint",
            "profile",
            "seed",
            "noise-seed",
            "config",
        ],
        help: "\
USAGE: cpm drift report [--store DIR] [--fingerprint FP | --config FILE |
                        --profile lam|mpich|ideal --seed N]

Prints the version history of one cluster's parameters in --store (default
cpm-store): for each retained version its estimation cost and — for
re-estimated versions — the lineage (parent version, triggering drift
events, validation residuals before and after the refit). The cluster is
picked by --fingerprint, or by fingerprinting --config / the profile
flags.",
        run: cmd_drift_report,
    },
    CommandSpec {
        name: "workload gen",
        flags: &["kind", "nodes", "m", "iters", "out"],
        help: "\
USAGE: cpm workload gen [--kind train|pipeline|moe|halo] [--nodes N]
                        [--m BYTES] [--iters N] [--out trace.jsonl]

Generates a canonical workload trace as JSON lines (one header line, one
communication op per line): a data-parallel training step (reduce+bcast
allreduce per layer), a pipeline-parallel p2p chain, an MoE-style
alltoall, or a 2-D halo exchange. Defaults: train, 16 nodes, 16K per op,
2 iterations. Writes to stdout unless --out is given, so it pipes
straight into `cpm workload predict --trace -`.

The same trace is the payload of the serve `plan` verb (`cpm query --verb
plan --trace FILE`): the request embeds the trace JSON plus two optional
string fields, \"model\" (lmo, the default | hockney | loggp | plogp |
lmo-hier) and \"fidelity\". \"fidelity\" picks the planning machine:
\"analytic\" (the default) evaluates the model's closed forms along the
critical path, \"des\" replays the trace on the server's discrete-event
simulator; any other value is rejected with a structured error.",
        run: cmd_workload_gen,
    },
    CommandSpec {
        name: "workload predict",
        flags: &[
            "trace",
            "model",
            "fidelity",
            "nodes",
            "cores",
            "reps",
            "profile",
            "seed",
            "noise-seed",
            "config",
        ],
        help: "\
USAGE: cpm workload predict [--trace FILE|-]
                            [--model lmo|hockney|loggp|plogp|lmo-hier]
                            [--fidelity analytic|des]
                            [--nodes N [--cores K] | --config FILE | --profile P]
                            [--seed N] [--noise-seed N] [--reps N]

Estimates the chosen model's parameters on the cluster (--nodes N builds
an ideal homogeneous N-node cluster, --nodes N --cores K a hierarchical
N-node K-core cluster; otherwise --config/--profile as for
`cpm estimate`), then predicts the trace's end-to-end makespan by
critical-path evaluation and prints the plan as JSON: per-op algorithm
choices and windows, per-phase breakdown, makespan. --trace reads the
JSON-lines trace from a file or stdin (`-`, the default).

--model lmo-hier plans with the hierarchical LMO (needs a hierarchical
cluster): per-op algorithm choice considers the level-aware two-phase
lowerings next to the flat linear/binomial ones, and the chosen
algorithm is reported per op in the plan JSON.

--fidelity des runs the trace on the simulated cluster itself instead
of on the estimated model parameters — the same
computation as `cpm workload run`, so both print identical reports. Any
other --fidelity value is a structured error, matching the serve `plan`
verb's \"fidelity\" field.",
        run: cmd_workload_predict,
    },
    CommandSpec {
        name: "workload run",
        flags: &[
            "trace",
            "trace-out",
            "nodes",
            "cores",
            "profile",
            "seed",
            "noise-seed",
            "config",
        ],
        help: "\
USAGE: cpm workload run [--trace FILE|-] [--trace-out FILE]
                        [--nodes N [--cores K] |
                        --config FILE | --profile P] [--seed N] [--noise-seed N]

Replays the trace as a virtual-MPI program on the simulated cluster (the
same lowering the predictor evaluates analytically) and prints the
observed schedule as JSON: per-op windows, makespan, message counts.
Deterministic for a fixed trace and cluster seed.

--trace-out FILE additionally records the simulated execution as the
kernel runs it and writes it as Chrome trace-event JSON
(loadable in https://ui.perfetto.dev): one thread track per rank carrying
its send/recv/compute/barrier windows in virtual microseconds; on a
hierarchical cluster (--cores) rank tracks group into one process per
node. Recording never changes the replayed timings — the report printed
on stdout is identical with or without it.",
        run: cmd_workload_run,
    },
    CommandSpec {
        name: "workload compare",
        flags: &[
            "trace",
            "model",
            "nodes",
            "cores",
            "reps",
            "profile",
            "seed",
            "noise-seed",
            "config",
        ],
        help: "\
USAGE: cpm workload compare [--trace FILE|-]
                            [--model lmo|hockney|loggp|plogp|lmo-hier]
                            [--nodes N [--cores K] | --config FILE | --profile P]
                            [--seed N] [--noise-seed N] [--reps N]

Predicts the trace under the chosen model (estimated from communication
experiments, as `workload predict`) AND replays it through the simulator,
then prints the comparison as JSON: predicted vs observed makespan,
relative error, per-op residuals, and the point-to-point observations in
the shape the serve `observe` verb ingests (so application runs can feed
the drift monitor).",
        run: cmd_workload_compare,
    },
];

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `drift` is a command family: fold the subcommand into the name so it
    // resolves against the COMMANDS table like any other command.
    if args.first().map(String::as_str) == Some("drift") {
        match args.get(1) {
            Some(sub) if !sub.starts_with('-') => {
                let sub = args.remove(1);
                args[0] = format!("drift {sub}");
            }
            _ => {
                eprintln!("error: drift needs a subcommand (replay|watch|report)\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if args.first().map(String::as_str) == Some("workload") {
        match args.get(1) {
            Some(sub) if !sub.starts_with('-') => {
                let sub = args.remove(1);
                args[0] = format!("workload {sub}");
            }
            _ => {
                eprintln!("error: workload needs a subcommand (gen|predict|run|compare)\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if args.first().map(String::as_str) == Some("fleet") {
        match args.get(1) {
            Some(sub) if !sub.starts_with('-') => {
                let sub = args.remove(1);
                args[0] = format!("fleet {sub}");
            }
            _ => {
                eprintln!("error: fleet needs a subcommand (init|route)\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let Some(spec) = COMMANDS.iter().find(|s| s.name == cmd.as_str()) else {
        eprintln!("error: unknown command {cmd:?}\n{USAGE}");
        return ExitCode::from(2);
    };
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", spec.help);
        return ExitCode::SUCCESS;
    }
    let opts = match parse_opts(rest, spec.flags) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{}", spec.help);
            return ExitCode::from(2);
        }
    };
    match (spec.run)(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
cpm — communication performance models for switched clusters

USAGE:
  cpm spec      [--profile lam|mpich|ideal] [--seed N] [--nodes N --cores K]
                [--out config.json]
  cpm estimate  --model lmo|hockney|loggp|plogp|lmo-hier [--config FILE]
                [--out model.json]
  cpm empirics  [--config FILE]
  cpm predict   --model-file model.json --op scatter|gather|bcast --m BYTES
                [--root R] [--alg linear|binomial|two-phase]
  cpm observe   --op scatter|gather|bcast|alltoall --m BYTES
                [--alg linear|binomial] [--reps N] [--config FILE]
  cpm serve     [--store DIR] [--addr HOST:PORT] [--seed N] [--reps N]
                [--fleet MAP.json --node NAME]
  cpm query     [--addr HOST:PORT] [--verb predict|select|estimate|plan|observe|
                drift-status|history|stats|trace|shutdown] [--model M] [--collective C]
                [--alg A] [--m BYTES] [--root R] [--config FILE | --fingerprint FP]
                [--trace FILE|-] [--fidelity analytic|des]
                [--kind p2p|gather] [--src R] [--dst R] [--seconds T]
  cpm trace     [--addr HOST:PORT] [--out trace.json] [--last N] [--fleet]
  cpm drift replay  [--store DIR] [--schedule FILE] [--epochs N] [--obs N]
  cpm drift watch   (replay, narrated per epoch)
  cpm drift report  [--store DIR] [--fingerprint FP | --config FILE]
  cpm fleet init    --addrs H1:P1,H2:P2,... [--replication R] [--vnodes V]
                    [--out fleet.json]
  cpm fleet route   --map fleet.json [--addr HOST:PORT] [--shards N]
  cpm workload gen      [--kind train|pipeline|moe|halo] [--nodes N] [--m BYTES]
                        [--iters N] [--out trace.jsonl]
  cpm workload predict  [--trace FILE|-] [--model M] [--fidelity analytic|des]
                        [--nodes N [--cores K]] [--reps N]
  cpm workload run      [--trace FILE|-] [--trace-out FILE] [--nodes N [--cores K]]
  cpm workload compare  [--trace FILE|-] [--model M] [--nodes N [--cores K]]
                        [--reps N]

Run `cpm <command> --help` for per-command details.

Cluster selection (spec/estimate/empirics/observe/drift): --config FILE
loads a ClusterConfig JSON; otherwise --profile (default lam) and --seed
(default 2009) build the paper's 16-node cluster. --noise-seed re-draws
only the measurement noise, keeping the ground truth fixed.";

type Opts = HashMap<String, String>;

/// Parses `--flag value` pairs, rejecting flags outside `known`. A known
/// entry spelled `"!name"` declares a boolean switch: `--name` takes no
/// value and parses as `"true"`.
fn parse_opts(args: &[String], known: &[&str]) -> Result<Opts, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("expected --flag, got {flag:?}"));
        };
        let boolean = known.iter().any(|k| k.strip_prefix('!') == Some(name));
        if !boolean && !known.contains(&name) {
            return Err(format!("unknown flag --{name}"));
        }
        let value = if boolean {
            "true".to_string()
        } else {
            it.next()
                .ok_or_else(|| format!("--{name} needs a value"))?
                .clone()
        };
        if out.insert(name.to_string(), value).is_some() {
            return Err(format!("--{name} given twice"));
        }
    }
    Ok(out)
}

fn cluster_from(opts: &Opts) -> Result<(ClusterConfig, SimCluster), String> {
    let mut config = if let Some(path) = opts.get("config") {
        let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        ClusterConfig::from_json(&json).map_err(|e| e.to_string())?
    } else {
        let seed = opts
            .get("seed")
            .map(|s| s.parse::<u64>().map_err(|e| e.to_string()))
            .transpose()?
            .unwrap_or(2009);
        let profile = opts.get("profile").map(String::as_str).unwrap_or("lam");
        match profile {
            "lam" => ClusterConfig::paper_lam(seed),
            "mpich" => ClusterConfig::paper_mpich(seed),
            "ideal" => ClusterConfig::ideal(cpm::cluster::ClusterSpec::paper_cluster(), seed),
            other => return Err(format!("unknown profile {other:?}")),
        }
    };
    if let Some(raw) = opts.get("noise-seed") {
        config.noise_seed = Some(
            raw.parse::<u64>()
                .map_err(|e| format!("--noise-seed: {e}"))?,
        );
    }
    config.validate().map_err(|e| format!("bad config: {e}"))?;
    let sim = SimCluster::from_config(&config);
    Ok((config, sim))
}

fn parse_bytes(opts: &Opts, key: &str) -> Result<Bytes, String> {
    let raw = opts
        .get(key)
        .ok_or_else(|| format!("--{key} is required"))?;
    cpm::core::units::parse_bytes(raw).map_err(|e| format!("--{key}: {e}"))
}

fn cmd_spec(opts: &Opts) -> Result<(), String> {
    let (config, sim) = if opts.contains_key("nodes") || opts.contains_key("cores") {
        if opts.contains_key("config") {
            return Err("give either --nodes/--cores or --config, not both".into());
        }
        let dim = |key: &str| -> Result<usize, String> {
            let raw = opts
                .get(key)
                .ok_or_else(|| "a hierarchical spec needs both --nodes and --cores".to_string())?;
            let v = raw.parse::<usize>().map_err(|e| format!("--{key}: {e}"))?;
            if v < 2 {
                return Err(format!("--{key} must be at least 2"));
            }
            Ok(v)
        };
        let (nodes, cores) = (dim("nodes")?, dim("cores")?);
        let seed = opts
            .get("seed")
            .map(|s| s.parse::<u64>().map_err(|e| e.to_string()))
            .transpose()?
            .unwrap_or(2009);
        let mut config = ClusterConfig::hierarchical(nodes, cores, seed);
        if let Some(raw) = opts.get("noise-seed") {
            config.noise_seed = Some(
                raw.parse::<u64>()
                    .map_err(|e| format!("--noise-seed: {e}"))?,
            );
        }
        let sim = SimCluster::from_config(&config);
        (config, sim)
    } else {
        cluster_from(opts)?
    };
    let levels = config.topology.levels();
    let unit = if levels.is_empty() { "nodes" } else { "ranks" };
    println!("cluster: {} ({} {unit})", config.spec.name, sim.n());
    println!("profile: {}", config.profile.name);
    if !levels.is_empty() {
        let tree = levels
            .iter()
            .map(|l| format!("{} x{}", l.name, l.arity))
            .collect::<Vec<_>>()
            .join(" -> ");
        println!("topology: hierarchical ({tree})");
        for l in levels {
            println!(
                "  level {:<6}: arity {:>2}, latency {:5.1} µs, beta {:6.1} MB/s",
                l.name,
                l.arity,
                l.latency * 1e6,
                l.beta / 1e6
            );
        }
    }
    for (k, t) in config.spec.types.iter().enumerate() {
        println!(
            "  type {}: {} — {} ({}x)",
            k + 1,
            t.model,
            t.processor,
            t.count
        );
    }
    if let Some(path) = opts.get("out") {
        std::fs::write(path, config.to_json()).map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_estimate(opts: &Opts) -> Result<(), String> {
    let (_, sim) = cluster_from(opts)?;
    let which = opts
        .get("model")
        .ok_or("--model is required (lmo|hockney|loggp|plogp|lmo-hier)")?;
    let cfg = EstimateConfig::with_seed(0xC11);
    let (file, cost, runs) = match which.as_str() {
        "lmo" => {
            let e = estimate_lmo_full(&sim, &cfg).map_err(|e| e.to_string())?;
            println!("LMO: n = {}", e.model.c.len());
            for (i, (c, t)) in e.model.c.iter().zip(&e.model.t).enumerate() {
                println!(
                    "  node {i:>2}: C = {:7.1} µs   t = {:6.2} ns/B",
                    c * 1e6,
                    t * 1e9
                );
            }
            println!(
                "  gather empirics: M1 = {}, M2 = {}, p = {:.2}",
                format_bytes(e.model.gather.m1),
                format_bytes(e.model.gather.m2),
                e.model.gather.escalation_probability
            );
            (ModelFile::Lmo(e.model), e.virtual_cost, e.runs)
        }
        "hockney" => {
            let e = estimate_hockney_het(&sim, &cfg).map_err(|e| e.to_string())?;
            println!(
                "heterogeneous Hockney: mean α = {:.1} µs, mean β = {:.1} ns/B",
                e.model.alpha.mean().unwrap_or(0.0) * 1e6,
                e.model.beta.mean().unwrap_or(0.0) * 1e9
            );
            (ModelFile::Hockney(e.model), e.virtual_cost, e.runs)
        }
        "loggp" => {
            let e = estimate_loggp(&sim, &cfg).map_err(|e| e.to_string())?;
            println!(
                "LogGP: L = {:.1} µs, o = {:.1} µs, g = {:.1} µs, G = {:.2} ns/B",
                e.model.l * 1e6,
                e.model.o * 1e6,
                e.model.g * 1e6,
                e.model.big_g * 1e9
            );
            (ModelFile::Loggp(e.model), e.virtual_cost, e.runs)
        }
        "plogp" => {
            let e = estimate_plogp(&sim, &cfg).map_err(|e| e.to_string())?;
            println!(
                "PLogP: L = {:.1} µs, g knots = {}",
                e.model.l * 1e6,
                e.model.g.knots().len()
            );
            (ModelFile::Plogp(e.model), e.virtual_cost, e.runs)
        }
        "lmo-hier" => {
            let e = estimate_hier_lmo(&sim, &cfg).map_err(|e| e.to_string())?;
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
            println!(
                "hierarchical LMO: n = {} ({} levels)",
                e.model.n(),
                e.model.levels.len()
            );
            println!(
                "  per rank: mean C = {:5.1} µs, mean t = {:5.2} ns/B",
                mean(&e.model.c) * 1e6,
                mean(&e.model.t) * 1e9
            );
            for l in &e.model.levels {
                println!(
                    "  level {:<6}: arity {:>2}, L = {:5.1} µs, beta = {:6.1} MB/s",
                    l.name,
                    l.arity,
                    l.l * 1e6,
                    l.beta / 1e6
                );
            }
            (ModelFile::LmoHier(e.model), e.virtual_cost, e.runs)
        }
        other => {
            return Err(format!(
                "unknown model {other:?} (lmo|hockney|loggp|plogp|lmo-hier)"
            ))
        }
    };
    println!("estimation: {runs} runs, {cost:.1} s of virtual cluster time");
    if let Some(path) = opts.get("out") {
        let json = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_empirics(opts: &Opts) -> Result<(), String> {
    let (_, sim) = cluster_from(opts)?;
    let cfg = EstimateConfig {
        reps: 8,
        ..EstimateConfig::with_seed(0xE11)
    };
    let e = estimate_gather_empirics(&sim, &cfg).map_err(|e| e.to_string())?;
    println!(
        "M1 = {} ({} bytes), M2 = {} ({} bytes)",
        format_bytes(e.model.m1),
        e.model.m1,
        format_bytes(e.model.m2),
        e.model.m2
    );
    println!(
        "escalations: p = {:.2}, typical magnitude = {:.0} ms",
        e.model.escalation_probability,
        e.model.escalation_magnitude * 1e3
    );
    Ok(())
}

fn cmd_predict(opts: &Opts) -> Result<(), String> {
    let path = opts.get("model-file").ok_or("--model-file is required")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let file: ModelFile = serde_json::from_str(&json).map_err(|e| e.to_string())?;
    let m = parse_bytes(opts, "m")?;
    let op = opts
        .get("op")
        .ok_or("--op is required (scatter|gather|bcast)")?;
    let kind = match op.as_str() {
        "scatter" => Rooted::Scatter,
        "gather" => Rooted::Gather,
        "bcast" => Rooted::Bcast,
        other => return Err(format!("unknown op {other:?} (scatter|gather|bcast)")),
    };
    let root = Rank(
        opts.get("root")
            .map(|s| s.parse::<u32>().map_err(|e| e.to_string()))
            .transpose()?
            .unwrap_or(0),
    );
    let model = match &file {
        ModelFile::Lmo(l) => CostModel::Machine(Machine::lmo(l)),
        ModelFile::LmoHier(h) => CostModel::Machine(Machine::hier(h)),
        ModelFile::Hockney(h) => CostModel::Hockney(h),
        ModelFile::Loggp(g) => CostModel::Loggp(g),
        ModelFile::Plogp(p) => CostModel::Plogp(p),
    };
    if root.idx() >= model.n() {
        return Err(format!(
            "--root {root} out of range for {} ranks",
            model.n()
        ));
    }
    let priced: Vec<_> = model
        .candidates(kind)
        .map(|alg| (alg, cost(&model, Op { kind, root, m }, alg)))
        .collect();
    let alg = opts.get("alg").map(String::as_str).unwrap_or("linear");
    let Some(&(_, seconds)) = priced.iter().find(|(a, _)| a.as_str() == alg) else {
        let offered: Vec<&str> = priced.iter().map(|(a, _)| a.as_str()).collect();
        return Err(format!(
            "--alg {alg:?} is not offered for {op} under this model ({})",
            offered.join("|")
        ));
    };
    println!(
        "predicted {alg} {op} of {} from root {root}: {:.3} ms",
        format_bytes(m),
        seconds * 1e3
    );
    let each: Vec<String> = priced
        .iter()
        .map(|(a, secs)| format!("{} {:.3} ms", a.as_str(), secs * 1e3))
        .collect();
    let selected = cheapest(priced.iter().copied());
    println!("selected: {} ({})", selected.as_str(), each.join(", "));
    Ok(())
}

fn cmd_observe(opts: &Opts) -> Result<(), String> {
    let (_, sim) = cluster_from(opts)?;
    let m = parse_bytes(opts, "m")?;
    let op = opts.get("op").ok_or("--op is required")?;
    let alg = opts.get("alg").map(String::as_str).unwrap_or("linear");
    let reps = opts
        .get("reps")
        .map(|s| s.parse::<usize>().map_err(|e| e.to_string()))
        .transpose()?
        .unwrap_or(5);
    let root = Rank(0);
    let times = match (op.as_str(), alg) {
        ("scatter", "linear") => measure::linear_scatter_times(&sim, root, m, reps, 1),
        ("scatter", "binomial") => measure::binomial_scatter_times(&sim, root, m, reps, 1),
        ("gather", "linear") => measure::linear_gather_times(&sim, root, m, reps, 1),
        ("gather", "binomial") => measure::binomial_gather_times(&sim, root, m, reps, 1),
        ("bcast", "linear") => measure::collective_times(&sim, reps, 1, |e| {
            cpm::collectives::linear_bcast(sim.n(), root, m, e)
        }),
        ("bcast", "binomial") => {
            let tree = cpm::core::BinomialTree::new(sim.n(), root);
            measure::collective_times(&sim, reps, 1, |e| {
                cpm::collectives::binomial_bcast(&tree, m, e)
            })
        }
        ("alltoall", _) => measure::collective_times(&sim, reps, 1, |e| {
            cpm::collectives::rotation_alltoall(sim.n(), m, e)
        }),
        (o, a) => return Err(format!("unsupported op/alg {o:?}/{a:?}")),
    }
    .map_err(|e| e.to_string())?;
    let s = Summary::of(&times);
    println!(
        "{op} ({alg}) of {} over {reps} reps: mean {:.3} ms, min {:.3} ms, max {:.3} ms",
        format_bytes(m),
        s.mean() * 1e3,
        s.min().unwrap_or(0.0) * 1e3,
        s.max().unwrap_or(0.0) * 1e3
    );
    Ok(())
}

const DEFAULT_ADDR: &str = "127.0.0.1:7971";

fn cmd_serve(opts: &Opts) -> Result<(), String> {
    let store = opts.get("store").map(String::as_str).unwrap_or("cpm-store");
    let addr = opts.get("addr").map(String::as_str).unwrap_or(DEFAULT_ADDR);
    let seed = opts
        .get("seed")
        .map(|s| s.parse::<u64>().map_err(|e| e.to_string()))
        .transpose()?
        .unwrap_or(0x5e71);
    let mut est = EstimateConfig::with_seed(seed);
    if let Some(reps) = opts.get("reps") {
        est.reps = reps.parse::<usize>().map_err(|e| e.to_string())?;
    }
    let cfg = ServiceConfig {
        est,
        ..ServiceConfig::default()
    };
    let workers = opts
        .get("workers")
        .map(|s| s.parse::<usize>().map_err(|e| format!("--workers: {e}")))
        .transpose()?
        .unwrap_or(cpm::serve::DEFAULT_WORKERS);
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    let idle_timeout = match opts.get("idle-timeout-ms") {
        None => Some(cpm::serve::DEFAULT_IDLE_TIMEOUT),
        Some(raw) => {
            let ms = raw
                .parse::<u64>()
                .map_err(|e| format!("--idle-timeout-ms: {e}"))?;
            (ms > 0).then(|| Duration::from_millis(ms))
        }
    };
    let service = Arc::new(Service::open(store, cfg).map_err(|e| e.to_string())?);
    println!(
        "store: {store} ({} parameter set(s) on disk)",
        service.registry().len()
    );
    // Wrap the core service in the drift-aware handler: the server then
    // also accepts the observe and drift-status verbs.
    let handler: Arc<dyn LineHandler> =
        DriftService::new(Arc::clone(&service), DriftConfig::default());
    // In fleet mode, wrap again: the node then enforces tenant
    // ownership, replicates publishes to its peers and answers the
    // fleet-install / fleet-info verbs.
    let mut fleet_note = String::new();
    let handler = match (opts.get("fleet"), opts.get("node")) {
        (None, None) => handler,
        (Some(path), Some(name)) => {
            let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let map = FleetMap::from_json(&json).map_err(|e| format!("{path}: {e}"))?;
            fleet_note = format!(
                ", fleet member {name} of {} (replication {})",
                map.nodes.len(),
                map.effective_replication()
            );
            FleetNode::new(
                Arc::clone(&service),
                handler,
                map,
                name,
                cpm::reactor::ClientConfig::default(),
            )? as Arc<dyn LineHandler>
        }
        _ => return Err("--fleet MAP.json and --node NAME go together".into()),
    };
    let server = Server::bind_with(service, handler, addr)
        .map_err(|e| e.to_string())?
        .workers(workers)
        .idle_timeout(idle_timeout);
    println!(
        "cpm-serve listening on {} ({workers} event-loop shard(s), \
         drift verbs enabled{fleet_note})",
        server.addr()
    );
    server.spawn().join();
    println!("cpm-serve stopped");
    Ok(())
}

/// Default address for `cpm fleet route` (the node default plus one).
const DEFAULT_ROUTER_ADDR: &str = "127.0.0.1:7972";

fn cmd_fleet_init(opts: &Opts) -> Result<(), String> {
    let raw = opts
        .get("addrs")
        .ok_or("--addrs is required (comma-separated HOST:PORT list)")?;
    let addrs: Vec<String> = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    let replication = opts
        .get("replication")
        .map(|s| {
            s.parse::<usize>()
                .map_err(|e| format!("--replication: {e}"))
        })
        .transpose()?
        .unwrap_or(cpm::fleet::DEFAULT_REPLICATION);
    let vnodes = opts
        .get("vnodes")
        .map(|s| s.parse::<usize>().map_err(|e| format!("--vnodes: {e}")))
        .transpose()?
        .unwrap_or(cpm::fleet::DEFAULT_VNODES);
    let map = FleetMap::new(&addrs, replication, vnodes);
    map.validate()?;
    let ring = map.ring();
    println!(
        "fleet map: {} member(s), replication {} (effective {}), {vnodes} vnodes each",
        map.nodes.len(),
        map.replication,
        map.effective_replication()
    );
    for n in &map.nodes {
        println!(
            "  {}: {} (ring share {:.1}%)",
            n.name,
            n.addr,
            ring.share(&n.name) * 100.0
        );
    }
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, map.to_json()).map_err(|e| format!("{path}: {e}"))?;
            println!("wrote {path}");
        }
        None => println!("{}", map.to_json()),
    }
    Ok(())
}

fn cmd_fleet_route(opts: &Opts) -> Result<(), String> {
    let path = opts.get("map").ok_or("--map fleet.json is required")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let map = FleetMap::from_json(&json).map_err(|e| format!("{path}: {e}"))?;
    let addr = opts
        .get("addr")
        .map(String::as_str)
        .unwrap_or(DEFAULT_ROUTER_ADDR);
    let shards = opts
        .get("shards")
        .map(|s| s.parse::<usize>().map_err(|e| format!("--shards: {e}")))
        .transpose()?
        .unwrap_or(2);
    let idle_timeout = match opts.get("idle-timeout-ms") {
        None => Some(cpm::serve::DEFAULT_IDLE_TIMEOUT),
        Some(raw) => {
            let ms = raw
                .parse::<u64>()
                .map_err(|e| format!("--idle-timeout-ms: {e}"))?;
            (ms > 0).then(|| Duration::from_millis(ms))
        }
    };
    let (nodes, replication) = (map.nodes.len(), map.effective_replication());
    let router = Router::new(map, RouterConfig::default())?;
    let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("{addr}: {e}"))?;
    let mut handle =
        serve_router(listener, router, shards, idle_timeout).map_err(|e| e.to_string())?;
    println!(
        "cpm-fleet router listening on {} ({nodes} node(s), replication {replication}, \
         {shards} shard(s))",
        handle.addr()
    );
    handle.join();
    println!("cpm-fleet router stopped");
    Ok(())
}

/// Opens the parameter store the drift commands share with `cpm serve`.
fn open_store(opts: &Opts) -> Result<(String, Service), String> {
    let store = opts
        .get("store")
        .cloned()
        .unwrap_or_else(|| "cpm-store".into());
    let service = Service::open(&store, ServiceConfig::default()).map_err(|e| e.to_string())?;
    Ok((store, service))
}

/// Shared setup for `cpm drift replay|watch`: cluster, replay tuning and
/// the drift schedule (from --schedule, or the built-in demo).
fn drift_inputs(opts: &Opts) -> Result<(ClusterConfig, ReplayConfig, DriftSchedule), String> {
    let (config, _) = cluster_from(opts)?;
    let mut rcfg = ReplayConfig {
        epochs: 4,
        monitor: DriftConfig {
            // Headroom over the served model's own estimation bias, which
            // is systematic and would otherwise accumulate in the CUSUM.
            sigma_rel: 0.02,
            ..DriftConfig::default()
        },
        ..ReplayConfig::default()
    };
    if let Some(raw) = opts.get("epochs") {
        rcfg.epochs = raw.parse::<usize>().map_err(|e| format!("--epochs: {e}"))?;
    }
    if let Some(raw) = opts.get("epoch-duration") {
        rcfg.epoch_duration = raw
            .parse::<f64>()
            .map_err(|e| format!("--epoch-duration: {e}"))?;
    }
    if let Some(raw) = opts.get("obs") {
        rcfg.obs_per_pair = raw.parse::<usize>().map_err(|e| format!("--obs: {e}"))?;
    }
    if opts.contains_key("m") {
        rcfg.probe_m = parse_bytes(opts, "m")?;
    }
    if let Some(raw) = opts.get("reps") {
        rcfg.est.reps = raw.parse::<usize>().map_err(|e| format!("--reps: {e}"))?;
    }
    let schedule = match opts.get("schedule") {
        Some(path) => {
            let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            serde_json::from_str(&json).map_err(|e| format!("{path}: {e}"))?
        }
        // Demo schedule: the (0,1) link loses half its bandwidth midway
        // through the replay, so the first epochs are quiet and the later
        // ones must detect, refit and republish.
        None => DriftSchedule {
            changes: vec![DriftChange {
                target: DriftTarget::LinkBeta { i: 0, j: 1 },
                at: rcfg.epoch_duration * (rcfg.epochs as f64 - 1.0) / 2.0,
                shape: DriftShape::Step,
                factor: 0.5,
            }],
        },
    };
    Ok((config, rcfg, schedule))
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn residual_json(r: &ResidualSummary) -> Value {
    obj(vec![
        ("mean_abs_rel", Value::F64(r.mean_abs_rel)),
        ("max_abs_rel", Value::F64(r.max_abs_rel)),
        ("count", Value::U64(r.count as u64)),
    ])
}

fn refit_json(r: &RefitReport) -> Value {
    obj(vec![
        ("version", Value::U64(r.version)),
        ("trigger", Value::Str(r.trigger.clone())),
        (
            "touched",
            Value::Seq(
                r.touched
                    .iter()
                    .map(|k| Value::Str(k.as_str().to_string()))
                    .collect(),
            ),
        ),
        ("p2p_runs", Value::U64(r.p2p_runs as u64)),
        ("triplet_runs", Value::U64(r.triplet_runs as u64)),
        ("sweep_runs", Value::U64(r.sweep_runs as u64)),
        ("invalidated", Value::U64(r.invalidated as u64)),
        ("residual_before", residual_json(&r.residual_before)),
        ("residual_after", residual_json(&r.residual_after)),
    ])
}

fn outcome_json(o: &ReplayOutcome) -> Value {
    let epochs = o
        .epochs
        .iter()
        .map(|e| {
            let mut entries = vec![
                ("epoch", Value::U64(e.epoch as u64)),
                ("virtual_time", Value::F64(e.virtual_time)),
                ("staleness", Value::F64(e.staleness)),
                (
                    "events",
                    Value::Seq(
                        e.events
                            .iter()
                            .map(|ev| Value::Str(ev.describe()))
                            .collect(),
                    ),
                ),
            ];
            if let Some(r) = &e.refit {
                entries.push(("refit", refit_json(r)));
            }
            obj(entries)
        })
        .collect();
    obj(vec![
        ("fingerprint", Value::Str(o.fingerprint.clone())),
        ("baseline_version", Value::U64(o.baseline_version)),
        ("final_version", Value::U64(o.final_version)),
        ("epochs", Value::Seq(epochs)),
    ])
}

fn cmd_drift_replay(opts: &Opts) -> Result<(), String> {
    let (config, rcfg, schedule) = drift_inputs(opts)?;
    let (_, service) = open_store(opts)?;
    let outcome = replay(&service, &config, &schedule, &rcfg).map_err(|e| e.to_string())?;
    let json = serde_json::to_string_pretty(&outcome_json(&outcome)).map_err(|e| e.to_string())?;
    println!("{json}");
    Ok(())
}

fn cmd_drift_watch(opts: &Opts) -> Result<(), String> {
    let (config, rcfg, schedule) = drift_inputs(opts)?;
    let (store, service) = open_store(opts)?;
    println!(
        "replaying {} epochs of {:.0} s against store {store} ({} drift change(s) scheduled)",
        rcfg.epochs,
        rcfg.epoch_duration,
        schedule.changes.len()
    );
    let outcome = replay(&service, &config, &schedule, &rcfg).map_err(|e| e.to_string())?;
    for e in &outcome.epochs {
        let events = if e.events.is_empty() {
            "quiet".to_string()
        } else {
            e.events
                .iter()
                .map(|ev| ev.describe())
                .collect::<Vec<_>>()
                .join(", ")
        };
        println!(
            "epoch {} (t = {:>4.0} s): staleness {:.2}  {events}",
            e.epoch, e.virtual_time, e.staleness
        );
        if let Some(r) = &e.refit {
            println!(
                "  refit -> v{} ({} p2p / {} triplet / {} sweep runs), \
                 residual {:.1}% -> {:.1}%, {} cache entr{} invalidated",
                r.version,
                r.p2p_runs,
                r.triplet_runs,
                r.sweep_runs,
                r.residual_before.mean_abs_rel * 100.0,
                r.residual_after.mean_abs_rel * 100.0,
                r.invalidated,
                if r.invalidated == 1 { "y" } else { "ies" }
            );
        }
    }
    println!(
        "fingerprint {}: v{} -> v{}",
        outcome.fingerprint, outcome.baseline_version, outcome.final_version
    );
    Ok(())
}

fn cmd_drift_report(opts: &Opts) -> Result<(), String> {
    let (store, service) = open_store(opts)?;
    let fp = match opts.get("fingerprint") {
        Some(fp) => fp.clone(),
        None => fingerprint(&cluster_from(opts)?.0),
    };
    let history = service.registry().history(&fp).map_err(|e| e.to_string())?;
    if history.is_empty() {
        return Err(format!("no parameter sets for fingerprint {fp} in {store}"));
    }
    println!("fingerprint {fp}: {} retained version(s)", history.len());
    for ps in &history {
        println!(
            "  v{}: {} experiment runs, {:.1} s virtual cluster time",
            ps.param_version, ps.runs, ps.virtual_cost
        );
        match &ps.lineage {
            Some(l) => {
                println!(
                    "     refit of v{} — trigger: {}",
                    l.parent_version, l.trigger
                );
                println!(
                    "     validation residual {:.1}% -> {:.1}% (over {} observations)",
                    l.residual_before.mean_abs_rel * 100.0,
                    l.residual_after.mean_abs_rel * 100.0,
                    l.residual_after.count
                );
            }
            None => println!("     original estimation"),
        }
    }
    Ok(())
}

/// Builds the request object for `cpm query` from command-line flags.
fn build_query_request(opts: &Opts) -> Result<Value, String> {
    let verb = opts.get("verb").map(String::as_str).unwrap_or("predict");
    let mut entries: Vec<(String, Value)> =
        vec![("verb".to_string(), Value::Str(verb.to_string()))];
    let mut push = |k: &str, v: Value| entries.push((k.to_string(), v));
    let needs_cluster = matches!(verb, "predict" | "select" | "estimate" | "plan");
    if needs_cluster {
        match (opts.get("config"), opts.get("fingerprint")) {
            (Some(path), None) => {
                let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                let config: Value =
                    serde_json::from_str(&json).map_err(|e| format!("{path}: {e}"))?;
                push("config", config);
            }
            (None, Some(fp)) => push("fingerprint", Value::Str(fp.clone())),
            (Some(_), Some(_)) => {
                return Err("give either --config or --fingerprint, not both".into())
            }
            (None, None) => return Err(format!("{verb} needs --config FILE or --fingerprint FP")),
        }
    }
    if matches!(verb, "observe" | "drift-status" | "history") {
        let fp = opts
            .get("fingerprint")
            .ok_or_else(|| format!("{verb} needs --fingerprint FP"))?;
        push("fingerprint", Value::Str(fp.clone()));
    }
    match verb {
        "observe" => {
            let kind = opts.get("kind").cloned().unwrap_or_else(|| "p2p".into());
            push("kind", Value::Str(kind.clone()));
            push("m", Value::U64(parse_bytes(opts, "m")?));
            let seconds = opts
                .get("seconds")
                .ok_or("observe needs --seconds T (the measured transfer time)")?
                .parse::<f64>()
                .map_err(|e| format!("--seconds: {e}"))?;
            push("seconds", Value::F64(seconds));
            let rank = |key: &str| -> Result<Value, String> {
                let raw = opts
                    .get(key)
                    .ok_or_else(|| format!("observe --kind {kind} needs --{key} R"))?;
                Ok(Value::U64(
                    raw.parse::<u64>().map_err(|e| format!("--{key}: {e}"))?,
                ))
            };
            match kind.as_str() {
                "p2p" => {
                    push("src", rank("src")?);
                    push("dst", rank("dst")?);
                }
                "gather" => push("root", rank("root")?),
                other => return Err(format!("unknown --kind {other:?} (p2p|gather)")),
            }
        }
        "predict" | "select" => {
            push(
                "model",
                Value::Str(opts.get("model").cloned().unwrap_or_else(|| "lmo".into())),
            );
            push(
                "collective",
                Value::Str(
                    opts.get("collective")
                        .cloned()
                        .unwrap_or_else(|| "scatter".into()),
                ),
            );
            if verb == "predict" {
                push(
                    "algorithm",
                    Value::Str(opts.get("alg").cloned().unwrap_or_else(|| "linear".into())),
                );
            }
            push("m", Value::U64(parse_bytes(opts, "m")?));
            if let Some(root) = opts.get("root") {
                push(
                    "root",
                    Value::U64(root.parse::<u64>().map_err(|e| e.to_string())?),
                );
            }
        }
        "stats" => {
            if let Some(format) = opts.get("format") {
                if !matches!(format.as_str(), "json" | "text") {
                    return Err(format!("unknown --format {format:?} (json|text)"));
                }
                push("format", Value::Str(format.clone()));
            }
        }
        "trace" => {
            if let Some(last) = opts.get("last") {
                push(
                    "last",
                    Value::U64(last.parse::<u64>().map_err(|e| format!("--last: {e}"))?),
                );
            }
        }
        "plan" => {
            let trace = read_trace(opts)?;
            push("trace", trace.to_value());
            if let Some(model) = opts.get("model") {
                push("model", Value::Str(model.clone()));
            }
            if let Some(fidelity) = opts.get("fidelity") {
                push("fidelity", Value::Str(fidelity.clone()));
            }
        }
        "estimate" | "drift-status" | "history" | "shutdown" => {}
        other => {
            return Err(format!(
                "unknown verb {other:?} (expected predict|select|estimate|plan|observe|\
                 drift-status|history|stats|trace|shutdown)"
            ))
        }
    }
    Ok(Value::Map(entries))
}

/// Cluster selection for the workload commands: `--nodes N` builds an
/// ideal homogeneous N-node cluster (seeded by --seed), `--nodes N
/// --cores K` a hierarchical N×K cluster; otherwise the shared
/// --config/--profile selection applies.
fn workload_cluster(opts: &Opts) -> Result<SimCluster, String> {
    if let Some(raw) = opts.get("nodes") {
        let n = raw.parse::<usize>().map_err(|e| format!("--nodes: {e}"))?;
        if n < 2 {
            return Err("--nodes must be at least 2".into());
        }
        let seed = opts
            .get("seed")
            .map(|s| s.parse::<u64>().map_err(|e| e.to_string()))
            .transpose()?
            .unwrap_or(2009);
        let mut config = if let Some(raw) = opts.get("cores") {
            let k = raw.parse::<usize>().map_err(|e| format!("--cores: {e}"))?;
            if k < 2 {
                return Err("--cores must be at least 2".into());
            }
            ClusterConfig::hierarchical(n, k, seed)
        } else {
            ClusterConfig::ideal(cpm::cluster::ClusterSpec::homogeneous(n), seed)
        };
        if let Some(raw) = opts.get("noise-seed") {
            config.noise_seed = Some(
                raw.parse::<u64>()
                    .map_err(|e| format!("--noise-seed: {e}"))?,
            );
        }
        Ok(SimCluster::from_config(&config))
    } else if opts.contains_key("cores") {
        Err("--cores needs --nodes (a hierarchical N-node, K-core cluster)".into())
    } else {
        cluster_from(opts).map(|(_, sim)| sim)
    }
}

/// Reads a JSON-lines trace from `--trace FILE`, or stdin for `-` (the
/// default).
fn read_trace(opts: &Opts) -> Result<Trace, String> {
    let path = opts.get("trace").map(String::as_str).unwrap_or("-");
    let text = if path == "-" {
        let mut s = String::new();
        std::io::stdin()
            .read_to_string(&mut s)
            .map_err(|e| format!("stdin: {e}"))?;
        s
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
    };
    Trace::from_jsonl(&text).map_err(|e| e.to_string())
}

/// Estimates the requested model's parameters on the cluster, exactly as
/// `cpm estimate` would, and wraps them for the workload planner.
fn workload_model(opts: &Opts, sim: &SimCluster) -> Result<PlanModel, String> {
    let kind = match opts.get("model") {
        None => workload::ModelKind::Lmo,
        Some(raw) => workload::ModelKind::parse(raw)
            .ok_or_else(|| format!("unknown model {raw:?} (lmo|hockney|loggp|plogp|lmo-hier)"))?,
    };
    let mut cfg = EstimateConfig::with_seed(0xC11);
    if let Some(raw) = opts.get("reps") {
        cfg.reps = raw.parse::<usize>().map_err(|e| format!("--reps: {e}"))?;
    }
    let model = match kind {
        workload::ModelKind::Lmo => PlanModel::Lmo(
            estimate_lmo_full(sim, &cfg)
                .map_err(|e| e.to_string())?
                .model,
        ),
        workload::ModelKind::Hockney => PlanModel::Hockney(
            estimate_hockney_het(sim, &cfg)
                .map_err(|e| e.to_string())?
                .model,
        ),
        workload::ModelKind::Loggp => {
            PlanModel::Loggp(estimate_loggp(sim, &cfg).map_err(|e| e.to_string())?.model)
        }
        workload::ModelKind::Plogp => {
            PlanModel::Plogp(estimate_plogp(sim, &cfg).map_err(|e| e.to_string())?.model)
        }
        workload::ModelKind::LmoHier => PlanModel::LmoHier(
            estimate_hier_lmo(sim, &cfg)
                .map_err(|e| e.to_string())?
                .model,
        ),
    };
    Ok(model)
}

fn print_pretty(v: &Value) -> Result<(), String> {
    let json = serde_json::to_string_pretty(v).map_err(|e| e.to_string())?;
    write_stdout(&json)?;
    write_stdout("\n")
}

/// Writes to stdout, treating a closed pipe as a clean exit so
/// `cpm workload … | head` and friends don't panic mid-stream.
fn write_stdout(text: &str) -> Result<(), String> {
    use std::io::Write;
    match std::io::stdout().write_all(text.as_bytes()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => Err(format!("stdout: {e}")),
    }
}

fn cmd_workload_gen(opts: &Opts) -> Result<(), String> {
    let kind = opts.get("kind").map(String::as_str).unwrap_or("train");
    let n = opts
        .get("nodes")
        .map(|s| s.parse::<usize>().map_err(|e| format!("--nodes: {e}")))
        .transpose()?
        .unwrap_or(16);
    let m = if opts.contains_key("m") {
        parse_bytes(opts, "m")?
    } else {
        16 * 1024
    };
    let iters = opts
        .get("iters")
        .map(|s| s.parse::<usize>().map_err(|e| format!("--iters: {e}")))
        .transpose()?
        .unwrap_or(2);
    let trace = workload::gen::canonical(kind, n, m, iters)
        .ok_or_else(|| format!("unknown kind {kind:?} (train|pipeline|moe|halo)"))?;
    let text = trace.to_jsonl();
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("{path}: {e}"))?;
            println!(
                "wrote {path} ({} ops on {} ranks, trace hash {})",
                trace.ops.len(),
                trace.n,
                trace.hash()
            );
        }
        None => write_stdout(&text)?,
    }
    Ok(())
}

fn cmd_workload_predict(opts: &Opts) -> Result<(), String> {
    let trace = read_trace(opts)?;
    let sim = workload_cluster(opts)?;
    match opts.get("fidelity").map(String::as_str) {
        None | Some("analytic") => {
            let model = workload_model(opts, &sim)?;
            let plan = workload::plan(&trace, &model).map_err(|e| e.to_string())?;
            print_pretty(&plan.to_value())
        }
        Some("des") => {
            let choices = workload::truth_choices(&sim, &trace);
            let report = workload::replay(&sim, &trace, &choices).map_err(|e| e.to_string())?;
            print_pretty(&report.to_value())
        }
        Some(other) => Err(format!("unknown fidelity {other:?} (analytic|des)")),
    }
}

fn cmd_workload_run(opts: &Opts) -> Result<(), String> {
    let trace = read_trace(opts)?;
    let sim = workload_cluster(opts)?;
    let choices = workload::truth_choices(&sim, &trace);
    let report = match opts.get("trace-out") {
        Some(path) => {
            let (report, timeline) =
                workload::replay_traced(&sim, &trace, &choices).map_err(|e| e.to_string())?;
            let json = serde_json::to_string(&timeline).map_err(|e| e.to_string())?;
            std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote DES timeline to {path} (load in https://ui.perfetto.dev)");
            report
        }
        None => workload::replay(&sim, &trace, &choices).map_err(|e| e.to_string())?,
    };
    print_pretty(&report.to_value())
}

fn cmd_workload_compare(opts: &Opts) -> Result<(), String> {
    let trace = read_trace(opts)?;
    let sim = workload_cluster(opts)?;
    let model = workload_model(opts, &sim)?;
    let plan = workload::plan(&trace, &model).map_err(|e| e.to_string())?;
    let choices = workload::choose(&trace, &model);
    let replayed = workload::replay(&sim, &trace, &choices).map_err(|e| e.to_string())?;
    let cmp = workload::compare(&trace, &plan, &replayed);
    print_pretty(&cmp.to_value())
}

/// One round trip against a running server: returns the raw response
/// line and its parsed form.
fn send_query(addr: &str, request: &Value) -> Result<(String, Value), String> {
    let line = serde_json::to_string(request).map_err(|e| e.to_string())?;
    let stream = TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    writer
        .write_all(format!("{line}\n").as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| e.to_string())?;
    let mut response = String::new();
    BufReader::new(stream)
        .read_line(&mut response)
        .map_err(|e| e.to_string())?;
    let response = response.trim_end().to_string();
    if response.is_empty() {
        return Err("server closed the connection without responding".into());
    }
    let parsed: Value = serde_json::from_str(&response).map_err(|e| e.to_string())?;
    Ok((response, parsed))
}

/// Like [`send_query`], but over the binary framing: `0x00` preamble,
/// then `u32` LE length-prefixed JSON payloads both ways.
fn send_query_binary(addr: &str, request: &Value) -> Result<(String, Value), String> {
    let payload = serde_json::to_string(request).map_err(|e| e.to_string())?;
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    let mut wire = vec![0u8];
    wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    wire.extend_from_slice(payload.as_bytes());
    stream
        .write_all(&wire)
        .and_then(|()| stream.flush())
        .map_err(|e| e.to_string())?;
    let mut len = [0u8; 4];
    stream
        .read_exact(&mut len)
        .map_err(|e| format!("reading response frame header: {e}"))?;
    let mut buf = vec![0u8; u32::from_le_bytes(len) as usize];
    stream
        .read_exact(&mut buf)
        .map_err(|e| format!("reading response frame: {e}"))?;
    let response = String::from_utf8(buf).map_err(|e| e.to_string())?;
    let parsed: Value = serde_json::from_str(&response).map_err(|e| e.to_string())?;
    Ok((response, parsed))
}

fn is_ok(v: &Value) -> bool {
    matches!(v.get("ok"), Some(Value::Bool(true)))
}

/// Parses `--wire jsonl|binary` (default `jsonl`); returns `true` for
/// the binary length-prefixed framing.
fn parse_wire(opts: &Opts) -> Result<bool, String> {
    match opts.get("wire").map(String::as_str) {
        None | Some("jsonl") => Ok(false),
        Some("binary") => Ok(true),
        Some(other) => Err(format!("--wire must be jsonl or binary, got {other:?}")),
    }
}

/// One round trip over the selected framing.
fn send_query_wire(addr: &str, request: &Value, binary: bool) -> Result<(String, Value), String> {
    if binary {
        send_query_binary(addr, request)
    } else {
        send_query(addr, request)
    }
}

/// `cpm query --batch FILE|-`: every JSON request line of FILE becomes
/// one element of a single `batch` round trip; the per-element responses
/// are printed one per line, in request order.
fn query_batch(addr: &str, path: &str, binary: bool) -> Result<(), String> {
    let raw = if path == "-" {
        let mut buf = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin(), &mut buf)
            .map_err(|e| format!("stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
    };
    let requests: Vec<Value> = raw
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .enumerate()
        .map(|(i, l)| {
            serde_json::from_str(l).map_err(|e| format!("batch request {i} is not json: {e}"))
        })
        .collect::<Result<_, _>>()?;
    if requests.is_empty() {
        return Err("the batch file contains no request lines".into());
    }
    let batch = Value::Map(vec![
        ("verb".to_string(), Value::Str("batch".to_string())),
        ("requests".to_string(), Value::Seq(requests)),
    ]);
    let (raw, parsed) = send_query_wire(addr, &batch, binary)?;
    if !is_ok(&parsed) {
        println!("{raw}");
        return Err("batch request failed".into());
    }
    let Some(Value::Seq(responses)) = parsed.get("responses") else {
        return Err(format!("malformed batch response: {raw}"));
    };
    let mut failed = 0usize;
    for r in responses {
        println!("{}", serde_json::to_string(r).map_err(|e| e.to_string())?);
        if !is_ok(r) {
            failed += 1;
        }
    }
    if failed > 0 {
        return Err(format!(
            "{failed} of {} batch requests failed",
            responses.len()
        ));
    }
    Ok(())
}

fn cmd_query(opts: &Opts) -> Result<(), String> {
    let addr = opts.get("addr").map(String::as_str).unwrap_or(DEFAULT_ADDR);
    let binary = parse_wire(opts)?;
    if let Some(path) = opts.get("batch") {
        return query_batch(addr, path, binary);
    }
    let request = build_query_request(opts)?;
    let (raw, parsed) = send_query_wire(addr, &request, binary)?;
    // A text-format stats response is an exposition document wrapped in
    // JSON; unwrap it for the terminal (and for piping to scrapers).
    match parsed.get("text").and_then(Value::as_str) {
        Some(text) if is_ok(&parsed) => print!("{text}"),
        _ => println!("{raw}"),
    }
    if is_ok(&parsed) {
        Ok(())
    } else {
        Err("request failed".into())
    }
}

/// `cpm trace`: fetch the server's flight-recorder dump and write the
/// Chrome trace-event JSON (pretty-printed — the file is meant to be
/// loaded into a trace viewer, and occasionally eyeballed).
fn cmd_trace(opts: &Opts) -> Result<(), String> {
    let addr = opts.get("addr").map(String::as_str).unwrap_or(DEFAULT_ADDR);
    let mut entries = vec![("verb".to_string(), Value::Str("trace".to_string()))];
    if let Some(last) = opts.get("last") {
        entries.push((
            "last".to_string(),
            Value::U64(last.parse::<u64>().map_err(|e| format!("--last: {e}"))?),
        ));
    }
    let (raw, parsed) = send_query(addr, &Value::Map(entries))?;
    if !is_ok(&parsed) {
        println!("{raw}");
        return Err("trace request failed".into());
    }
    let Some(trace) = parsed.get("trace") else {
        return Err(format!("malformed trace response: {raw}"));
    };
    let records = parsed.get("records").and_then(Value::as_u64).unwrap_or(0);
    let dropped = parsed.get("dropped").and_then(Value::as_u64).unwrap_or(0);
    let nodes = parsed.get("nodes").and_then(Value::as_u64);
    if opts.contains_key("fleet") {
        let Some(nodes) = nodes else {
            return Err(format!(
                "{addr} served a single-node dump, not a fleet merge — \
                 point --addr at a fleet member or router"
            ));
        };
        let missing: Vec<&str> = match parsed.get("missing") {
            Some(Value::Seq(names)) => names.iter().filter_map(Value::as_str).collect(),
            _ => Vec::new(),
        };
        if missing.is_empty() {
            eprintln!("fleet merge: {nodes} nodes, all reachable");
        } else {
            eprintln!(
                "fleet merge: {nodes} nodes reachable, missing: {}",
                missing.join(", ")
            );
        }
    }
    let json = serde_json::to_string_pretty(trace).map_err(|e| e.to_string())?;
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, json.as_bytes()).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote {path}: {records} records ({dropped} dropped by the ring)");
        }
        None => {
            println!("{json}");
            eprintln!("{records} records ({dropped} dropped by the ring)");
        }
    }
    Ok(())
}
