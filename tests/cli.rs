//! End-to-end tests of the `cpm` command-line tool.

use std::process::Command;

fn cpm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cpm"))
}

fn run_ok(args: &[&str]) -> String {
    let out = cpm().args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "cpm {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

#[test]
fn spec_prints_the_cluster_and_writes_config() {
    let dir = std::env::temp_dir().join(format!("cpm-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = dir.join("config.json");
    let out = run_ok(&["spec", "--seed", "7", "--out", cfg.to_str().unwrap()]);
    assert!(out.contains("16 nodes"), "{out}");
    assert!(out.contains("LAM 7.1.3"), "{out}");
    // The written config loads back.
    let json = std::fs::read_to_string(&cfg).unwrap();
    assert!(json.contains("hcl-16-node-heterogeneous"));
    // And can be fed back via --config.
    let out2 = run_ok(&["spec", "--config", cfg.to_str().unwrap()]);
    assert!(out2.contains("16 nodes"));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn observe_reports_statistics() {
    let out = run_ok(&[
        "observe",
        "--op",
        "scatter",
        "--m",
        "8K",
        "--reps",
        "3",
        "--profile",
        "ideal",
    ]);
    assert!(out.contains("scatter (linear) of 8KB"), "{out}");
    assert!(out.contains("mean"), "{out}");
}

#[test]
fn observe_supports_all_collectives() {
    for op in ["gather", "bcast", "alltoall"] {
        let out = run_ok(&[
            "observe",
            "--op",
            op,
            "--m",
            "2K",
            "--reps",
            "2",
            "--profile",
            "ideal",
        ]);
        assert!(out.contains(op), "{out}");
    }
}

#[test]
fn estimate_hockney_then_predict() {
    let dir = std::env::temp_dir().join(format!("cpm-cli-est-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model = dir.join("hockney.json");
    let out = run_ok(&[
        "estimate",
        "--model",
        "hockney",
        "--profile",
        "ideal",
        "--out",
        model.to_str().unwrap(),
    ]);
    assert!(out.contains("heterogeneous Hockney"), "{out}");
    let out = run_ok(&[
        "predict",
        "--model-file",
        model.to_str().unwrap(),
        "--op",
        "scatter",
        "--m",
        "64K",
    ]);
    assert!(out.contains("predicted linear scatter of 64KB"), "{out}");
    let _ = std::fs::remove_dir_all(dir);
}

/// `cpm predict` prices the algorithm it is asked for, through the same
/// cost the service serves: `--alg` moves the number for a gather under
/// LMO and under Hockney, a flat model file answers `bcast`, and an
/// algorithm the model does not offer is refused.
#[test]
fn predict_prices_the_requested_algorithm() {
    let dir = std::env::temp_dir().join(format!("cpm-cli-alg-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ms = |out: &str| -> f64 {
        let line = out.lines().find(|l| l.starts_with("predicted")).unwrap();
        let value = line.rsplit(": ").next().unwrap();
        value.trim_end_matches(" ms").parse().unwrap()
    };
    for model in ["lmo", "hockney"] {
        let file = dir.join(format!("{model}.json"));
        let file = file.to_str().unwrap();
        run_ok(&[
            "estimate",
            "--model",
            model,
            "--profile",
            "ideal",
            "--out",
            file,
        ]);
        let predict = |op: &str, alg: &str| {
            run_ok(&[
                "predict",
                "--model-file",
                file,
                "--op",
                op,
                "--m",
                "16K",
                "--alg",
                alg,
            ])
        };
        let linear = predict("gather", "linear");
        let binomial = predict("gather", "binomial");
        assert!(
            linear.contains("predicted linear gather of 16KB"),
            "{linear}"
        );
        assert!(
            binomial.contains("predicted binomial gather of 16KB"),
            "{binomial}"
        );
        assert_ne!(ms(&linear), ms(&binomial), "{model}: {linear} / {binomial}");
        assert!(linear.contains("selected: "), "{linear}");
        let bcast = predict("bcast", "binomial");
        assert!(
            bcast.contains("predicted binomial bcast of 16KB"),
            "{bcast}"
        );
        let refused = cpm()
            .args([
                "predict",
                "--model-file",
                file,
                "--op",
                "bcast",
                "--m",
                "1K",
            ])
            .args(["--alg", "two-phase"])
            .output()
            .unwrap();
        assert!(
            !refused.status.success(),
            "{model}: two-phase on a flat model"
        );
        assert!(String::from_utf8_lossy(&refused.stderr).contains("not offered"));
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// A level tree that does not cover the spec is refused with a one-line
/// error instead of panicking the simulator.
#[test]
fn a_config_the_simulator_would_assert_on_is_refused() {
    let dir = std::env::temp_dir().join(format!("cpm-cli-badcfg-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = dir.join("hier.json");
    run_ok(&[
        "spec",
        "--nodes",
        "2",
        "--cores",
        "2",
        "--out",
        cfg.to_str().unwrap(),
    ]);
    let json = std::fs::read_to_string(&cfg).unwrap();
    let six = json.replacen("\"count\": 4", "\"count\": 6", 1);
    assert_ne!(six, json, "the spec's node count is rewritten");
    std::fs::write(&cfg, six).unwrap();
    let out = cpm()
        .args([
            "estimate",
            "--model",
            "lmo",
            "--config",
            cfg.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("bad config: hierarchical level tree covers 4 ranks"),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn workload_gen_predict_run_compare_pipeline() {
    let dir = std::env::temp_dir().join(format!("cpm-cli-wl-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("train.jsonl");

    let out = run_ok(&[
        "workload",
        "gen",
        "--kind",
        "train",
        "--nodes",
        "4",
        "--m",
        "8K",
        "--iters",
        "2",
        "--out",
        trace.to_str().unwrap(),
    ]);
    assert!(out.contains("6 ops on 4 ranks"), "{out}");
    let jsonl = std::fs::read_to_string(&trace).unwrap();
    assert!(jsonl.starts_with("{\"trace\":\"cpm-workload\",\"version\":1"));

    let common = ["--trace", trace.to_str().unwrap(), "--nodes", "4"];
    let out = run_ok(&[&["workload", "predict"][..], &common, &["--reps", "1"]].concat());
    assert!(out.contains("\"makespan_seconds\""), "{out}");
    assert!(out.contains("\"model\": \"lmo\""), "{out}");

    let out = run_ok(&[&["workload", "run"][..], &common].concat());
    assert!(out.contains("\"makespan_seconds\""), "{out}");
    assert!(out.contains("\"msgs_sent\""), "{out}");

    let out = run_ok(&[&["workload", "compare"][..], &common, &["--reps", "1"]].concat());
    assert!(out.contains("\"rel_error\""), "{out}");
    assert!(out.contains("\"observed_makespan\""), "{out}");

    let _ = std::fs::remove_dir_all(dir);
}

/// A trace no consumer would accept is refused at generation, for every
/// kind: exit 1, the validator's message, nothing on stdout and no file
/// written.
#[test]
fn workload_gen_refuses_fewer_than_two_ranks() {
    let dir = std::env::temp_dir().join(format!("cpm-cli-wl-small-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for kind in ["train", "pipeline", "moe", "halo"] {
        for n in ["0", "1"] {
            let file = dir.join(format!("{kind}{n}.jsonl"));
            for out_flag in [&[][..], &["--out", file.to_str().unwrap()][..]] {
                let out = cpm()
                    .args(["workload", "gen", "--kind", kind, "--nodes", n])
                    .args(out_flag)
                    .output()
                    .unwrap();
                assert_eq!(out.status.code(), Some(1), "{kind} --nodes {n}");
                assert!(out.stdout.is_empty(), "{kind} --nodes {n} wrote a trace");
                let err = String::from_utf8_lossy(&out.stderr);
                assert!(
                    err.contains(&format!(
                        "invalid trace: trace needs n >= 2 processes, got {n}"
                    )),
                    "{err}"
                );
            }
            assert!(
                !file.exists(),
                "{kind} --nodes {n} wrote {}",
                file.display()
            );
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn workload_family_help_and_flag_allowlist() {
    // Per-command --help exits 0 and documents the verb.
    for sub in ["gen", "predict", "run", "compare"] {
        let out = cpm().args(["workload", sub, "--help"]).output().unwrap();
        assert!(out.status.success(), "workload {sub} --help failed");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains(&format!("workload {sub}")), "{text}");
    }
    // Unknown flags exit 2, matching the strict allowlist convention.
    let out = cpm()
        .args(["workload", "gen", "--bogus", "1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    // A bare `workload` with no subcommand also exits 2.
    let out = cpm().arg("workload").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("subcommand"));
}

/// `--help` right after a family name lists the family's subcommands and
/// exits 0; a bare family name still exits 2.
#[test]
fn family_help_lists_subcommands() {
    for (family, subs) in [
        ("workload", &["gen", "predict", "run", "compare"][..]),
        ("drift", &["replay", "watch", "report"][..]),
        ("fleet", &["init", "route"][..]),
    ] {
        for flag in ["--help", "-h"] {
            let out = cpm().args([family, flag]).output().unwrap();
            assert!(out.status.success(), "{family} {flag} failed");
            let text = String::from_utf8_lossy(&out.stdout);
            for sub in subs {
                assert!(text.contains(&format!("cpm {family} {sub}")), "{text}");
            }
        }
        let out = cpm().arg(family).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "bare {family}");
        assert!(String::from_utf8_lossy(&out.stderr).contains(&subs.join("|")));
    }
}

/// `--nodes`/`--cores` and `--config`/`--profile` both pick the cluster;
/// given together, the command refuses instead of ignoring one.
#[test]
fn conflicting_cluster_flags_are_refused() {
    let dir = std::env::temp_dir().join(format!("cpm-cli-clusterflags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.jsonl");
    let config = dir.join("c.json");
    let (trace, config) = (trace.to_str().unwrap(), config.to_str().unwrap());
    run_ok(&["workload", "gen", "--nodes", "4", "--out", trace]);
    run_ok(&["spec", "--out", config]);
    for other in [["--profile", "mpich"], ["--config", config]] {
        for sizes in [&["--nodes", "4"][..], &["--nodes", "2", "--cores", "2"][..]] {
            let mut runs = vec![["workload", "run", "--trace", trace].to_vec()];
            runs.push(["workload", "predict", "--reps", "1", "--trace", trace].to_vec());
            if sizes.contains(&"--cores") {
                runs.push(["spec"].to_vec());
            }
            for run in runs {
                let out = cpm().args(&run).args(sizes).args(other).output().unwrap();
                assert_eq!(out.status.code(), Some(1), "{run:?} {sizes:?} {other:?}");
                let err = String::from_utf8_lossy(&out.stderr);
                assert!(
                    err.contains("give either --nodes/--cores or --config/--profile, not both"),
                    "{err}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// `cpm query --help` names every verb a client may send: all of the
/// verb table but the node-to-node ones.
#[test]
fn query_help_names_every_client_verb() {
    let help = run_ok(&["query", "--help"]);
    for verb in cpm::serve::VERBS {
        if verb.route() != cpm::serve::Route::NodeOnly {
            assert!(
                help.contains(verb.as_str()),
                "{} missing:\n{help}",
                verb.as_str()
            );
        }
    }
}

#[test]
fn bad_invocations_fail_cleanly() {
    // Unknown command.
    assert!(!cpm().arg("frobnicate").output().unwrap().status.success());
    // Missing required flag.
    assert!(!cpm()
        .args(["predict", "--op", "scatter"])
        .output()
        .unwrap()
        .status
        .success());
    // Bad size literal.
    assert!(!cpm()
        .args(["observe", "--op", "scatter", "--m", "banana"])
        .output()
        .unwrap()
        .status
        .success());
    // No args at all prints usage and fails.
    let out = cpm().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}
