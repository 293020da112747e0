//! Byte-identity oracles for the serve protocol.
//!
//! `golden/responses.jsonl` is a corpus captured from the tree-based
//! protocol this one replaced: lines alternate request, response — the
//! request exactly as sent, the response exactly as that implementation
//! answered a fresh service fed the corpus in order. The tests here hold
//! the protocol to it byte for byte, hold both wire framings to the
//! in-process answers, and throw seeded mutations of the corpus at
//! `handle_line`.
//!
//! The `stats` verb reports timings, so its responses are compared with
//! every number masked. The flight recorder is switched off for the whole
//! test binary, which makes `trace` dumps empty and therefore stable.
//!
//! To re-capture after an intended protocol change:
//! `cargo test -p cpm-serve --test golden -- --ignored regenerate`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

use cpm_cluster::{ClusterConfig, ClusterSpec, Topology};
use cpm_estimate::EstimateConfig;
use cpm_serve::{
    handle_line, ClusterRef, LineHandler, ModelKind, ParamSet, Server, ServerHandle, Service,
    ServiceConfig, MAX_BATCH,
};
use serde_json::Value;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/responses.jsonl")
}

fn fresh_service(tag: &str) -> (PathBuf, Arc<Service>) {
    cpm_obs::Recorder::global().set_enabled(false);
    let dir = std::env::temp_dir().join(format!("cpm-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServiceConfig {
        est: EstimateConfig {
            reps: 1,
            ..EstimateConfig::with_seed(29)
        },
        ..ServiceConfig::default()
    };
    let service = Arc::new(Service::open(&dir, cfg).unwrap());
    (dir, service)
}

/// The corpus: every verb, success and each structured error, and the
/// lexical corners of the request syntax. Order matters — the service
/// keeps state (what is estimated, what is cached).
fn corpus_requests() -> Vec<String> {
    let config = ClusterConfig::ideal(ClusterSpec::homogeneous(4), 17);
    let cfg = serde_json::to_string(&config).unwrap();
    let fp = cpm_serve::fingerprint(&config);
    let hier = serde_json::to_string(&ClusterConfig::hierarchical(2, 2, 5)).unwrap();
    let trace_of = |t: &cpm_workload::Trace| serde_json::to_string(&t.to_value()).unwrap();
    let trace = trace_of(&cpm_workload::gen::canonical("train", 4, 8192, 1).unwrap());
    let wide = trace_of(&cpm_workload::gen::canonical("train", 16, 8192, 1).unwrap());
    let predict = |rest: &str| {
        format!(
            "{{\"verb\":\"predict\",\"fingerprint\":\"{fp}\",\"model\":\"lmo\",\
             \"collective\":\"scatter\",\"algorithm\":\"binomial\"{rest}}}"
        )
    };
    let mut c: Vec<String> = Vec::new();

    // Nothing is known yet.
    c.push(predict(",\"m\":1024"));
    c.push(format!("{{\"verb\":\"history\",\"fingerprint\":\"{fp}\"}}"));
    // Estimate, then the same cluster by fingerprint and by config.
    c.push(format!(
        "{{\"verb\":\"estimate\",\"id\":\"est-1\",\"config\":{cfg}}}"
    ));
    c.push(format!("{{\"verb\":\"estimate\",\"config\":{cfg}}}"));
    c.push(format!(
        "{{\"verb\":\"estimate\",\"fingerprint\":\"{fp}\"}}"
    ));
    c.push(format!(
        "{{\"verb\":\"estimate\",\"fingerprint\":\"{fp}\",\"config\":{cfg}}}"
    ));
    c.push("{\"verb\":\"estimate\"}".into());
    c.push("{\"verb\":\"estimate\",\"config\":{}}".into());
    c.push("{\"verb\":\"estimate\",\"config\":7}".into());
    // Configs the simulator would assert on: a level tree short of the
    // spec, an empty one, a two-switch split outside the cluster.
    let four = ClusterConfig::ideal(ClusterSpec::homogeneous(4), 17);
    for config in [
        ClusterConfig {
            spec: ClusterSpec::homogeneous(6),
            ..ClusterConfig::hierarchical(2, 2, 17)
        },
        ClusterConfig {
            topology: Topology::Hierarchical { levels: Vec::new() },
            ..four.clone()
        },
        ClusterConfig {
            topology: Topology::two_switch(0, 11.7e6),
            ..four.clone()
        },
    ] {
        let config = serde_json::to_string(&config).unwrap();
        c.push(format!("{{\"verb\":\"estimate\",\"config\":{config}}}"));
    }
    c.push(predict(",\"m\":1024"));
    c.push(predict(",\"m\":1024"));
    c.push(format!(
        "{{\"verb\":\"predict\",\"config\":{cfg},\"model\":\"hockney\",\
         \"collective\":\"gather\",\"algorithm\":\"linear\",\"m\":4096,\"root\":2}}"
    ));
    for model in ["lmo", "hockney", "loggp", "plogp"] {
        for collective in ["scatter", "gather", "bcast"] {
            for algorithm in ["linear", "binomial"] {
                c.push(format!(
                    "{{\"verb\":\"predict\",\"fingerprint\":\"{fp}\",\"model\":\"{model}\",\
                     \"collective\":\"{collective}\",\"algorithm\":\"{algorithm}\",\
                     \"m\":65536,\"root\":1}}"
                ));
            }
        }
    }
    // The largest `m` the protocol admits: the binomial block products
    // saturate, so every model still answers with a finite time, the
    // same one in debug and release builds.
    for model in ["lmo", "hockney", "loggp", "plogp"] {
        for collective in ["scatter", "gather"] {
            c.push(format!(
                "{{\"verb\":\"predict\",\"id\":\"huge-{model}-{collective}\",\
                 \"fingerprint\":\"{fp}\",\"model\":\"{model}\",\
                 \"collective\":\"{collective}\",\"algorithm\":\"binomial\",\
                 \"m\":18446744073709551615}}"
            ));
        }
    }
    // Field-level errors, in the order the parser checks them.
    for rest in [
        "",
        ",\"m\":1.5",
        ",\"m\":-3",
        ",\"m\":\"64\"",
        ",\"m\":null",
        ",\"m\":[64]",
        ",\"m\":4294967296",
        ",\"m\":18446744073709551616",
        ",\"m\":-0",
        ",\"m\":0064",
        ",\"m\":64,\"root\":3",
        ",\"m\":64,\"root\":4",
        ",\"m\":64,\"root\":-1",
        ",\"m\":64,\"root\":4294967296",
        ",\"m\":64,\"root\":\"0\"",
        ",\"m\":64,\"root\":1.0",
        ",\"m\":64,\"root\":null",
    ] {
        c.push(predict(rest));
    }
    for line in [
        "{\"verb\":\"predict\"}",
        "{\"verb\":\"predict\",\"fingerprint\":7}",
        "{\"verb\":\"predict\",\"fingerprint\":null,\"config\":{}}",
        "{\"verb\":\"predict\",\"config\":{\"spec\":1}}",
        "{\"verb\":\"predict\",\"config\":[]}",
        "{\"verb\":\"predict\",\"fingerprint\":\"nope\",\"model\":\"lmo\",\
         \"collective\":\"scatter\",\"algorithm\":\"linear\",\"m\":1}",
        "{\"verb\":\"predict\",\"fingerprint\":\"nope\"}",
        "{\"verb\":\"predict\",\"fingerprint\":\"nope\",\"model\":\"lmo2\"}",
        "{\"verb\":\"predict\",\"fingerprint\":\"nope\",\"model\":7}",
        "{\"verb\":\"predict\",\"fingerprint\":\"nope\",\"model\":\"lmo\",\"collective\":\"reduce\"}",
        "{\"verb\":\"predict\",\"fingerprint\":\"nope\",\"model\":\"lmo\",\"collective\":\"bcast\",\
         \"algorithm\":\"ring\"}",
        "{\"verb\":\"predict\",\"fingerprint\":\"nope\",\"model\":\"lmo\",\"collective\":\"bcast\",\
         \"algorithm\":null}",
    ] {
        c.push(line.into());
    }
    // Ids of every JSON type.
    for id in [
        "42",
        "0",
        "-7",
        "-0",
        "007",
        "18446744073709551615",
        "-9223372036854775808",
        "18446744073709551616",
        "1.5",
        "1e3",
        "\"abc\"",
        "\"\"",
        "\"a\\\"b\\\\c\\nd\\u00e9\\ud83d\\ude00\\/\\b\\f\\r\\t\"",
        "\"h\u{e9}llo \u{2192} \u{1F600}\"",
        "\"ctl\\u0001\\u001f\u{7f}\"",
        "\"0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef\"",
        "null",
        "true",
        "[1,2]",
        "{\"a\":1}",
    ] {
        c.push(predict(&format!(",\"m\":2048,\"id\":{id}")));
        c.push(format!("{{\"id\":{id},\"verb\":\"dance\"}}"));
    }
    // Trace context: present, absent, malformed — never visible in the
    // response, never an error.
    for ctx in [
        "{\"trace\":\"00000000000000ab\",\"parent\":\"00000000000000cd\"}",
        "{\"trace\":\"00000000000000ab\"}",
        "{\"trace\":\"zz\"}",
        "{\"trace\":12,\"parent\":\"1\"}",
        "{\"parent\":\"00000000000000cd\"}",
        "{\"tr\\u0061ce\":\"ab\",\"junk\":[{}]}",
        "7",
        "null",
        "\"00000000000000ab\"",
        "[]",
    ] {
        c.push(predict(&format!(",\"m\":2048,\"id\":1,\"ctx\":{ctx}")));
    }
    // Duplicate keys: the first occurrence wins, everywhere.
    c.push(predict(
        ",\"m\":64,\"m\":128,\"id\":\"first\",\"id\":\"second\"",
    ));
    c.push(predict(",\"m\":\"x\",\"m\":128"));
    c.push("{\"verb\":\"stats\",\"verb\":\"shutdown\",\"format\":\"text\",\"format\":7}".into());
    c.push(format!(
        "{{\"verb\":\"history\",\"fingerprint\":\"{fp}\",\"fingerprint\":7}}"
    ));
    c.push(format!(
        "{{\"verb\":\"predict\",\"fingerprint\":\"{fp}\",\"fingerprint\":\"nope\",\
         \"model\":\"lmo\",\"model\":7,\"collective\":\"scatter\",\"algorithm\":\"linear\",\"m\":9}}"
    ));
    // Whitespace, escaped key names and values, junk in ignored fields.
    c.push(format!(
        " \t {{ \"verb\" : \"predict\" ,\r \"fingerprint\":\"{fp}\" , \"model\" :\"lmo\",  \
         \"collective\":\"gather\" ,\"algorithm\": \"linear\", \"m\" : 512 ,\"id\" : 5 }} \t\r"
    ));
    c.push(format!(
        "{{\"\\u0076erb\":\"pr\\u0065dict\",\"finger\\u0070rint\":\"{fp}\",\"mod\\u0065l\":\"l\\u006do\",\
         \"collective\":\"scatter\",\"algorithm\":\"linear\",\"\\u006d\":77,\"\\u0069d\":\"esc\"}}"
    ));
    c.push("{\"v\\u0065rb\":\"st\\u0061ts\",\"form\\u0061t\":\"t\\u0065xt\"}".into());
    c.push("{\"verb\":\"predict\\u0000\"}".into());
    c.push("{\"verb \":\"stats\"}".into());
    let nest = format!("{}1{}", "[".repeat(64), "]".repeat(64));
    let nest_obj = format!("{}null{}", "{\"k\":".repeat(64), "}".repeat(64));
    c.push(predict(&format!(
        ",\"junk\":{nest},\"m\":300,\"more\":{nest_obj},\"s\":\"}}]\\\"{{[\",\"id\":\"junk\""
    )));
    // Invalid JSON inside an ignored field is still a bad line — and the
    // id is not echoed, because nothing decoded.
    for junk in [
        "[1,]",
        "{\"a\"}",
        "{\"a\":}",
        "tru",
        "nul",
        "1.2.3",
        "-",
        "+1",
        ".5",
        "1e",
        "\"\\q\"",
        "\"\\u12\"",
        "\"\\udc00\"",
        "\"\\ud800x\"",
        "\"open",
        "[[[[",
        "{\"k\":{\"k\":[}}",
        "\u{e9}",
    ] {
        c.push(predict(&format!(",\"id\":9,\"m\":64,\"junk\":{junk}")));
    }
    for line in [
        "not json",
        "",
        "   ",
        "42",
        "-",
        "\"verb\"",
        "[{\"verb\":\"stats\"}]",
        "null",
        "{}",
        "{\"id\":3}",
        "{\"verb\":7,\"id\":3}",
        "{\"verb\":null}",
        "{\"verb\":[\"stats\"]}",
        "{\"verb\":\"dance\"}",
        "{\"verb\":\"Stats\"}",
        "{\"verb\":\"\"}",
        "{\"verb\":\"stats\"}x",
        "{\"verb\":\"stats\"}{\"verb\":\"stats\"}",
        "{\"verb\":\"sta",
        "{\"verb\":\"stats\",}",
        "{\"verb\" \"stats\"}",
        "{verb:\"stats\"}",
        "{\"verb\":\"stats\"",
        "\u{feff}{\"verb\":\"stats\"}",
    ] {
        c.push(line.into());
    }
    // select
    for collective in ["scatter", "gather", "bcast"] {
        c.push(format!(
            "{{\"verb\":\"select\",\"id\":\"sel\",\"fingerprint\":\"{fp}\",\"model\":\"lmo\",\
             \"collective\":\"{collective}\",\"m\":32768}}"
        ));
    }
    c.push(format!(
        "{{\"verb\":\"select\",\"config\":{cfg},\"model\":\"plogp\",\"collective\":\"gather\",\
         \"m\":100,\"root\":3}}"
    ));
    for rest in [
        "",
        ",\"model\":\"lmo\"",
        ",\"model\":\"lmo\",\"collective\":\"gather\"",
        ",\"model\":\"lmo\",\"collective\":\"gather\",\"m\":1,\"root\":9",
        ",\"model\":\"lmo\",\"collective\":\"gather\",\"m\":1,\"root\":-2",
        ",\"model\":\"lmo\",\"collective\":\"gather\",\"m\":1,\"algorithm\":7",
    ] {
        c.push(format!(
            "{{\"verb\":\"select\",\"fingerprint\":\"{fp}\"{rest}}}"
        ));
    }
    // plan: miss then hit, every way to get it wrong, both fidelities.
    let plan = |rest: &str| format!("{{\"verb\":\"plan\",\"fingerprint\":\"{fp}\"{rest}}}");
    c.push(plan(&format!(",\"id\":\"p1\",\"trace\":{trace}")));
    c.push(plan(&format!(",\"id\":\"p1\",\"trace\":{trace}")));
    c.push(plan(&format!(",\"model\":\"hockney\",\"trace\":{trace}")));
    c.push(plan(&format!(
        ",\"model\":\"hockney\",\"fidelity\":\"analytic\",\"trace\":{trace}"
    )));
    c.push(format!(
        "{{\"verb\":\"plan\",\"model\":\"loggp\",\"config\":{cfg},\"trace\":{trace}}}"
    ));
    c.push(format!(
        "{{\"verb\":\"plan\",\"fidelity\":\"des\",\"id\":77,\"config\":{cfg},\"trace\":{trace}}}"
    ));
    c.push(plan(&format!(",\"fidelity\":\"des\",\"trace\":{trace}")));
    c.push(format!(
        "{{\"verb\":\"plan\",\"model\":\"lmo-hier\",\"config\":{hier},\"trace\":{trace}}}"
    ));
    c.push(plan(&format!(",\"model\":\"lmo-hier\",\"trace\":{trace}")));
    c.push(format!(
        "{{\"verb\":\"plan\",\"model\":\"lmo-hier\",\"config\":{cfg},\"trace\":{trace}}}"
    ));
    c.push(plan(&format!(",\"trace\":{wide}")));
    c.push(plan(""));
    c.push(plan(",\"trace\":7"));
    c.push(plan(",\"trace\":{}"));
    c.push(plan(&format!(",\"model\":7,\"trace\":{trace}")));
    c.push(plan(&format!(",\"model\":\"lmo3\",\"trace\":{trace}")));
    c.push(plan(&format!(",\"fidelity\":7,\"trace\":{trace}")));
    c.push(plan(&format!(",\"fidelity\":\"exact\",\"trace\":{trace}")));
    c.push(format!("{{\"verb\":\"plan\",\"trace\":{trace}}}"));
    c.push(format!(
        "{{\"verb\":\"plan\",\"fingerprint\":\"nope\",\"trace\":{trace}}}"
    ));
    for bad_trace in [
        "{\"trace\":\"other\",\"version\":1,\"name\":\"x\",\"n\":4,\"ops\":[]}",
        "{\"trace\":\"cpm-workload\",\"version\":9,\"name\":\"x\",\"n\":4,\"ops\":[]}",
        "{\"trace\":\"cpm-workload\",\"version\":1,\"name\":\"x\",\"n\":4}",
        "{\"trace\":\"cpm-workload\",\"version\":1,\"name\":\"x\",\"n\":4,\"ops\":[{\"id\":0,\
         \"phase\":\"p\",\"op\":\"warp\"}]}",
        "{\"trace\":\"cpm-workload\",\"version\":1,\"name\":\"x\",\"n\":4,\"ops\":[{\"id\":0,\
         \"phase\":\"p\",\"op\":\"p2p\",\"src\":1,\"dst\":1,\"m\":8}]}",
        "{\"trace\":\"cpm-workload\",\"version\":1,\"name\":\"x\",\"n\":1,\"ops\":[]}",
        "{\"trace\":\"cpm-workload\",\"version\":1,\"name\":\"x\",\"n\":4,\"ops\":[{\"id\":0,\
         \"phase\":\"p\",\"op\":\"compute\",\"ranks\":[0,\"1\"],\"seconds\":1e-3}]}",
    ] {
        c.push(plan(&format!(",\"trace\":{bad_trace}")));
    }
    // A small hand-written trace, fields shuffled: same plan-cache entry
    // whatever the order, so the second is a hit.
    c.push(plan(
        ",\"trace\":{\"trace\":\"cpm-workload\",\"version\":1,\"name\":\"hand\",\"n\":4,\"ops\":[\
         {\"id\":0,\"phase\":\"a\",\"op\":\"bcast\",\"root\":0,\"m\":4096},\
         {\"id\":1,\"phase\":\"b\",\"op\":\"p2p\",\"src\":1,\"dst\":2,\"m\":512}]}",
    ));
    c.push(plan(
        ",\"trace\":{\"ops\":[{\"m\":4096,\"root\":0,\"op\":\"bcast\",\"phase\":\"a\",\"id\":0},\
         {\"dst\":2,\"src\":1,\"m\":512,\"op\":\"p2p\",\"id\":1,\"phase\":\"b\"}],\
         \"n\":4,\"name\":\"hand\",\"version\":1,\"trace\":\"cpm-workload\"}",
    ));
    // batch: mixed outcomes, sub-ids, every refusal.
    let sub_ok = format!(
        "{{\"verb\":\"predict\",\"id\":\"s-1\",\"fingerprint\":\"{fp}\",\"model\":\"lmo\",\
         \"collective\":\"scatter\",\"algorithm\":\"linear\",\"m\":640}}"
    );
    let sub_sel = format!(
        "{{\"verb\":\"select\",\"id\":2,\"fingerprint\":\"{fp}\",\"model\":\"hockney\",\
         \"collective\":\"bcast\",\"m\":640}}"
    );
    let sub_unknown =
        "{\"verb\":\"predict\",\"id\":[3],\"fingerprint\":\"nope\",\"model\":\"lmo\",\
                       \"collective\":\"scatter\",\"algorithm\":\"linear\",\"m\":640}";
    let sub_root = format!(
        "{{\"verb\":\"predict\",\"fingerprint\":\"{fp}\",\"model\":\"lmo\",\
         \"collective\":\"scatter\",\"algorithm\":\"linear\",\"m\":640,\"root\":11,\"id\":-4}}"
    );
    let sub_plan = format!(
        "{{\"verb\":\"plan\",\"id\":\"s-plan\",\"fingerprint\":\"{fp}\",\"trace\":{trace}}}"
    );
    c.push(format!(
        "{{\"verb\":\"batch\",\"id\":\"b-1\",\"requests\":[{sub_ok},{sub_sel},{sub_unknown},\
         {sub_root},{sub_plan},{sub_ok}]}}"
    ));
    c.push(format!(
        "{{\"requests\": [ {sub_ok} , {sub_ok} ] , \"verb\":\"batch\"}}"
    ));
    c.push(format!(
        "{{\"verb\":\"batch\",\"requests\":[{sub_ok}],\"requests\":7}}"
    ));
    for requests in [
        "7".to_string(),
        "[]".to_string(),
        "{}".to_string(),
        "null".to_string(),
        "[7]".to_string(),
        "[{}]".to_string(),
        format!("[{sub_ok},{{\"verb\":\"stats\"}}]"),
        "[{\"verb\":\"shutdown\"}]".to_string(),
        "[{\"verb\":\"batch\",\"requests\":[]}]".to_string(),
        format!("[{sub_ok},{{\"verb\":\"predict\",\"id\":\"late\"}}]"),
        format!(
            "[{}]",
            vec!["{\"verb\":\"predict\"}"; MAX_BATCH + 1].join(",")
        ),
    ] {
        c.push(format!(
            "{{\"verb\":\"batch\",\"id\":8,\"requests\":{requests}}}"
        ));
    }
    c.push("{\"verb\":\"batch\"}".into());
    // history, stats, trace
    c.push(format!(
        "{{\"verb\":\"history\",\"id\":\"h\",\"fingerprint\":\"{fp}\"}}"
    ));
    c.push("{\"verb\":\"history\",\"fingerprint\":\"nope\"}".into());
    c.push("{\"verb\":\"history\"}".into());
    c.push("{\"verb\":\"history\",\"fingerprint\":[]}".into());
    c.push("{\"verb\":\"stats\"}".into());
    c.push("{\"verb\":\"stats\",\"id\":\"st\",\"format\":\"json\"}".into());
    c.push("{\"verb\":\"stats\",\"format\":\"text\",\"id\":-1}".into());
    c.push("{\"verb\":\"stats\",\"format\":\"xml\"}".into());
    c.push("{\"verb\":\"stats\",\"format\":null}".into());
    c.push("{\"verb\":\"trace\"}".into());
    c.push("{\"verb\":\"trace\",\"id\":\"t\",\"last\":5}".into());
    c.push("{\"verb\":\"trace\",\"raw\":true,\"last\":5}".into());
    c.push("{\"verb\":\"trace\",\"raw\":false}".into());
    c.push("{\"verb\":\"trace\",\"last\":0}".into());
    c.push("{\"verb\":\"trace\",\"last\":-1}".into());
    c.push("{\"verb\":\"trace\",\"last\":\"5\"}".into());
    c.push("{\"verb\":\"trace\",\"raw\":1}".into());
    c.push("{\"verb\":\"trace\",\"raw\":\"true\"}".into());
    // Last: the server stops after answering it.
    c.push("{\"verb\":\"shutdown\",\"id\":\"bye\",\"ignored\":[1,2,3]}".into());
    for line in &c {
        assert!(!line.contains('\n'), "corpus lines are single lines");
    }
    c
}

/// Reads the corpus: `(request, response)` pairs.
fn golden_corpus() -> Vec<(String, String)> {
    let text = std::fs::read_to_string(golden_path()).expect("golden corpus present");
    let text = text.strip_suffix('\n').unwrap_or(&text);
    let lines: Vec<&str> = text.split('\n').collect();
    assert_eq!(lines.len() % 2, 0, "corpus lines come in pairs");
    lines
        .chunks(2)
        .map(|pair| (pair[0].to_string(), pair[1].to_string()))
        .collect()
}

/// `stats` answers carry timings and counters that legitimately differ
/// from run to run: compare those with every digit run masked, and the
/// text exposition (whose histogram lines come and go with the timings)
/// cut down to the envelope around it.
fn comparable(request: &str, response: &str) -> String {
    let is_stats = serde_json::from_str::<Value>(request)
        .ok()
        .is_some_and(|v| v.get("verb").and_then(Value::as_str) == Some("stats"));
    if !is_stats {
        return response.to_string();
    }
    if let Some(at) = response.find("\"text\":\"# HELP") {
        assert!(response.ends_with("\\n\"}"), "{response}");
        return format!("{}\"text\":…}}", &response[..at]);
    }
    let mut out = String::new();
    let mut in_number = false;
    for ch in response.chars() {
        let numeric = ch.is_ascii_digit() || (in_number && matches!(ch, '.' | 'e' | '-' | '+'));
        if numeric && !in_number {
            out.push('#');
        }
        if !numeric {
            out.push(ch);
        }
        in_number = numeric;
    }
    out
}

#[test]
#[ignore = "rewrites tests/golden/responses.jsonl from the current implementation"]
fn regenerate() {
    let (dir, service) = fresh_service("regen");
    let mut out = String::new();
    for request in corpus_requests() {
        let (response, _) = handle_line(&service, &request);
        assert!(!response.contains('\n'));
        out.push_str(&request);
        out.push('\n');
        out.push_str(&response);
        out.push('\n');
    }
    std::fs::create_dir_all(golden_path().parent().unwrap()).unwrap();
    std::fs::write(golden_path(), out).unwrap();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn golden_corpus_is_reproduced_byte_for_byte() {
    let corpus = golden_corpus();
    assert!(corpus.len() > 200, "corpus shrank to {}", corpus.len());
    // The committed file is the committed generator's output.
    let requests: Vec<&str> = corpus.iter().map(|(req, _)| req.as_str()).collect();
    assert_eq!(requests, corpus_requests(), "corpus out of date");

    let (dir, service) = fresh_service("bytes");
    let mut plan_hits = 0;
    for (i, (request, expected)) in corpus.iter().enumerate() {
        let (response, shutdown) = handle_line(&service, request);
        assert_eq!(
            comparable(request, &response),
            comparable(request, expected),
            "corpus entry {i}: {request}"
        );
        assert_eq!(
            shutdown,
            response.contains("\"shutting_down\":true"),
            "{request}"
        );
        plan_hits +=
            usize::from(response.contains("\"fidelity\":\"analytic\",\"cached\":true,\"model\":"));
    }
    // Plan miss then hit: `"cached"` flips, the rest is byte-equal.
    assert!(plan_hits >= 3, "plan hits in the corpus: {plan_hits}");
    let plans: Vec<&String> = corpus
        .iter()
        .filter(|(req, _)| req.contains("\"id\":\"p1\""))
        .map(|(_, resp)| resp)
        .collect();
    assert_eq!(plans.len(), 2);
    assert_eq!(
        plans[0].replace("\"cached\":false", "\"cached\":true"),
        *plans[1]
    );
    let _ = std::fs::remove_dir_all(dir);
}

fn start(tag: &str) -> (PathBuf, ServerHandle) {
    let (dir, service) = fresh_service(tag);
    let handle = Server::bind(service, "127.0.0.1:0")
        .unwrap()
        .workers(2)
        .spawn();
    (dir, handle)
}

/// Feeds `requests` down one connection, depth 1, and collects the
/// response payloads. `binary` selects the length-prefixed framing.
fn over_the_wire(handle: &ServerHandle, requests: &[&str], binary: bool) -> Vec<String> {
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    if binary {
        stream.write_all(&[0u8]).unwrap();
    }
    let mut responses = Vec::with_capacity(requests.len());
    for request in requests {
        if binary {
            let mut frame = (request.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(request.as_bytes());
            stream.write_all(&frame).unwrap();
            let mut len = [0u8; 4];
            reader.read_exact(&mut len).unwrap();
            let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
            reader.read_exact(&mut payload).unwrap();
            responses.push(String::from_utf8(payload).unwrap());
        } else {
            // One write per request: a line sent in two pieces waits out
            // Nagle and the peer's delayed ACK, 40 ms at a time.
            stream.write_all(format!("{request}\n").as_bytes()).unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.ends_with('\n'), "no response to {request}");
            line.pop();
            responses.push(line);
        }
    }
    responses
}

/// JSON-lines vs binary framing: two servers, each fed the corpus in
/// order on one connection, must answer with the payloads `handle_line`
/// produces in process.
#[test]
fn both_framings_return_identical_payloads() {
    let corpus = golden_corpus();
    // The line framing treats a blank line as keep-alive noise and cannot
    // carry it as a request; everything else goes over every wire.
    let requests: Vec<&str> = corpus
        .iter()
        .map(|(req, _)| req.as_str())
        .filter(|req| !req.trim().is_empty())
        .collect();
    let (dir, service) = fresh_service("wire-ref");
    let reference: Vec<String> = requests
        .iter()
        .map(|req| comparable(req, &service.handle_line(req).0))
        .collect();
    let _ = std::fs::remove_dir_all(dir);

    for binary in [false, true] {
        let tag = format!("wire-{binary}");
        let (dir, mut handle) = start(&tag);
        let got = over_the_wire(&handle, &requests, binary);
        for ((req, got), want) in requests.iter().zip(&got).zip(&reference) {
            assert_eq!(&comparable(req, got), want, "{tag}: {req}");
        }
        // The corpus ends in `shutdown`: the server stops by itself.
        handle.join();
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Seeded byte flips, insertions, deletions and truncations of corpus
/// lines: every input gets one line of valid JSON carrying `"ok"`, and
/// nothing panics.
#[test]
fn mutated_requests_always_get_a_structured_answer() {
    let (dir, service) = fresh_service("mutate");
    // Lines with an embedded cluster stay out: a flipped digit there is a
    // new cluster, and estimating it (perhaps with 40 nodes for 4) is
    // minutes of simulation, not protocol. So does the over-limit batch,
    // which costs the most per mutation and adds no syntax.
    let mut seeds: Vec<String> = golden_corpus().into_iter().map(|(req, _)| req).collect();
    seeds.retain(|req| !req.contains("\"config\":{\"") && req.len() < 6000 && !req.is_empty());
    // Warm the state the seeds refer to.
    for seed in &seeds {
        if seed.contains("\"verb\":\"estimate\"") {
            handle_line(&service, seed);
        }
    }
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let alphabet = b"{}[]\",:\\u0123456789eE+-. tnfalsrverbid\xc3\xa9\x01\x7f";
    let mut answered = 0usize;
    for round in 0..30 {
        for seed in &seeds {
            let mut bytes = seed.as_bytes().to_vec();
            for _ in 0..1 + (next() % 3) + round / 8 {
                let at = (next() % bytes.len().max(1) as u64) as usize;
                let pick = alphabet[(next() % alphabet.len() as u64) as usize];
                match next() % 5 {
                    0 | 1 if !bytes.is_empty() => bytes[at] = pick,
                    2 => bytes.insert(at.min(bytes.len()), pick),
                    3 if !bytes.is_empty() => {
                        bytes.remove(at);
                    }
                    _ => bytes.truncate(at),
                }
            }
            // `handle_line` takes text; the engines refuse other bytes
            // before it is reached.
            let line = String::from_utf8_lossy(&bytes);
            let (response, _) = handle_line(&service, &line);
            let value: Value = serde_json::from_str(&response)
                .unwrap_or_else(|e| panic!("invalid response {response:?} to {line:?}: {e}"));
            assert!(
                matches!(value.get("ok"), Some(Value::Bool(_))),
                "no \"ok\" in {response:?} to {line:?}"
            );
            assert!(!response.contains('\n'), "{response:?}");
            answered += 1;
        }
    }
    assert!(answered > 5000, "{answered}");
    let _ = std::fs::remove_dir_all(dir);
}

/// Degenerate parameters never panic the planner. The plan runs on the
/// simulator's kernel, whose clock is finite and never runs backwards,
/// where the planner it replaced silently computed garbage — so there is
/// one documented clamp between a model and the machine: a parameter that
/// would charge a negative or NaN duration charges zero, an absurdly large
/// one `1e200` s. Seeded from the corpus's own estimated sets (in range:
/// untouched), then bent one parameter at a time — through the registry
/// and `handle_line` for the values JSON can carry, through
/// `cpm_workload::plan` for NaN and the infinities.
#[test]
fn degenerate_parameter_sets_plan_as_their_clamped_selves() {
    let (dir, service) = fresh_service("degenerate");
    let config = ClusterConfig::ideal(ClusterSpec::homogeneous(4), 17);
    let good = service
        .param_set(&ClusterRef::Config(Box::new(config)))
        .unwrap();
    let trace = cpm_workload::gen::canonical("train", 4, 8192, 1).unwrap();
    let trace_json = serde_json::to_string(&trace.to_value()).unwrap();
    let all = [
        ModelKind::Lmo,
        ModelKind::Hockney,
        ModelKind::Loggp,
        ModelKind::Plogp,
    ];
    // Publishes `ps` as the fingerprint's next version and returns what
    // the plan verb then answers under `model`, from "model" on (the
    // head differs by `param_version` only).
    let served = |ps: ParamSet, model: &str| {
        service.republish(ps, &all).unwrap();
        let line = format!(
            "{{\"verb\":\"plan\",\"fingerprint\":\"{}\",\"model\":\"{model}\",\
             \"trace\":{trace_json}}}",
            good.fingerprint
        );
        let (answer, _) = handle_line(&service, &line);
        assert!(answer.starts_with("{\"ok\":true"), "{model}: {answer}");
        answer[answer.find("\"model\":").unwrap()..].to_string()
    };
    for model in ["lmo", "hockney", "loggp", "plogp"] {
        assert!(served((*good).clone(), model).contains("\"makespan_seconds\":"));
    }

    // Each bent set plans exactly as the same set with the parameter
    // clamped by hand.
    const I: cpm_core::Rank = cpm_core::Rank(0);
    const J: cpm_core::Rank = cpm_core::Rank(1);
    type Bend = fn(&mut ParamSet, f64);
    let bent: [(&str, f64, f64, Bend); 4] = [
        ("lmo", -1e-3, 0.0, |ps, v| ps.lmo.l.set(I, J, v)),
        ("lmo", -1e6, f64::INFINITY, |ps, v| ps.lmo.beta.set(I, J, v)),
        ("lmo", -4e-5, 0.0, |ps, v| ps.lmo.c[2] = v),
        ("lmo", 1e300, 1e200, |ps, v| ps.lmo.t[3] = v),
    ];
    for (model, degenerate, clamped, bend) in bent {
        let plan_with = |value: f64| {
            let mut ps = (*good).clone();
            bend(&mut ps, value);
            ps
        };
        if clamped.is_finite() {
            assert_eq!(
                served(plan_with(degenerate), model),
                served(plan_with(clamped), model),
                "{model} bent to {degenerate}"
            );
        } else {
            // JSON cannot carry the hand-clamped infinity.
            let planned = |ps: ParamSet| {
                cpm_workload::plan(&trace, &cpm_workload::PlanModel::Lmo(ps.lmo)).unwrap()
            };
            assert_eq!(planned(plan_with(degenerate)), planned(plan_with(clamped)));
            served(plan_with(degenerate), model);
        }
    }
    // Under a whole-transfer model the duration is `T(src, dst, M)`, not
    // a parameter: a Hockney fit whose α makes it negative on one pair
    // charges that pair nothing and still answers.
    let mut ps = (*good).clone();
    ps.hockney.alpha.set(I, J, -1.0);
    served(ps, "hockney");

    // What JSON cannot carry: NaN plans as zero, +∞ as the cap.
    for (value, clamped) in [(f64::NAN, 0.0), (f64::INFINITY, 1e200)] {
        let planned = |t1: f64| {
            let mut lmo = good.lmo.clone();
            lmo.t[1] = t1;
            cpm_workload::plan(&trace, &cpm_workload::PlanModel::Lmo(lmo)).unwrap()
        };
        assert_eq!(planned(value), planned(clamped), "t[1] = {value}");
    }
    // An overflowing combine time is the trace's fault, and an error.
    let mut overflowing = trace.clone();
    for op in &mut overflowing.ops {
        if let cpm_workload::OpKind::Reduce { gamma, .. } = &mut op.kind {
            *gamma = 1e305;
        }
    }
    let model = cpm_workload::PlanModel::Lmo(good.lmo.clone());
    let err = cpm_workload::plan(&overflowing, &model).unwrap_err();
    assert!(
        matches!(&err, cpm_workload::WorkloadError::Invalid(m) if m.contains("gamma")),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(dir);
}
