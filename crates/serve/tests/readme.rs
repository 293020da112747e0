//! The README's protocol verb table is the verb table: every row names a
//! verb of `cpm_serve::VERBS` with its batchable, cluster-key and
//! answering-layer columns as the table declares them, and every verb has
//! a row. (The router column is prose and is not compared.)

use cpm_serve::{ClusterKey, Layer, Verb, VERBS};

/// One README row's compared cells: name, batchable, cluster key, layer.
type Row = [String; 4];

/// The rows of the table under `| verb | router | batchable | … |`.
fn readme_rows() -> Vec<Row> {
    let readme = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
    let text = std::fs::read_to_string(readme).unwrap();
    let mut lines = text.lines();
    lines
        .find(|l| l.starts_with("| verb | router | batchable | cluster key | answered by |"))
        .expect("the README has the verb table");
    lines
        .skip(1) // the |---| rule
        .take_while(|l| l.starts_with('|'))
        .map(|l| {
            let cells: Vec<&str> = l.trim_matches('|').split('|').map(str::trim).collect();
            assert_eq!(cells.len(), 5, "a verb row has five cells: {l}");
            [cells[0], cells[2], cells[3], cells[4]].map(String::from)
        })
        .collect()
}

/// The row the verb table declares for `verb`, in the README's words.
fn declared(verb: Verb) -> Row {
    let key = match verb.cluster_key() {
        ClusterKey::Neither => "—",
        ClusterKey::Fingerprint => "`fingerprint`",
        ClusterKey::ConfigOrFingerprint => "`config` or `fingerprint`",
    };
    let layer = match verb.layer() {
        Layer::Core => "core",
        Layer::Drift => "drift",
        Layer::Fleet => "fleet",
    };
    [
        format!("`{}`", verb.as_str()),
        (if verb.batchable() { "yes" } else { "no" }).to_string(),
        key.to_string(),
        layer.to_string(),
    ]
}

#[test]
fn readme_verb_table_matches_the_verb_table() {
    let rows = readme_rows();
    let want: Vec<Row> = VERBS.iter().map(|&v| declared(v)).collect();
    for row in &rows {
        assert!(
            want.contains(row),
            "README row {row:?} is not a verb of the table (or a column differs)"
        );
    }
    for row in &want {
        assert!(rows.contains(row), "README has no row {row:?}");
    }
    assert_eq!(rows.len(), want.len(), "a verb appears twice in the README");
}
