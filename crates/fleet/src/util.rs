//! Small shared helpers for the fleet handlers.

use std::net::{SocketAddr, ToSocketAddrs};

use cpm_obs::OwnedRecord;
use cpm_reactor::ClientPool;
use cpm_serve::{Fields, Response};
use serde_json::Value;

use crate::map::NodeInfo;

/// The first top-level member `key` of a JSON object, as written; `None`
/// when `text` is not a JSON object or has no such member.
pub fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let mut found = None;
    serde_json::scan_object(text, |k, raw| {
        if found.is_none() && k == key {
            found = Some(raw);
        }
    })
    .ok()?;
    found
}

/// Appends already rendered members (`"k":v,"k":v`) to a rendered,
/// non-empty JSON object.
pub fn append_members(object: &mut String, members: &str) {
    object.truncate(object.trim_end().len() - 1);
    object.push(',');
    object.push_str(members);
    object.push('}');
}

/// `line` — a non-empty JSON object — with the current trace and
/// `parent_span` put first as its `"ctx"`, where they override any
/// context the line already carries (the first occurrence of a key
/// counts). `None` while nothing is being traced: relay `line` itself.
pub fn with_ctx(line: &str, parent_span: u64) -> Option<String> {
    let (trace_id, _) = cpm_obs::ctx::trace_current();
    if parent_span == 0 || trace_id == 0 {
        return None;
    }
    Some(format!(
        "{{\"ctx\":{{\"trace\":\"{}\",\"parent\":\"{}\"}},{}",
        cpm_obs::wire::hex16(trace_id),
        cpm_obs::wire::hex16(parent_span),
        line.trim_start().strip_prefix('{')?
    ))
}

/// A fleet-wide `trace`: the records of this process (as node `own`)
/// merged with a raw dump fanned out to every peer, written into `w` as
/// one Chrome trace with a process track per node and cross-node flow
/// arrows, plus the peers that did not answer.
pub fn merged_trace<'a>(
    own: &str,
    peers: impl Iterator<Item = (&'a NodeInfo, &'a ClientPool)>,
    fields: &Fields,
    w: &mut Response,
) {
    let last = last_of(fields);
    let raw_line = raw_trace_line(last);
    let mut nodes = vec![(own.to_string(), own_records(last))];
    let mut missing = Vec::new();
    for (info, pool) in peers {
        match pool
            .call(&raw_line)
            .ok()
            .as_deref()
            .and_then(decode_raw_trace)
        {
            Some(records) => nodes.push((info.name.clone(), records)),
            None => missing.push(Value::Str(info.name.clone())),
        }
    }
    let records: usize = nodes.iter().map(|(_, r)| r.len()).sum();
    w.u64("nodes", nodes.len() as u64);
    w.u64("records", records as u64);
    w.value("missing", &Value::Seq(missing));
    w.value("trace", &cpm_obs::chrome::chrome_trace_fleet(&nodes));
}

/// The `"last"` bound of a `trace` request (newest N records), if any.
fn last_of(fields: &Fields) -> Option<usize> {
    let n = serde_json::raw_number(fields.last?)?.as_u64()?;
    Some(n as usize)
}

/// Resolves a `host:port` string to its first socket address.
pub fn resolve_addr(addr: &str) -> Result<SocketAddr, String> {
    addr.to_socket_addrs()
        .map_err(|e| format!("{addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("{addr}: no addresses"))
}

/// The raw flight-recorder dump request the fleet trace collectors fan
/// out to members (`raw` keeps the records machine-readable instead of
/// the single-node Chrome rendering).
fn raw_trace_line(last: Option<usize>) -> String {
    let verb = cpm_serve::Verb::Trace.as_str();
    match last {
        Some(n) => format!("{{\"verb\":\"{verb}\",\"raw\":true,\"last\":{n}}}"),
        None => format!("{{\"verb\":\"{verb}\",\"raw\":true}}"),
    }
}

/// Decodes a raw trace response (`{"ok":true,"records":[...]}`) into
/// owned records; `None` for errors or unrecognized shapes.
fn decode_raw_trace(resp: &str) -> Option<Vec<OwnedRecord>> {
    let v = serde_json::from_str::<Value>(resp).ok()?;
    if v.get("ok") != Some(&Value::Bool(true)) {
        return None;
    }
    let Some(Value::Seq(items)) = v.get("records") else {
        return None;
    };
    Some(items.iter().filter_map(OwnedRecord::from_value).collect())
}

/// This process's own flight-recorder records, oldest first, optionally
/// clipped to the last `n` — the local leg of a fleet trace merge.
fn own_records(last: Option<usize>) -> Vec<OwnedRecord> {
    let mut records = cpm_obs::Recorder::global().snapshot();
    if let Some(n) = last {
        let len = records.len();
        records.drain(..len.saturating_sub(n));
    }
    records.iter().map(OwnedRecord::from).collect()
}
