//! Small shared helpers for the fleet handlers.

use std::net::{SocketAddr, ToSocketAddrs};

use cpm_obs::OwnedRecord;
use cpm_serve::ServeError;
use serde_json::Value;

/// Result alias matching the serve protocol's error type.
pub type SResult<T> = std::result::Result<T, ServeError>;

/// Builds a JSON object from `(key, value)` pairs.
pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

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

/// The `"last"` bound of a `trace` request (newest N records), if any.
pub fn last_of(fields: &cpm_serve::Fields) -> Option<usize> {
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
pub fn raw_trace_line(last: Option<usize>) -> String {
    match last {
        Some(n) => format!("{{\"verb\":\"trace\",\"raw\":true,\"last\":{n}}}"),
        None => "{\"verb\":\"trace\",\"raw\":true}".to_string(),
    }
}

/// Decodes a raw trace response (`{"ok":true,"records":[...]}`) into
/// owned records; `None` for errors or unrecognized shapes.
pub fn decode_raw_trace(resp: &str) -> Option<Vec<OwnedRecord>> {
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
pub fn own_records(last: Option<usize>) -> Vec<OwnedRecord> {
    let mut records = cpm_obs::Recorder::global().snapshot();
    if let Some(n) = last {
        let len = records.len();
        records.drain(..len.saturating_sub(n));
    }
    records.iter().map(OwnedRecord::from).collect()
}
