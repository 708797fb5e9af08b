//! Chrome trace-event export.
//!
//! Serialises [`SpanEvent`]s in the Chrome trace-event "JSON object
//! format": a top-level object whose `traceEvents` array holds one
//! complete (`"ph": "X"`) event per span. The output loads directly in
//! `chrome://tracing` and Perfetto. [`validate`] parses a trace back
//! and checks the invariants the viewers rely on, which is how the
//! integration tests prove round-tripping.

use crate::json::{write_escaped, Json};
use crate::span::SpanEvent;
use std::fmt::Write as _;

/// Serialises `events` as a Chrome trace-event JSON document.
pub fn to_chrome_json(events: &[SpanEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 128);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"tool\":\"adsafe-trace\"},");
    out.push_str("\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{\"name\":");
        write_escaped(&mut out, &e.name);
        out.push_str(",\"cat\":");
        write_escaped(&mut out, e.cat);
        let _ = write!(
            out,
            ",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}",
            e.start_us, e.dur_us, e.tid
        );
        if !e.args.is_empty() {
            out.push_str(",\"args\":{");
            for (j, (k, v)) in e.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write_escaped(&mut out, k);
                out.push(':');
                write_escaped(&mut out, v);
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("\n]}");
    out
}

/// Parses a Chrome trace-event document and verifies viewer invariants:
/// `traceEvents` exists, every event has `name`/`ph`/`ts`/`pid`/`tid`,
/// and every `"X"` event has a non-negative `dur`. Returns the event
/// count.
pub fn validate(text: &str) -> Result<usize, String> {
    let doc = Json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing `traceEvents` array")?;
    for (i, e) in events.iter().enumerate() {
        let name = e.get("name").and_then(Json::as_str);
        if name.is_none_or(str::is_empty) {
            return Err(format!("event {i}: missing or empty `name`"));
        }
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing `ph`"))?;
        for key in ["ts", "pid", "tid"] {
            if e.get(key).and_then(Json::as_f64).is_none() {
                return Err(format!("event {i}: missing numeric `{key}`"));
            }
        }
        if ph == "X" {
            let dur = e
                .get("dur")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("event {i}: complete event without `dur`"))?;
            if dur < 0.0 {
                return Err(format!("event {i}: negative `dur`"));
            }
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, start: u64, dur: u64, depth: usize) -> SpanEvent {
        SpanEvent {
            name: name.to_string(),
            cat: "test",
            start_us: start,
            dur_us: dur,
            depth,
            tid: 1,
            args: vec![("path", "dir/a \"x\".cc".to_string())],
        }
    }

    #[test]
    fn export_validates_and_round_trips() {
        let events = vec![ev("phase.parse", 0, 100, 0), ev("parse.file", 10, 50, 1)];
        let text = to_chrome_json(&events);
        assert_eq!(validate(&text).unwrap(), 2);
        let doc = Json::parse(&text).unwrap();
        let arr = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].get("name").unwrap().as_str(), Some("phase.parse"));
        assert_eq!(arr[1].get("dur").unwrap().as_f64(), Some(50.0));
        assert_eq!(
            arr[1].get("args").unwrap().get("path").unwrap().as_str(),
            Some("dir/a \"x\".cc")
        );
    }

    #[test]
    fn empty_trace_is_valid() {
        assert_eq!(validate(&to_chrome_json(&[])).unwrap(), 0);
    }

    #[test]
    fn validate_rejects_missing_fields() {
        assert!(validate("{}").is_err());
        assert!(validate(r#"{"traceEvents":[{"ph":"X"}]}"#).is_err());
        assert!(
            validate(r#"{"traceEvents":[{"name":"a","ph":"X","ts":0,"pid":1,"tid":1}]}"#).is_err(),
            "X event without dur must be rejected"
        );
    }
}
