//! Hand-rolled JSON rendering for the `--metrics` artifact.
//!
//! The workspace has no serialization crate (every format it writes is
//! hand-rolled), so the artifact is written by hand with a deliberately
//! rigid shape that makes it diffable:
//!
//! * top-level keys in fixed order: `format`, `counters`, `gauges`,
//!   `process`, `spans`, `events`, `events_dropped`;
//! * map entries sorted by name (they come out of `BTreeMap`s);
//! * exactly one span entry per line, so [`zero_wall_times`] can blank
//!   every duration with a line scan and CI can byte-diff two runs.
//!
//! The only nondeterministic bytes in the artifact are durations — span
//! `wall_ms` values and `process` entries in microseconds (names ending
//! `_us`) — and, across run *shapes*, the rest of the `process` section
//! and the event log.

use std::collections::BTreeMap;

use crate::event::Level;

/// Artifact format tag; bump when the shape changes. v2 added per-span
/// `p50_ms`/`p99_ms` percentile fields (nearest-rank over retained
/// duration samples).
pub const FORMAT: &str = "ndt-obs-v2";

/// One span's artifact line: aggregate plus percentile estimates, all in
/// nanoseconds (rendered as milliseconds).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SpanLine {
    pub count: u64,
    pub total_nanos: u64,
    pub p50_nanos: u64,
    pub p99_nanos: u64,
}

/// Escapes a string for embedding in a JSON document.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Wall nanoseconds rendered as milliseconds with fixed precision.
fn wall_ms(nanos: u64) -> String {
    format!("{:.3}", nanos as f64 / 1e6)
}

fn push_map(out: &mut String, key: &str, map: &BTreeMap<String, u64>) {
    out.push_str(&format!("  \"{key}\": {{\n"));
    let mut first = true;
    for (name, value) in map {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!("    \"{}\": {}", escape(name), value));
    }
    if !first {
        out.push('\n');
    }
    out.push_str("  }");
}

/// Renders the full artifact document. Called via
/// [`crate::registry::Registry::render_json`].
pub(crate) fn render(
    counters: &BTreeMap<String, u64>,
    gauges: &BTreeMap<String, u64>,
    process: &BTreeMap<String, u64>,
    spans: &BTreeMap<String, SpanLine>,
    events: &[(Level, String)],
    events_dropped: u64,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"format\": \"{FORMAT}\",\n"));
    push_map(&mut out, "counters", counters);
    out.push_str(",\n");
    push_map(&mut out, "gauges", gauges);
    out.push_str(",\n");
    push_map(&mut out, "process", process);
    out.push_str(",\n");
    out.push_str("  \"spans\": [\n");
    let mut first = true;
    for (name, stat) in spans {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"count\": {}, \"wall_ms\": {}, \"p50_ms\": {}, \"p99_ms\": {}}}",
            escape(name),
            stat.count,
            wall_ms(stat.total_nanos),
            wall_ms(stat.p50_nanos),
            wall_ms(stat.p99_nanos)
        ));
    }
    if !first {
        out.push('\n');
    }
    out.push_str("  ],\n");
    out.push_str("  \"events\": [\n");
    let mut first = true;
    for (level, message) in events {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "    {{\"level\": \"{}\", \"message\": \"{}\"}}",
            level.label(),
            escape(message)
        ));
    }
    if !first {
        out.push('\n');
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"events_dropped\": {events_dropped}\n"));
    out.push_str("}\n");
    out
}

/// Replaces every duration in an artifact — each span's `"wall_ms"`,
/// `"p50_ms"` and `"p99_ms"`, and each `process` entry whose name ends in
/// `_us` — with `0.000`, leaving everything else byte-for-byte intact.
/// Two runs of the same workload then byte-compare equal regardless of
/// timing.
pub fn zero_wall_times(artifact: &str) -> String {
    const KEYS: [&str; 4] = ["\"wall_ms\": ", "\"p50_ms\": ", "\"p99_ms\": ", "_us\": "];
    let mut out = String::with_capacity(artifact.len());
    let mut rest = artifact;
    // Zero whichever duration key comes next in the document, repeatedly.
    while let Some((pos, key)) = KEYS
        .iter()
        .filter_map(|k| rest.find(k).map(|p| (p, *k)))
        .min_by_key(|(p, _)| *p)
    {
        let after = pos + key.len();
        out.push_str(&rest[..after]);
        rest = &rest[after..];
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
            .unwrap_or(rest.len());
        out.push_str("0.000");
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> String {
        let mut counters = BTreeMap::new();
        counters.insert("sim.tests".to_string(), 42u64);
        counters.insert("drop.non-finite".to_string(), 3u64);
        let mut gauges = BTreeMap::new();
        gauges.insert("topology.links".to_string(), 7u64);
        let mut process = BTreeMap::new();
        process.insert("exec.attempts".to_string(), 2u64);
        process.insert("route.miss_us".to_string(), 4_321u64);
        let mut spans = BTreeMap::new();
        spans.insert(
            "stage.corpus".to_string(),
            SpanLine { count: 1, total_nanos: 1_234_567, p50_nanos: 1_234_567, p99_nanos: 1_234_567 },
        );
        spans.insert(
            "stage.corpus/simulate".to_string(),
            SpanLine { count: 3, total_nanos: 999, p50_nanos: 333, p99_nanos: 500 },
        );
        let events = vec![(Level::Info, "hello \"world\"\n".to_string())];
        render(&counters, &gauges, &process, &spans, &events, 0)
    }

    #[test]
    fn render_has_fixed_key_order_and_sorted_entries() {
        let doc = sample();
        let format_pos = doc.find("\"format\"").expect("format key");
        let counters_pos = doc.find("\"counters\"").expect("counters key");
        let gauges_pos = doc.find("\"gauges\"").expect("gauges key");
        let process_pos = doc.find("\"process\"").expect("process key");
        let spans_pos = doc.find("\"spans\"").expect("spans key");
        let events_pos = doc.find("\"events\"").expect("events key");
        assert!(format_pos < counters_pos);
        assert!(counters_pos < gauges_pos);
        assert!(gauges_pos < process_pos);
        assert!(process_pos < spans_pos);
        assert!(spans_pos < events_pos);
        // BTreeMap ordering: drop.non-finite sorts before sim.tests.
        let drop_pos = doc.find("drop.non-finite").expect("drop counter");
        let sim_pos = doc.find("sim.tests").expect("sim counter");
        assert!(drop_pos < sim_pos);
    }

    #[test]
    fn events_are_escaped() {
        let doc = sample();
        assert!(doc.contains("hello \\\"world\\\"\\n"));
    }

    #[test]
    fn zero_wall_times_blanks_only_durations() {
        let doc = sample();
        let zeroed = zero_wall_times(&doc);
        assert!(zeroed.contains("\"wall_ms\": 0.000,"));
        assert!(zeroed.contains("\"p50_ms\": 0.000,"));
        assert!(zeroed.contains("\"p99_ms\": 0.000}"));
        assert!(!zeroed.contains("1.235"));
        assert!(zeroed.contains("\"route.miss_us\": 0.000\n"));
        // Counter values untouched.
        assert!(zeroed.contains("\"sim.tests\": 42"));
        assert!(zeroed.contains("\"exec.attempts\": 2,"));
        // Zeroing a doc twice is a fixed point.
        assert_eq!(zero_wall_times(&zeroed), zeroed);
    }

    #[test]
    fn zeroed_docs_compare_equal_when_only_durations_differ() {
        let mut spans_a = BTreeMap::new();
        spans_a.insert(
            "stage.x".to_string(),
            SpanLine { count: 1, total_nanos: 10, p50_nanos: 10, p99_nanos: 10 },
        );
        let mut spans_b = BTreeMap::new();
        spans_b.insert(
            "stage.x".to_string(),
            SpanLine { count: 1, total_nanos: 99_999, p50_nanos: 9_999, p99_nanos: 99_999 },
        );
        let empty = BTreeMap::new();
        let a = render(&empty, &empty, &empty, &spans_a, &[], 0);
        let b = render(&empty, &empty, &empty, &spans_b, &[], 0);
        assert_ne!(a, b);
        assert_eq!(zero_wall_times(&a), zero_wall_times(&b));
    }

    #[test]
    fn empty_registry_renders_valid_shape() {
        let empty = BTreeMap::new();
        let spans: BTreeMap<String, SpanLine> = BTreeMap::new();
        let doc = render(&empty, &empty, &empty, &spans, &[], 0);
        assert!(doc.contains("\"counters\": {"));
        assert!(doc.contains("\"events_dropped\": 0"));
    }
}
