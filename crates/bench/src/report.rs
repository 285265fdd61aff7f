//! `BENCH_reproduce.json` as a merged, multi-block perf record.
//!
//! Every generating `reproduce` invocation — figure targets, `telemetry`,
//! `explore`, `sim-throughput` — records its perf block here, so one
//! command never discards another's record. The file is a single top-level
//! JSON object keyed by block name:
//!
//! ```json
//! {
//!   "all": { "target": "all", "wall_ms": 1234, ... },
//!   "telemetry": { "scale": "smoke", "overhead_pct": 0.8, ... },
//!   "sim_throughput": { "golden_path_ns_per_inst": 18.4, ... }
//! }
//! ```
//!
//! [`write_block`] upserts one block and preserves every other, so the
//! record accretes across invocations instead of thrashing. The scanner is
//! hand-rolled (the workspace has no JSON dependency, by design): it splits
//! the top-level object into raw `(key, value)` slices — values are kept
//! verbatim, never re-serialized — with string- and nesting-aware scanning.
//! The one-level nesting indent the writer adds is stripped again on load,
//! so a block that a write does not touch stays byte-identical.

use std::io;
use std::path::Path;

/// Split the top-level JSON object of `doc` into raw `(key, value)` pairs,
/// values verbatim (trimmed). `None` when `doc` is not a `{...}` object or
/// is malformed — callers treat that as "no prior record".
fn parse_blocks(doc: &str) -> Option<Vec<(String, String)>> {
    let s = doc.as_bytes();
    let mut i = skip_ws(s, 0);
    if i >= s.len() || s[i] != b'{' {
        return None;
    }
    i = skip_ws(s, i + 1);
    let mut out = Vec::new();
    if i < s.len() && s[i] == b'}' {
        return (skip_ws(s, i + 1) == s.len()).then_some(out);
    }
    loop {
        let (key, after_key) = scan_string(s, i)?;
        i = skip_ws(s, after_key);
        if i >= s.len() || s[i] != b':' {
            return None;
        }
        i = skip_ws(s, i + 1);
        let end = scan_value(s, i)?;
        out.push((key, doc[i..end].trim().to_string()));
        i = skip_ws(s, end);
        match s.get(i) {
            Some(b',') => i = skip_ws(s, i + 1),
            Some(b'}') => {
                return (skip_ws(s, i + 1) == s.len()).then_some(out);
            }
            _ => return None,
        }
    }
}

fn skip_ws(s: &[u8], mut i: usize) -> usize {
    while i < s.len() && s[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// Scan a JSON string starting at `i` (must be `"`); returns its unescaped-
/// naive content (escapes are skipped, not decoded — block keys are plain
/// identifiers) and the index just past the closing quote.
fn scan_string(s: &[u8], i: usize) -> Option<(String, usize)> {
    if s.get(i) != Some(&b'"') {
        return None;
    }
    let mut j = i + 1;
    while j < s.len() {
        match s[j] {
            b'\\' => j += 2,
            b'"' => {
                let content = std::str::from_utf8(&s[i + 1..j]).ok()?;
                return Some((content.to_string(), j + 1));
            }
            _ => j += 1,
        }
    }
    None
}

/// Scan one JSON value starting at `i`; returns the index just past it.
/// Balances `{}`/`[]` outside strings; scalars run until a top-level
/// delimiter (`,`, `}`, `]`) or end of input.
fn scan_value(s: &[u8], i: usize) -> Option<usize> {
    match s.get(i)? {
        b'"' => scan_string(s, i).map(|(_, end)| end),
        b'{' | b'[' => {
            let mut depth = 0usize;
            let mut j = i;
            while j < s.len() {
                match s[j] {
                    b'"' => j = scan_string(s, j)?.1,
                    b'{' | b'[' => {
                        depth += 1;
                        j += 1;
                    }
                    b'}' | b']' => {
                        depth -= 1;
                        j += 1;
                        if depth == 0 {
                            return Some(j);
                        }
                    }
                    _ => j += 1,
                }
            }
            None
        }
        _ => {
            let mut j = i;
            while j < s.len() && !matches!(s[j], b',' | b'}' | b']') && !s[j].is_ascii_whitespace()
            {
                j += 1;
            }
            (j > i).then_some(j)
        }
    }
}

/// The blocks of an existing record, each value with the nesting indent
/// of [`indent`] stripped again.
fn load_blocks(doc: &str) -> Vec<(String, String)> {
    let mut blocks = parse_blocks(doc).unwrap_or_default();
    for (_, v) in &mut blocks {
        *v = v.replace("\n  ", "\n");
    }
    blocks
}

/// Re-indent a multi-line raw value so it nests one level deep: every line
/// after the first gains a two-space prefix.
fn indent(value: &str) -> String {
    value.trim().replace('\n', "\n  ")
}

/// Merge `(key, value)` into the record `doc`, replacing the block in place
/// if the key exists (order is preserved; new keys append). Returns the new
/// document text.
pub fn upsert_block(doc: &str, key: &str, value: &str) -> String {
    let mut blocks = load_blocks(doc);
    match blocks.iter_mut().find(|(k, _)| k == key) {
        Some(slot) => slot.1 = value.trim().to_string(),
        None => blocks.push((key.to_string(), value.trim().to_string())),
    }
    let mut out = String::from("{\n");
    for (i, (k, v)) in blocks.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!("  {}: {}", crate::json_string(k), indent(v)));
    }
    out.push_str("\n}\n");
    out
}

/// Upsert one block into the record at `path` (created if absent; an
/// unreadable or malformed record is replaced by a fresh one holding only
/// this block).
pub fn write_block(path: impl AsRef<Path>, key: &str, value: &str) -> io::Result<()> {
    let path = path.as_ref();
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    std::fs::write(path, upsert_block(&existing, key, value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_file_holds_one_block() {
        let doc = upsert_block("", "fig21", "{\n  \"wall_ms\": 3\n}");
        assert_eq!(doc, "{\n  \"fig21\": {\n    \"wall_ms\": 3\n  }\n}\n");
        assert_eq!(load_blocks(&doc).len(), 1);
    }

    #[test]
    fn merge_preserves_other_blocks() {
        // The regression this module exists for: one command's record
        // after a figure run must not discard the figure's (or vice versa).
        let doc = upsert_block("", "all", "{\"wall_ms\": 10}");
        let doc = upsert_block(&doc, "telemetry", "{\"runs\": 4}");
        let blocks = load_blocks(&doc);
        assert_eq!(
            blocks,
            vec![
                ("all".into(), "{\"wall_ms\": 10}".into()),
                ("telemetry".into(), "{\"runs\": 4}".into()),
            ]
        );
    }

    #[test]
    fn upsert_replaces_in_place() {
        let doc = upsert_block("", "a", "1");
        let doc = upsert_block(&doc, "b", "2");
        let doc = upsert_block(&doc, "a", "3");
        assert_eq!(
            load_blocks(&doc),
            vec![("a".into(), "3".into()), ("b".into(), "2".into())]
        );
    }

    #[test]
    fn untouched_multi_line_block_is_byte_stable_across_rewrites() {
        let kept = "{\n  \"scale\": \"smoke\",\n  \"rows\": [\n    {\"a\": 1}\n  ]\n}";
        let doc = upsert_block("", "kept", kept);
        let doc = upsert_block(&doc, "other", "{\n  \"wall_ms\": 1\n}");
        let mut text = doc.clone();
        for wall_ms in 2..5 {
            text = upsert_block(&text, "other", &format!("{{\n  \"wall_ms\": {wall_ms}\n}}"));
            let kept_now = &text[..text.find(",\n  \"other\"").unwrap()];
            let kept_then = &doc[..doc.find(",\n  \"other\"").unwrap()];
            assert_eq!(
                kept_now, kept_then,
                "rewrite {wall_ms} moved the kept block"
            );
        }
        assert_eq!(load_blocks(&text)[0], ("kept".into(), kept.into()));
    }

    #[test]
    fn malformed_record_is_replaced() {
        for junk in ["not json", "[1, 2]", "{\"unterminated\": ", ""] {
            let doc = upsert_block(junk, "k", "{\"v\": 1}");
            assert_eq!(load_blocks(&doc), vec![("k".into(), "{\"v\": 1}".into())]);
        }
    }

    #[test]
    fn values_survive_nesting_strings_and_escapes() {
        let gnarly = r#"{"s": "br}ace, \"q\" [", "arr": [1, {"x": [2]}], "n": -1.5e3}"#;
        let doc = upsert_block("", "g", gnarly);
        let doc = upsert_block(&doc, "h", "true");
        let blocks = load_blocks(&doc);
        assert_eq!(blocks[0].0, "g");
        // Round-trip: the value comes back verbatim.
        assert_eq!(blocks[0].1, gnarly);
        assert_eq!(blocks[1], ("h".into(), "true".into()));
    }

    #[test]
    fn write_block_round_trips_on_disk() {
        let dir = std::env::temp_dir().join(format!("tp-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_reproduce.json");
        write_block(&path, "all", "{\"wall_ms\": 1}").unwrap();
        write_block(
            &path,
            "sim_throughput",
            "{\"golden_path_ns_per_inst\": 18.0}",
        )
        .unwrap();
        write_block(&path, "all", "{\"wall_ms\": 2}").unwrap();
        let doc = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let blocks = load_blocks(&doc);
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0], ("all".into(), "{\"wall_ms\": 2}".into()));
        assert_eq!(blocks[1].0, "sim_throughput");
    }
}
