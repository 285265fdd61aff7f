//! `BENCH_reproduce.json` as a merged, multi-block perf record.
//!
//! Every generating `reproduce` invocation — figure targets, `telemetry`,
//! `explore` — records its perf block here, so one command never discards
//! another's record. The file is a single top-level JSON object keyed by
//! block name:
//!
//! ```json
//! {
//!   "all": {"target": "all", "wall_ms": 1234, ...},
//!   "telemetry": {"scale": "smoke", "overhead_pct": 0.8, ...},
//!   "explore": {"grid_raw": 864, "frontier": 12, ...}
//! }
//! ```
//!
//! [`write_block`] upserts one block and preserves every other, so the
//! record accretes across invocations instead of thrashing: the record is
//! parsed with the shared [`Json`] layer, the one member replaced (or
//! appended), and the whole document written back in its one
//! [`Json::pretty`] layout. Number tokens survive the parse verbatim, so a
//! block that a write does not touch stays byte-identical.

use std::io;
use std::path::Path;

use turnpike_metrics::Json;

/// Merge `(key, value)` into the record `doc`, replacing the block in place
/// if the key exists (order is preserved; new keys append). A `doc` that is
/// not a JSON object is treated as no prior record. Returns the new
/// document text.
pub fn upsert_block(doc: &str, key: &str, value: Json) -> String {
    let mut blocks = match Json::parse(doc) {
        Ok(Json::Obj(blocks)) => blocks,
        _ => Vec::new(),
    };
    match blocks.iter_mut().find(|(k, _)| k == key) {
        Some(slot) => slot.1 = value,
        None => blocks.push((key.to_string(), value)),
    }
    Json::Obj(blocks).pretty() + "\n"
}

/// Upsert one block into the record at `path` (created if absent; an
/// unreadable or malformed record is replaced by a fresh one holding only
/// this block).
pub fn write_block(path: impl AsRef<Path>, key: &str, value: Json) -> io::Result<()> {
    let path = path.as_ref();
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    std::fs::write(path, upsert_block(&existing, key, value))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(doc: &str) -> Vec<(String, Json)> {
        match Json::parse(doc).unwrap() {
            Json::Obj(blocks) => blocks,
            other => panic!("record is not an object: {other}"),
        }
    }

    fn wall_ms(ms: u64) -> Json {
        Json::obj([("wall_ms", Json::from(ms))])
    }

    #[test]
    fn fresh_file_holds_one_block() {
        let doc = upsert_block("", "fig21", wall_ms(3));
        assert_eq!(doc, "{\n  \"fig21\": {\"wall_ms\": 3}\n}\n");
        assert_eq!(blocks(&doc).len(), 1);
    }

    #[test]
    fn merge_preserves_other_blocks() {
        // The regression this module exists for: one command's record
        // after a figure run must not discard the figure's (or vice versa).
        let doc = upsert_block("", "all", wall_ms(10));
        let doc = upsert_block(&doc, "telemetry", Json::obj([("runs", Json::from(4u64))]));
        assert_eq!(
            blocks(&doc),
            vec![
                ("all".into(), wall_ms(10)),
                ("telemetry".into(), Json::obj([("runs", Json::from(4u64))])),
            ]
        );
    }

    #[test]
    fn upsert_replaces_in_place() {
        let doc = upsert_block("", "a", 1u64.into());
        let doc = upsert_block(&doc, "b", 2u64.into());
        let doc = upsert_block(&doc, "a", 3u64.into());
        assert_eq!(
            blocks(&doc),
            vec![("a".into(), 3u64.into()), ("b".into(), 2u64.into())]
        );
    }

    #[test]
    fn untouched_multi_line_block_is_byte_stable_across_rewrites() {
        let kept =
            Json::parse(r#"{"scale": "smoke", "ns": 0.500000, "rows": [{"a": 1}]}"#).unwrap();
        let doc = upsert_block("", "kept", kept.clone());
        let doc = upsert_block(&doc, "other", wall_ms(1));
        let mut text = doc.clone();
        for ms in 2..5 {
            text = upsert_block(&text, "other", wall_ms(ms));
            let kept_now = &text[..text.find(",\n  \"other\"").unwrap()];
            let kept_then = &doc[..doc.find(",\n  \"other\"").unwrap()];
            assert_eq!(kept_now, kept_then, "rewrite {ms} moved the kept block");
        }
        assert_eq!(blocks(&text)[0], ("kept".into(), kept));
        assert!(
            text.contains("\"ns\": 0.500000"),
            "number tokens survive: {text}"
        );
    }

    #[test]
    fn malformed_record_is_replaced() {
        for junk in ["not json", "[1, 2]", "{\"unterminated\": ", ""] {
            let doc = upsert_block(junk, "k", Json::obj([("v", Json::from(1u64))]));
            assert_eq!(
                blocks(&doc),
                vec![("k".into(), Json::obj([("v", Json::from(1u64))]))]
            );
        }
    }

    #[test]
    fn values_survive_nesting_strings_and_escapes() {
        // The value comes back equal, and the record is written in the one
        // canonical layout whatever layout the value was parsed from.
        let gnarly = r#"{"s": "br}ace, \"q\" [",  "arr": [1, {"x": [2]}], "n": -1.5e3}"#;
        let value = Json::parse(gnarly).unwrap();
        let doc = upsert_block("", "g", value.clone());
        let doc = upsert_block(&doc, "h", true.into());
        assert_eq!(
            blocks(&doc),
            vec![("g".into(), value), ("h".into(), Json::Bool(true))]
        );
        assert_eq!(
            doc,
            "{\n  \"g\": {\n    \"s\": \"br}ace, \\\"q\\\" [\",\n    \
             \"arr\": [\n      1,\n      {\"x\": [2]}\n    ],\n    \"n\": -1.5e3\n  },\n  \
             \"h\": true\n}\n"
        );
    }

    #[test]
    fn write_block_round_trips_on_disk() {
        let dir = std::env::temp_dir().join(format!("tp-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_reproduce.json");
        write_block(&path, "all", wall_ms(1)).unwrap();
        write_block(
            &path,
            "telemetry",
            Json::obj([("overhead_pct", Json::from(0.8))]),
        )
        .unwrap();
        write_block(&path, "all", wall_ms(2)).unwrap();
        let doc = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let blocks = blocks(&doc);
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0], ("all".into(), wall_ms(2)));
        assert_eq!(blocks[1].0, "telemetry");
    }
}
