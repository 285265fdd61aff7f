//! Every committed JSON artifact is exactly what the one JSON layer writes:
//! parsing a golden file and rendering it again (pretty for files, compact
//! for JSONL lines) reproduces it byte for byte. A layout or number-format
//! drift in `turnpike_metrics::json` shows up here before any golden diff.

use turnpike_metrics::Json;

fn pretty_round_trips(label: &str, text: &str) {
    let v = Json::parse(text).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(v.pretty(), text, "{label}: pretty layout drifted");
}

#[test]
fn every_table_of_the_smoke_golden_round_trips() {
    let golden = include_str!("../golden/all_smoke.json");
    // `reproduce all --json` prints one pretty table per block, each
    // closed by a `}` alone on its line.
    let tables: Vec<&str> = golden.split_inclusive("\n}\n").collect();
    assert_eq!(tables.len(), 18, "one block per figure target");
    for table in tables {
        let table = table.strip_suffix('\n').expect("newline-terminated");
        let id = Json::parse(table)
            .ok()
            .and_then(|v| v.get("id").and_then(Json::as_str).map(str::to_string))
            .unwrap_or_default();
        pretty_round_trips(&id, table);
    }
}

#[test]
fn the_explore_frontier_golden_round_trips() {
    let golden = include_str!("../golden/explore_smoke.json");
    pretty_round_trips(
        "explore_smoke.json",
        golden.strip_suffix('\n').expect("newline-terminated"),
    );
}

#[test]
fn the_committed_bench_record_round_trips() {
    let record = include_str!("../../../BENCH_reproduce.json");
    pretty_round_trips(
        "BENCH_reproduce.json",
        record.strip_suffix('\n').expect("newline-terminated"),
    );
}

#[test]
fn every_trace_golden_line_round_trips_compact() {
    let golden = include_str!("../golden/trace_smoke.jsonl");
    for line in golden.lines() {
        let v = Json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(v.to_string(), line);
    }
}
