//! In-memory span recorder for traced runs, and the per-layer ledger built
//! from it.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer's public API (nothing inside the program is instrumented).
//! A span has a name, the layer it is charged to, start and end offsets
//! from the run's epoch, its parent, and the operation (request, campaign,
//! figure pass, ...) it belongs to. Some child spans are *derived*: they
//! are placed from timestamps the API hands back (campaign `on_run`
//! callbacks, the explorer's per-stage log lines, the engine's own
//! compile/simulate timers) rather than bracketing a call made here.
//!
//! A span's self time is its duration minus the part of its interval its
//! children cover. Root spans are charged to [`HARNESS`]: their self time
//! is the time no layer accounts for. Spans charged to [`PROBE`] are extra
//! calls the traced mode makes to measure a layer the workload calls
//! internally (for example compiling a kernel the campaign also compiles);
//! they are tracing overhead, not workload time.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Layer charged with root-span self time: unaccounted harness time.
pub const HARNESS: &str = "unaccounted";
/// Layer of measurement-only probe calls.
pub const PROBE: &str = "probe";

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran (`"campaign"`, `"strike_run"`, `"fig19"`, ...).
    pub name: String,
    /// The layer the span's self time is charged to.
    pub layer: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Operation id shared by every span of one operation.
    pub op: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span store for one run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose offsets count from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Offset of `t` from the epoch, nanoseconds.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span between two instants; returns its index.
    pub fn span(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        let (s, e) = (self.ns(start), self.ns(end));
        self.span_ns(name, layer, s, e, parent, op)
    }

    /// Record a span from epoch offsets (derived spans); returns its index.
    pub fn span_ns(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            layer,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Move the end of span `i` (a root opened before its end was known).
    pub fn set_end(&mut self, i: usize, end_ns: u64) {
        let s = &mut self.spans[i];
        s.end_ns = end_ns.max(s.start_ns);
    }

    /// Self time of every span, nanoseconds, in span order.
    fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                // Union of the children's intervals, clipped to the parent.
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for (a, b) in kids {
                    let a = a.max(cursor);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                s.dur_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Self time per layer, seconds (probe spans included under
    /// [`PROBE`], root self time under [`HARNESS`]).
    pub fn ledger(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let layer = if s.parent.is_none() { HARNESS } else { s.layer };
            *out.entry(layer).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Total duration of the root spans, seconds.
    pub fn root_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .sum()
    }

    /// Share of workload time (root time minus probe time) that no layer
    /// accounts for.
    pub fn unaccounted_share(&self) -> f64 {
        let ledger = self.ledger();
        let probe = ledger.get(PROBE).copied().unwrap_or(0.0);
        let harness = ledger.get(HARNESS).copied().unwrap_or(0.0);
        crate::stats::ratio(harness, self.root_s() - probe)
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                s.name,
                s.layer,
                s.start_ns,
                s.end_ns,
                s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
                s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.span_ns("rep", "bench", 0, 100, None, 0);
        let a = t.span_ns("a", "sim", 10, 50, Some(root), 1);
        t.span_ns("b", "sim", 40, 70, Some(root), 1);
        t.span_ns("a.child", "compiler", 20, 30, Some(a), 1);
        t.span_ns("probe", PROBE, 80, 90, Some(root), 2);
        let ledger = t.ledger();
        // Root: 100 minus [10, 70] and [80, 90] = 30 unaccounted.
        assert!((ledger[HARNESS] - 30e-9).abs() < 1e-15);
        // a: 40 - 10 = 30, b: 30 -> sim 60; compiler 10; probe 10.
        assert!((ledger["sim"] - 60e-9).abs() < 1e-15);
        assert!((ledger["compiler"] - 10e-9).abs() < 1e-15);
        assert!((t.unaccounted_share() - 30.0 / 90.0).abs() < 1e-12);
    }
}
