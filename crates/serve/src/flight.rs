//! Per-job flight recorder: a bounded ring of lifecycle events dumped as
//! JSONL evidence when a job goes wrong.
//!
//! A healthy job's recorder is dropped silently at completion. When a job
//! fails, is canceled by its deadline, or produces a quarantined store
//! entry, the ring is dumped next to the artifact store — one file per
//! job, newest `FLIGHT_CAP` events, oldest dropped first — so a wedged or
//! failed job leaves evidence behind even though the server kept running.
//! The dump is plain JSONL with a header line, greppable without tooling.

use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;

use crate::json::Json;

/// Ring capacity per job. 256 events comfortably covers accept → queue →
/// start → per-chunk progress → terminal for any realistic campaign while
/// bounding a pathological job's memory at a few tens of KiB.
pub const FLIGHT_CAP: usize = 256;

/// One recorded lifecycle event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Microseconds since the server started.
    pub t_us: u64,
    /// Event kind: `accept`, `queue`, `start`, `progress`, `done`,
    /// `fail`, `cancel`, `deadline`, `quarantine`.
    pub kind: &'static str,
    /// Free-form detail (queue depth, progress counts, error text...).
    pub detail: String,
}

impl FlightEvent {
    /// The event as one JSONL record (`Display` renders the line).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("t_us", self.t_us.into()),
            ("kind", self.kind.into()),
            ("detail", self.detail.as_str().into()),
        ])
    }
}

/// Drop-oldest ring of [`FlightEvent`]s for one job.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    job: u64,
    events: VecDeque<FlightEvent>,
    dropped: u64,
}

impl FlightRecorder {
    /// A recorder for server job `job`.
    pub fn new(job: u64) -> Self {
        FlightRecorder {
            job,
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// The job this recorder belongs to.
    pub fn job(&self) -> u64 {
        self.job
    }

    /// Events currently held (after any drops).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded (and nothing dropped).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.dropped == 0
    }

    /// Record one event, dropping the oldest past [`FLIGHT_CAP`].
    pub fn record(&mut self, t_us: u64, kind: &'static str, detail: impl Into<String>) {
        if self.events.len() == FLIGHT_CAP {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(FlightEvent {
            t_us,
            kind,
            detail: detail.into(),
        });
    }

    /// Render the ring as JSONL: a header line documenting the job and any
    /// drop-oldest truncation, then one line per retained event in order.
    pub fn to_jsonl(&self) -> String {
        let header = Json::obj([
            ("flight", Json::from(1u64)),
            ("job", self.job.into()),
            ("events", self.events.len().into()),
            ("dropped", self.dropped.into()),
        ]);
        let mut out = format!("{header}\n");
        for e in &self.events {
            out.push_str(&format!("{}\n", e.to_json()));
        }
        out
    }

    /// Dump the ring as `job-<id>.jsonl` under `dir`, creating the
    /// directory if needed. Best-effort by design — the dump happens on a
    /// failure path, and evidence writing must never turn one failed job
    /// into a failed server — so errors are returned for logging, not
    /// propagation.
    ///
    /// # Errors
    ///
    /// Directory-creation and write failures.
    pub fn dump(&self, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("job-{}.jsonl", self.job));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(self.to_jsonl().as_bytes())?;
        f.flush()?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_and_documents_it() {
        let mut r = FlightRecorder::new(7);
        assert!(r.is_empty());
        for i in 0..(FLIGHT_CAP as u64 + 10) {
            r.record(i, "progress", format!("done={i}"));
        }
        assert_eq!(r.len(), FLIGHT_CAP);
        let text = r.to_jsonl();
        let mut lines = text.lines();
        assert_eq!(
            lines.next().unwrap(),
            format!("{{\"flight\":1,\"job\":7,\"events\":{FLIGHT_CAP},\"dropped\":10}}")
        );
        // Oldest 10 dropped: the first retained event is t_us=10.
        assert_eq!(
            lines.next().unwrap(),
            "{\"t_us\":10,\"kind\":\"progress\",\"detail\":\"done=10\"}"
        );
        assert_eq!(text.lines().count(), FLIGHT_CAP + 1);
    }

    #[test]
    fn dump_writes_one_file_per_job() {
        let dir = std::env::temp_dir().join(format!(
            "turnpike-flight-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut r = FlightRecorder::new(3);
        r.record(5, "accept", "queue_depth=1");
        r.record(9, "fail", "kernel 'warp' not found");
        let path = r.dump(&dir.join("flight")).unwrap();
        assert_eq!(path.file_name().unwrap(), "job-3.jsonl");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"flight\":1,\"job\":3,\"events\":2,\"dropped\":0}\n"));
        assert!(text.contains("\"kind\":\"fail\""));
        assert!(text.contains("kernel 'warp' not found"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
