//! Wire protocol: line-delimited JSON requests and streamed response
//! events.
//!
//! One request per line; the server answers with one or more event lines
//! and the final event (`done`, `error`, `overloaded`, `stats`,
//! `shutting_down`) ends the exchange for that request. Connections are
//! kept alive for further requests. All messages are compact single-line
//! [`Json`] with a fixed key order; the `result` payload of a `done` event
//! is the executor's payload, and because [`Json`] keeps number tokens
//! verbatim its compact rendering is byte-identical to the direct-CLI
//! rendering of the same job.

use crate::json::Json;

/// What kind of work a job asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// Compile one kernel under a scheme and report pass statistics.
    Compile,
    /// Compile + simulate fault-free and report the run result.
    Run,
    /// A fault-injection campaign with an SDC audit.
    Campaign,
    /// Regenerate one figure/table of the paper's evaluation.
    Figure,
}

impl JobKind {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Compile => "compile",
            JobKind::Run => "run",
            JobKind::Campaign => "campaign",
            JobKind::Figure => "figure",
        }
    }

    /// Parse a wire name.
    pub fn parse(name: &str) -> Option<JobKind> {
        match name {
            "compile" => Some(JobKind::Compile),
            "run" => Some(JobKind::Run),
            "campaign" => Some(JobKind::Campaign),
            "figure" => Some(JobKind::Figure),
            _ => None,
        }
    }
}

/// A fully-parsed job request. Field applicability by kind:
/// `kernel`/`scheme`/`sb`/`wcdl` drive `compile`/`run`/`campaign`;
/// `runs`/`seed`/`strikes` drive `campaign` only; `target` drives `figure`
/// only. `scale` and `tag` apply to every kind (`tag` is an opaque client
/// token echoed in every event for this job — concurrent clients use it
/// to prove no job is lost or duplicated).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JobRequest {
    /// Work kind.
    pub kind: JobKind,
    /// Kernel name (e.g. `"bwaves"`), searched across all suites.
    pub kernel: String,
    /// Scheme CLI name (e.g. `"turnpike"`).
    pub scheme: String,
    /// Workload scale: `"smoke"` or `"full"`.
    pub scale: String,
    /// Store-buffer entries.
    pub sb: u32,
    /// Worst-case detection latency in cycles.
    pub wcdl: u64,
    /// Campaign: injected runs.
    pub runs: u64,
    /// Campaign: RNG seed.
    pub seed: u64,
    /// Campaign: strikes per run.
    pub strikes: u64,
    /// Figure: target name (e.g. `"fig19"`).
    pub target: String,
    /// Campaign: first global run index of this shard. `0` (the default)
    /// is a whole campaign; a distributed coordinator sets it so a worker
    /// executes the runs `run_offset .. run_offset + runs` of a larger
    /// campaign. Omitted from the wire when `0`, so unsharded requests
    /// render exactly as they always did.
    pub run_offset: u64,
    /// CLQ design override (e.g. `"compact-4"`, `"cam-4"`, `"off"`,
    /// `"ideal"`); empty (the default) keeps the scheme's own CLQ. The
    /// design-space explorer sets this; like `run_offset`, it is omitted
    /// from the wire when default so pre-explorer requests render exactly
    /// as they always did. The server validates the name at resolve time.
    pub clq: String,
    /// Color-pool size override; `0` (the default) keeps the scheme's own
    /// color count. Omitted from the wire when `0`.
    pub colors: u64,
    /// Cache geometry name (e.g. `"slim"`); empty (the default) keeps the
    /// simulator's default geometry. Omitted from the wire when empty.
    pub geom: String,
    /// Opaque client token echoed in every event; empty = none.
    pub tag: String,
}

impl JobRequest {
    /// A request with protocol defaults: smoke-scale `bwaves` under
    /// `turnpike`, 4-entry SB, WCDL 10, 8-run single-strike campaigns.
    pub fn new(kind: JobKind) -> JobRequest {
        JobRequest {
            kind,
            kernel: "bwaves".to_string(),
            scheme: "turnpike".to_string(),
            scale: "smoke".to_string(),
            sb: 4,
            wcdl: 10,
            runs: 8,
            seed: 0xF00D,
            strikes: 1,
            target: "summary".to_string(),
            run_offset: 0,
            clq: String::new(),
            colors: 0,
            geom: String::new(),
            tag: String::new(),
        }
    }

    /// Parse a request object (already dispatched on `"type"`).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending field.
    pub fn from_json(kind: JobKind, v: &Json) -> Result<JobRequest, String> {
        let mut req = JobRequest::new(kind);
        let get_str = |key: &str, into: &mut String| -> Result<(), String> {
            if let Some(field) = v.get(key) {
                *into = field
                    .as_str()
                    .ok_or_else(|| format!("'{key}' must be a string"))?
                    .to_string();
            }
            Ok(())
        };
        let get_u64 = |key: &str, into: &mut u64| -> Result<(), String> {
            if let Some(field) = v.get(key) {
                *into = field
                    .as_u64()
                    .ok_or_else(|| format!("'{key}' must be a non-negative integer"))?;
            }
            Ok(())
        };
        get_str("kernel", &mut req.kernel)?;
        get_str("scheme", &mut req.scheme)?;
        get_str("scale", &mut req.scale)?;
        get_str("target", &mut req.target)?;
        get_str("tag", &mut req.tag)?;
        let mut sb = u64::from(req.sb);
        get_u64("sb", &mut sb)?;
        req.sb = u32::try_from(sb).map_err(|_| "'sb' out of range".to_string())?;
        get_u64("wcdl", &mut req.wcdl)?;
        get_u64("runs", &mut req.runs)?;
        get_u64("seed", &mut req.seed)?;
        get_u64("strikes", &mut req.strikes)?;
        get_u64("run_offset", &mut req.run_offset)?;
        get_str("clq", &mut req.clq)?;
        get_u64("colors", &mut req.colors)?;
        get_str("geom", &mut req.geom)?;
        if req.colors > 255 {
            return Err("'colors' must be <= 255".to_string());
        }
        if !matches!(req.scale.as_str(), "smoke" | "full") {
            return Err(format!(
                "'scale' must be 'smoke' or 'full', got '{}'",
                req.scale
            ));
        }
        if req.kind == JobKind::Campaign && (req.runs == 0 || req.strikes == 0) {
            return Err("'runs' and 'strikes' must be >= 1".to_string());
        }
        if req.run_offset.checked_add(req.runs).is_none() {
            return Err("'run_offset' + 'runs' overflows".to_string());
        }
        if req.sb == 0 {
            return Err("'sb' must be >= 1".to_string());
        }
        Ok(req)
    }

    /// Render the request as one wire line (no trailing newline). Key order
    /// is fixed; defaults are written out so the line is self-describing.
    pub fn to_line(&self) -> String {
        let mut m: Vec<(&str, Json)> = vec![
            ("type", self.kind.name().into()),
            ("kernel", self.kernel.as_str().into()),
            ("scheme", self.scheme.as_str().into()),
            ("scale", self.scale.as_str().into()),
            ("sb", self.sb.into()),
            ("wcdl", self.wcdl.into()),
            ("runs", self.runs.into()),
            ("seed", self.seed.into()),
            ("strikes", self.strikes.into()),
            ("target", self.target.as_str().into()),
        ];
        if self.run_offset != 0 {
            m.push(("run_offset", self.run_offset.into()));
        }
        if !self.clq.is_empty() {
            m.push(("clq", self.clq.as_str().into()));
        }
        if self.colors != 0 {
            m.push(("colors", self.colors.into()));
        }
        if !self.geom.is_empty() {
            m.push(("geom", self.geom.as_str().into()));
        }
        if !self.tag.is_empty() {
            m.push(("tag", self.tag.as_str().into()));
        }
        Json::obj(m).to_string()
    }
}

/// Any request a connection can carry.
// One `Request` exists per parsed line and is consumed immediately; the
// size skew against the dataless control variants buys nothing to box.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job.
    Job(JobRequest),
    /// Ask for a metrics/queue snapshot.
    Stats,
    /// Ask for a Prometheus-style text exposition of the live registry.
    Metrics,
    /// Begin graceful shutdown: drain in-flight jobs, then exit.
    Shutdown,
}

impl Request {
    /// Parse one request line.
    ///
    /// # Errors
    ///
    /// A human-readable message (sent back in an `error` event).
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        let kind = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| "request needs a string 'type' field".to_string())?;
        match kind {
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            other => match JobKind::parse(other) {
                Some(k) => Ok(Request::Job(JobRequest::from_json(k, &v)?)),
                None => Err(format!(
                    "unknown request type '{other}' (expected compile|run|campaign|figure|stats|metrics|shutdown)"
                )),
            },
        }
    }
}

/// Where a job's result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreStatus {
    /// Served from the persistent artifact store.
    Hit,
    /// Computed (and written to the store if one is configured).
    Miss,
    /// No artifact store configured, or the job kind is not cacheable.
    Off,
}

impl StoreStatus {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            StoreStatus::Hit => "hit",
            StoreStatus::Miss => "miss",
            StoreStatus::Off => "off",
        }
    }
}

/// The campaign estimator payload carried by enriched `progress` events:
/// exact outcome counts over the completed runs, SDC/detection rates with
/// 95% Wilson confidence bounds, and windowed throughput/ETA.
///
/// All fields are optional on the wire as a unit — a `progress` line
/// either carries the full payload (new servers running campaign jobs) or
/// none of it (old servers, or job kinds without estimators). Old clients
/// ignore the extra keys; new clients parse a bare line as `stats: None`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProgressStats {
    /// Runs that detected and recovered every in-run strike.
    pub recovered: u64,
    /// Runs whose strikes all landed at or past completion.
    pub post_completion: u64,
    /// Runs with silent data corruption.
    pub sdc: u64,
    /// Runs aborted by the campaign watchdog.
    pub hangs: u64,
    /// Total detections across completed runs.
    pub detections: u64,
    /// Per-run SDC rate point estimate.
    pub sdc_rate: f64,
    /// Lower 95% Wilson bound on the SDC rate.
    pub sdc_ci_lo: f64,
    /// Upper 95% Wilson bound on the SDC rate.
    pub sdc_ci_hi: f64,
    /// Per-run detection (recovery) rate point estimate.
    pub det_rate: f64,
    /// Lower 95% Wilson bound on the detection rate.
    pub det_ci_lo: f64,
    /// Upper 95% Wilson bound on the detection rate.
    pub det_ci_hi: f64,
    /// Injected strikes per second, windowed.
    pub strikes_per_sec: f64,
    /// Host nanoseconds per simulated instruction, windowed.
    pub ns_per_inst: f64,
    /// Estimated milliseconds to completion; 0 = unknown.
    pub eta_ms: u64,
    /// Milliseconds since the campaign started.
    pub elapsed_ms: u64,
}

impl ProgressStats {
    /// The payload's members, in the fixed wire order.
    fn members(self) -> [(&'static str, Json); 15] {
        [
            ("recovered", self.recovered.into()),
            ("post_completion", self.post_completion.into()),
            ("sdc", self.sdc.into()),
            ("hangs", self.hangs.into()),
            ("detections", self.detections.into()),
            ("sdc_rate", self.sdc_rate.into()),
            ("sdc_ci_lo", self.sdc_ci_lo.into()),
            ("sdc_ci_hi", self.sdc_ci_hi.into()),
            ("det_rate", self.det_rate.into()),
            ("det_ci_lo", self.det_ci_lo.into()),
            ("det_ci_hi", self.det_ci_hi.into()),
            ("strikes_per_sec", self.strikes_per_sec.into()),
            ("ns_per_inst", self.ns_per_inst.into()),
            ("eta_ms", self.eta_ms.into()),
            ("elapsed_ms", self.elapsed_ms.into()),
        ]
    }

    /// Extract the payload from a parsed `progress` object; `None` when
    /// the line predates the estimator payload (older servers). Unknown
    /// extra fields are ignored, so newer servers stay readable.
    pub fn from_json(v: &Json) -> Option<ProgressStats> {
        let u = |key: &str| v.get(key).and_then(Json::as_u64);
        let f = |key: &str| v.get(key).and_then(Json::as_f64);
        Some(ProgressStats {
            recovered: u("recovered")?,
            post_completion: u("post_completion")?,
            sdc: u("sdc")?,
            hangs: u("hangs")?,
            detections: u("detections")?,
            sdc_rate: f("sdc_rate")?,
            sdc_ci_lo: f("sdc_ci_lo")?,
            sdc_ci_hi: f("sdc_ci_hi")?,
            det_rate: f("det_rate")?,
            det_ci_lo: f("det_ci_lo")?,
            det_ci_hi: f("det_ci_hi")?,
            strikes_per_sec: f("strikes_per_sec")?,
            ns_per_inst: f("ns_per_inst")?,
            eta_ms: u("eta_ms")?,
            elapsed_ms: u("elapsed_ms")?,
        })
    }
}

/// Server→client event lines. Each renders as one line via
/// [`Event::to_line`].
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The job passed admission control and is queued.
    Accepted {
        /// Server-assigned job id.
        job: u64,
        /// Echoed client tag (empty = none).
        tag: String,
        /// Queue depth right after this job was enqueued.
        queue_depth: usize,
    },
    /// Admission control rejected the job: the queue is full.
    Overloaded {
        /// Echoed client tag (empty = none).
        tag: String,
        /// Hint: milliseconds to wait before retrying.
        retry_after_ms: u64,
    },
    /// The server is shutting down and takes no new jobs.
    ShuttingDown {
        /// Echoed client tag (empty = none).
        tag: String,
    },
    /// Periodic progress for long jobs (campaign runs completed so far),
    /// optionally enriched with the campaign estimator payload.
    Progress {
        /// Server-assigned job id.
        job: u64,
        /// Echoed client tag (empty = none).
        tag: String,
        /// Work units done.
        done: u64,
        /// Total work units.
        total: u64,
        /// Estimator payload; `None` renders the historical bare line.
        stats: Option<ProgressStats>,
    },
    /// The job finished; `result` is the executor's payload.
    Done {
        /// Server-assigned job id.
        job: u64,
        /// Echoed client tag (empty = none).
        tag: String,
        /// Artifact-store disposition of the result.
        store: StoreStatus,
        /// Executor payload.
        result: Json,
    },
    /// The job (or request) failed.
    Error {
        /// Server-assigned job id; 0 when the request never became a job.
        job: u64,
        /// Echoed client tag (empty = none).
        tag: String,
        /// What went wrong.
        message: String,
    },
    /// Snapshot answer to a `stats` request.
    Stats {
        /// The server's stats object.
        body: Json,
    },
    /// Answer to a `metrics` request: the server's live registry as
    /// Prometheus text exposition, carried as one JSON string (newlines
    /// escaped on the wire).
    Metrics {
        /// Exposition text (multi-line, stable line order).
        body: String,
    },
}

impl Event {
    /// Render as one wire line (no trailing newline): `event`, then `job`
    /// and `tag` where the event has them, then the event's own fields.
    pub fn to_line(&self) -> String {
        let (name, job, tag, rest): (&str, Option<u64>, &str, Vec<(&str, Json)>) = match self {
            Event::Accepted {
                job,
                tag,
                queue_depth,
            } => (
                "accepted",
                Some(*job),
                tag,
                vec![("queue_depth", (*queue_depth).into())],
            ),
            Event::Overloaded {
                tag,
                retry_after_ms,
            } => (
                "overloaded",
                None,
                tag,
                vec![("retry_after_ms", (*retry_after_ms).into())],
            ),
            Event::ShuttingDown { tag } => ("shutting_down", None, tag, Vec::new()),
            Event::Progress {
                job,
                tag,
                done,
                total,
                stats,
            } => {
                let mut rest = vec![("done", (*done).into()), ("total", (*total).into())];
                rest.extend(stats.iter().flat_map(|s| s.members()));
                ("progress", Some(*job), tag, rest)
            }
            Event::Done {
                job,
                tag,
                store,
                result,
            } => (
                "done",
                Some(*job),
                tag,
                vec![("store", store.name().into()), ("result", result.clone())],
            ),
            Event::Error { job, tag, message } => (
                "error",
                Some(*job),
                tag,
                vec![("message", message.as_str().into())],
            ),
            Event::Stats { body } => ("stats", None, "", vec![("server", body.clone())]),
            Event::Metrics { body } => ("metrics", None, "", vec![("body", body.as_str().into())]),
        };
        let head = [("event", Json::from(name))]
            .into_iter()
            .chain(job.map(|j| ("job", j.into())))
            .chain((!tag.is_empty()).then(|| ("tag", tag.into())));
        Json::obj(head.chain(rest)).to_string()
    }
}

/// Default [`LineReader`] line-length cap: longer than any legitimate
/// request by orders of magnitude, small enough that a garbage peer can't
/// grow a connection buffer without bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Read half of a connection's buffer state machine: raw byte chunks go in
/// (whatever a nonblocking read returned), complete trimmed request lines
/// come out. Blank lines are swallowed, exactly like the blocking
/// `read_line` loop this replaces. Bytes past the last newline stay
/// buffered across calls, so a request split over any number of TCP
/// segments reassembles transparently.
#[derive(Debug, Default)]
pub struct LineReader {
    buf: Vec<u8>,
    overflowed: bool,
}

impl LineReader {
    /// An empty reader.
    pub fn new() -> LineReader {
        LineReader::default()
    }

    /// Feed one chunk of raw bytes from the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.overflowed {
            return;
        }
        self.buf.extend_from_slice(bytes);
        if self.buf.len() > MAX_LINE_BYTES && !self.buf.contains(&b'\n') {
            // A peer streaming an unbounded newline-free line is hostile
            // or broken either way; stop buffering and let the connection
            // owner drop it.
            self.overflowed = true;
            self.buf.clear();
        }
    }

    /// Whether the peer exceeded the line-length cap; the connection
    /// should be closed.
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Pop the next complete non-blank line, trimmed, if one is buffered.
    pub fn next_line(&mut self) -> Option<String> {
        loop {
            let pos = self.buf.iter().position(|&b| b == b'\n')?;
            let line: Vec<u8> = self.buf.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&line);
            let line = line.trim();
            if !line.is_empty() {
                return Some(line.to_string());
            }
        }
    }
}

/// Write half of a connection's buffer state machine: whole event lines go
/// in, and [`write_to`](WriteQueue::write_to) drains as many bytes as the
/// nonblocking socket will take, keeping the rest (a partially-written
/// line included) queued for the next readiness notification. Lines are
/// therefore never interleaved or torn on the wire regardless of how the
/// kernel slices the writes.
#[derive(Debug, Default)]
pub struct WriteQueue {
    buf: Vec<u8>,
    /// Bytes of `buf` already written to the socket.
    head: usize,
}

impl WriteQueue {
    /// An empty queue.
    pub fn new() -> WriteQueue {
        WriteQueue::default()
    }

    /// Queue one event line (newline appended).
    pub fn push_line(&mut self, line: &str) {
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
    }

    /// Whether everything queued has been written.
    pub fn is_empty(&self) -> bool {
        self.head == self.buf.len()
    }

    /// Bytes still waiting to go out.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Write as much queued output as `w` will take without blocking.
    /// Returns the bytes written; a `WouldBlock` from the writer is not an
    /// error, it just leaves the remainder queued (register write
    /// interest and call again on readiness).
    ///
    /// # Errors
    ///
    /// Propagates real I/O errors (connection reset, broken pipe, …);
    /// `WouldBlock` and `Interrupted` are absorbed.
    pub fn write_to<W: std::io::Write>(&mut self, w: &mut W) -> std::io::Result<usize> {
        let mut written = 0;
        while self.head < self.buf.len() {
            match w.write(&self.buf[self.head..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ));
                }
                Ok(n) => {
                    self.head += n;
                    written += n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        // Reclaim drained capacity once the backlog clears (or the dead
        // prefix dominates) so long-lived connections don't hold peak-size
        // buffers forever.
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
        } else if self.head > 4096 && self.head * 2 > self.buf.len() {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn job_request_round_trips_through_the_wire() {
        let mut req = JobRequest::new(JobKind::Campaign);
        req.kernel = "hmmer".into();
        req.runs = 12;
        req.seed = 99;
        req.tag = "c1-j7".into();
        let line = req.to_line();
        match Request::parse(&line).unwrap() {
            Request::Job(parsed) => assert_eq!(parsed, req),
            other => panic!("expected job, got {other:?}"),
        }
    }

    #[test]
    fn seeds_above_2_pow_53_round_trip_exactly() {
        for seed in [(1u64 << 53) + 1, u64::MAX] {
            let mut req = JobRequest::new(JobKind::Campaign);
            req.seed = seed;
            match Request::parse(&req.to_line()).unwrap() {
                Request::Job(parsed) => assert_eq!(parsed.seed, seed),
                other => panic!("expected job, got {other:?}"),
            }
        }
    }

    #[test]
    fn defaults_apply_for_sparse_requests() {
        let parsed = Request::parse("{\"type\":\"run\",\"kernel\":\"mcf\"}").unwrap();
        match parsed {
            Request::Job(req) => {
                assert_eq!(req.kind, JobKind::Run);
                assert_eq!(req.kernel, "mcf");
                assert_eq!(req.scheme, "turnpike");
                assert_eq!(req.scale, "smoke");
                assert_eq!(req.sb, 4);
                assert_eq!(req.wcdl, 10);
                assert!(req.tag.is_empty());
            }
            other => panic!("expected job, got {other:?}"),
        }
    }

    #[test]
    fn admin_requests_parse() {
        assert_eq!(
            Request::parse("{\"type\":\"stats\"}").unwrap(),
            Request::Stats
        );
        assert_eq!(
            Request::parse("{\"type\":\"metrics\"}").unwrap(),
            Request::Metrics
        );
        assert_eq!(
            Request::parse("{\"type\":\"shutdown\"}").unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn progress_event_round_trips_with_estimator_payload() {
        let stats = ProgressStats {
            recovered: 11,
            post_completion: 3,
            sdc: 0,
            hangs: 1,
            detections: 14,
            sdc_rate: 0.0,
            sdc_ci_lo: 0.0,
            sdc_ci_hi: 0.204_047_656_259_748_5,
            det_rate: 0.733_333_333_333_333_4,
            det_ci_lo: 0.468_353_053_247_329_2,
            det_ci_hi: 0.895_138_186_807_640_6,
            strikes_per_sec: 812.5,
            ns_per_inst: 143.071_6,
            eta_ms: 1234,
            elapsed_ms: 567,
        };
        let event = Event::Progress {
            job: 9,
            tag: "w3".into(),
            done: 15,
            total: 64,
            stats: Some(stats),
        };
        let line = event.to_line();
        assert!(!line.contains('\n'));
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("event").and_then(Json::as_str), Some("progress"));
        assert_eq!(v.get("done").and_then(Json::as_u64), Some(15));
        assert_eq!(v.get("total").and_then(Json::as_u64), Some(64));
        // The shortest-round-trip float encoding makes decode exact, not
        // approximate: the parsed payload equals the original bit for bit.
        let parsed = ProgressStats::from_json(&v).expect("payload present");
        assert_eq!(parsed, stats);
        // Integral rates render as floats; the integer form older servers
        // sent still decodes to the same value.
        assert!(line.contains("\"sdc_rate\":0.0,"), "{line}");
        let old = line.replace("\"sdc_rate\":0.0,", "\"sdc_rate\":0,");
        assert_eq!(
            ProgressStats::from_json(&Json::parse(&old).unwrap()),
            Some(stats)
        );
    }

    #[test]
    fn bare_progress_lines_and_unknown_fields_tolerated() {
        // A line from a pre-estimator server: no payload, not an error.
        let old = "{\"event\":\"progress\",\"job\":2,\"done\":1,\"total\":8}";
        let v = Json::parse(old).unwrap();
        assert_eq!(ProgressStats::from_json(&v), None);
        assert_eq!(v.get("done").and_then(Json::as_u64), Some(1));
        // A line from a *newer* server with fields this build never heard
        // of: lookups are by key, so the known payload still decodes.
        let newer = Event::Progress {
            job: 2,
            tag: String::new(),
            done: 4,
            total: 8,
            stats: Some(ProgressStats {
                recovered: 4,
                det_rate: 1.0,
                det_ci_lo: 0.51,
                det_ci_hi: 1.0,
                ..ProgressStats::default()
            }),
        }
        .to_line();
        let future = format!(
            "{},\"flux_capacitance\":3.14,\"q\":[1,2]}}",
            newer.strip_suffix('}').unwrap()
        );
        let v = Json::parse(&future).unwrap();
        let parsed = ProgressStats::from_json(&v).expect("unknown fields are ignored");
        assert_eq!(parsed.recovered, 4);
        assert_eq!(parsed.det_ci_lo, 0.51);
        // A half-present payload (field dropped mid-schema) degrades to
        // None rather than a partially-zeroed struct.
        let torn = newer.replace(",\"hangs\":0", "");
        let parsed = ProgressStats::from_json(&Json::parse(&torn).unwrap());
        assert_eq!(parsed, None);
    }

    #[test]
    fn run_offset_rides_the_wire_only_when_sharded() {
        // Unsharded requests render exactly as they always did: no
        // `run_offset` key, so old servers and golden transcripts are
        // untouched.
        let whole = JobRequest::new(JobKind::Campaign);
        assert!(!whole.to_line().contains("run_offset"));
        match Request::parse(&whole.to_line()).unwrap() {
            Request::Job(parsed) => assert_eq!(parsed.run_offset, 0),
            other => panic!("expected job, got {other:?}"),
        }
        // A shard round-trips its offset.
        let mut shard = JobRequest::new(JobKind::Campaign);
        shard.runs = 4;
        shard.run_offset = 12;
        let line = shard.to_line();
        assert!(line.contains("\"run_offset\":12"), "{line}");
        match Request::parse(&line).unwrap() {
            Request::Job(parsed) => assert_eq!(parsed, shard),
            other => panic!("expected job, got {other:?}"),
        }
        // Offset + runs must stay representable.
        let err = Request::parse(&format!(
            "{{\"type\":\"campaign\",\"runs\":2,\"run_offset\":{}}}",
            u64::MAX
        ))
        .expect_err("overflowing shard");
        assert!(err.contains("run_offset"), "{err}");
    }

    #[test]
    fn explorer_overrides_ride_the_wire_only_when_set() {
        // A default request renders without any of the explorer's override
        // keys — old servers and golden transcripts never see them.
        let plain = JobRequest::new(JobKind::Run);
        let line = plain.to_line();
        for key in ["clq", "colors", "geom"] {
            assert!(!line.contains(key), "{line}");
        }
        match Request::parse(&line).unwrap() {
            Request::Job(parsed) => {
                assert!(parsed.clq.is_empty());
                assert_eq!(parsed.colors, 0);
                assert!(parsed.geom.is_empty());
            }
            other => panic!("expected job, got {other:?}"),
        }
        // An explorer point round-trips every override.
        let mut point = JobRequest::new(JobKind::Campaign);
        point.clq = "cam-4".into();
        point.colors = 8;
        point.geom = "slim".into();
        let line = point.to_line();
        assert!(line.contains("\"clq\":\"cam-4\""), "{line}");
        assert!(line.contains("\"colors\":8"), "{line}");
        assert!(line.contains("\"geom\":\"slim\""), "{line}");
        match Request::parse(&line).unwrap() {
            Request::Job(parsed) => assert_eq!(parsed, point),
            other => panic!("expected job, got {other:?}"),
        }
        // `colors` must fit the simulator's u8 pool size.
        let err = Request::parse("{\"type\":\"run\",\"colors\":256}").expect_err("overflow");
        assert!(err.contains("colors"), "{err}");
    }

    #[test]
    fn line_reader_reassembles_split_lines_and_skips_blanks() {
        let mut r = LineReader::new();
        r.push(b"{\"type\":\"sta");
        assert_eq!(r.next_line(), None);
        r.push(b"ts\"}\r\n\n  \n{\"type\":\"metrics\"}\n{\"par");
        assert_eq!(r.next_line(), Some("{\"type\":\"stats\"}".to_string()));
        assert_eq!(r.next_line(), Some("{\"type\":\"metrics\"}".to_string()));
        assert_eq!(r.next_line(), None, "partial line stays buffered");
        r.push(b"tial\":1}\n");
        assert_eq!(r.next_line(), Some("{\"partial\":1}".to_string()));
        assert_eq!(r.next_line(), None);
        assert!(!r.overflowed());
    }

    #[test]
    fn line_reader_flags_unbounded_newline_free_input() {
        let mut r = LineReader::new();
        r.push(&vec![b'x'; MAX_LINE_BYTES + 1]);
        assert!(r.overflowed());
        assert_eq!(r.next_line(), None);
        // Once overflowed the reader stays inert — the connection is dead.
        r.push(b"{\"type\":\"stats\"}\n");
        assert_eq!(r.next_line(), None);
    }

    /// A writer that accepts a fixed number of bytes per call, then
    /// `WouldBlock`s — the shape of a nonblocking socket with a full
    /// send buffer.
    struct Throttle {
        accepted: Vec<u8>,
        per_call: usize,
        calls_before_block: usize,
    }

    impl std::io::Write for Throttle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.calls_before_block == 0 {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.calls_before_block -= 1;
            let n = buf.len().min(self.per_call);
            self.accepted.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_queue_survives_partial_writes_without_tearing_lines() {
        let mut q = WriteQueue::new();
        q.push_line("{\"event\":\"accepted\",\"job\":1}");
        q.push_line("{\"event\":\"done\",\"job\":1}");
        let total = q.pending();
        let mut w = Throttle {
            accepted: Vec::new(),
            per_call: 7,
            calls_before_block: 2,
        };
        assert_eq!(q.write_to(&mut w).unwrap(), 14);
        assert!(!q.is_empty());
        assert_eq!(q.pending(), total - 14);
        // Socket drains; the rest goes out on the next readiness pass.
        w.calls_before_block = usize::MAX;
        q.write_to(&mut w).unwrap();
        assert!(q.is_empty());
        assert_eq!(
            String::from_utf8(w.accepted).unwrap(),
            "{\"event\":\"accepted\",\"job\":1}\n{\"event\":\"done\",\"job\":1}\n"
        );
    }

    #[test]
    fn bad_requests_name_the_problem() {
        let cases = [
            ("{\"type\":\"warp\"}", "unknown request type"),
            ("{\"no_type\":1}", "'type'"),
            ("{\"type\":\"run\",\"sb\":0}", "'sb'"),
            ("{\"type\":\"run\",\"scale\":\"huge\"}", "'scale'"),
            ("{\"type\":\"campaign\",\"runs\":0}", "'runs'"),
            ("{\"type\":\"run\",\"wcdl\":\"ten\"}", "'wcdl'"),
            ("not json", "parse error"),
        ];
        for (line, needle) in cases {
            let err = Request::parse(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn events_render_stable_single_lines() {
        let done = Event::Done {
            job: 3,
            tag: "t".into(),
            store: StoreStatus::Hit,
            result: Json::parse("{\"cycles\":10}").unwrap(),
        };
        assert_eq!(
            done.to_line(),
            "{\"event\":\"done\",\"job\":3,\"tag\":\"t\",\"store\":\"hit\",\"result\":{\"cycles\":10}}"
        );
        let over = Event::Overloaded {
            tag: String::new(),
            retry_after_ms: 40,
        };
        assert_eq!(
            over.to_line(),
            "{\"event\":\"overloaded\",\"retry_after_ms\":40}"
        );
        for e in [
            done,
            over,
            Event::Accepted {
                job: 1,
                tag: "x".into(),
                queue_depth: 2,
            },
            Event::Progress {
                job: 1,
                tag: String::new(),
                done: 3,
                total: 8,
                stats: None,
            },
            Event::Metrics {
                body: "# TYPE turnpike_campaign_runs counter\nturnpike_campaign_runs 4\n".into(),
            },
            Event::Error {
                job: 0,
                tag: String::new(),
                message: "bad \"quote\"".into(),
            },
            Event::ShuttingDown { tag: String::new() },
            Event::Stats {
                body: Json::obj([("queue_depth", Json::from(0u64))]),
            },
        ] {
            let line = e.to_line();
            assert!(!line.contains('\n'));
            assert!(Json::parse(&line).is_ok(), "{line}");
        }
    }

    /// Every valid request line the tests above parse.
    fn valid_lines() -> Vec<String> {
        let mut campaign = JobRequest::new(JobKind::Campaign);
        campaign.kernel = "hmmer".into();
        campaign.runs = 12;
        campaign.seed = 99;
        campaign.tag = "c1-j7".into();
        let mut big_seed = JobRequest::new(JobKind::Campaign);
        big_seed.seed = u64::MAX;
        let mut shard = JobRequest::new(JobKind::Campaign);
        shard.runs = 4;
        shard.run_offset = 12;
        let mut point = JobRequest::new(JobKind::Campaign);
        point.clq = "cam-4".into();
        point.colors = 8;
        point.geom = "slim".into();
        let jobs = [
            campaign,
            big_seed,
            shard,
            point,
            JobRequest::new(JobKind::Run),
        ];
        let mut lines: Vec<String> = jobs.iter().map(JobRequest::to_line).collect();
        for admin in [
            "{\"type\":\"run\",\"kernel\":\"mcf\"}",
            "{\"type\":\"stats\"}",
            "{\"type\":\"metrics\"}",
            "{\"type\":\"shutdown\"}",
        ] {
            lines.push(admin.to_string());
        }
        lines
    }

    /// Parse `bytes` (lossily decoded, as a server reading a torn or
    /// corrupted line would see it) and fail with the input if it panics.
    fn parse_must_not_panic(bytes: &[u8]) -> Result<Request, String> {
        let line = String::from_utf8_lossy(bytes);
        std::panic::catch_unwind(|| Request::parse(&line))
            .unwrap_or_else(|_| panic!("Request::parse panicked on {line:?}"))
    }

    #[test]
    fn parse_survives_every_truncation_and_byte_flip() {
        for line in valid_lines() {
            let bytes = line.as_bytes();
            assert!(parse_must_not_panic(bytes).is_ok(), "{line}");
            for cut in 0..bytes.len() {
                parse_must_not_panic(&bytes[..cut]).expect_err(&line[..cut]);
            }
            for at in 0..bytes.len() {
                for b in 0..=u8::MAX {
                    let mut flipped = bytes.to_vec();
                    flipped[at] = b;
                    let _ = parse_must_not_panic(&flipped);
                }
            }
        }
    }

    /// A JSON number token, often far outside `u64` and `f64` range:
    /// optional sign, up to 400 integer digits, an optional fraction and an
    /// optional exponent of up to four digits.
    struct NumberToken;

    impl Strategy for NumberToken {
        type Value = String;

        fn generate(&self, rng: &mut TestRng) -> String {
            let digits = |rng: &mut TestRng, n: usize| -> String {
                (0..n)
                    .map(|_| char::from(b'0' + rng.below(10) as u8))
                    .collect()
            };
            let mut t = String::new();
            if rng.below(4) == 0 {
                t.push('-');
            }
            let max_digits = if rng.below(2) == 0 { 22 } else { 400 };
            let n = 1 + rng.below(max_digits);
            let int = digits(rng, n);
            t.push_str(int.trim_start_matches('0'));
            if t.is_empty() || t == "-" {
                t.push('0');
            }
            if rng.below(4) == 0 {
                t.push('.');
                let n = 1 + rng.below(6);
                t.push_str(&digits(rng, n));
            }
            if rng.below(3) == 0 {
                t.push(['e', 'E'][rng.below(2)]);
                t.push_str(["", "+", "-"][rng.below(3)]);
                let n = 1 + rng.below(4);
                t.push_str(&digits(rng, n));
            }
            t
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// An integer field accepts exactly the tokens that are `u64`
        /// literals and takes their exact value; every other number —
        /// negative, fractional, exponent or past `u64::MAX` — is an error
        /// naming the field, never a panic or a wrapped value.
        #[test]
        fn integer_fields_take_exact_u64_values_or_name_the_field(
            field in prop::sample::select(vec![
                "sb", "wcdl", "runs", "seed", "strikes", "run_offset", "colors",
            ]),
            token in prop_oneof![
                NumberToken,
                prop::sample::select(vec![
                    "18446744073709551615".to_string(),
                    "18446744073709551616".to_string(),
                    "1e400".to_string(),
                    "-1e400".to_string(),
                    "1e-400".to_string(),
                ]),
            ],
        ) {
            let line = format!("{{\"type\":\"campaign\",\"{field}\":{token}}}");
            match parse_must_not_panic(line.as_bytes()) {
                Ok(Request::Job(req)) => {
                    let got = match field {
                        "sb" => u64::from(req.sb),
                        "wcdl" => req.wcdl,
                        "runs" => req.runs,
                        "seed" => req.seed,
                        "strikes" => req.strikes,
                        "run_offset" => req.run_offset,
                        _ => req.colors,
                    };
                    prop_assert_eq!(token.parse::<u64>().ok(), Some(got), "{}", line);
                }
                Ok(other) => panic!("{line}: parsed as {other:?}"),
                Err(e) => prop_assert!(e.contains(field), "{line}: {e}"),
            }
        }
    }
}
