//! Client side: a blocking line-protocol client and its retry backoff.
//!
//! [`Client::submit`] returns the job's terminal [`Outcome`]. The `done`
//! payload is the compact rendering of the event's parsed `result` value;
//! [`Json`] keeps number tokens verbatim, so those bytes are exactly the
//! bytes the executor produced, which is what the byte-identical
//! served-vs-CLI guarantee rests on.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::json::Json;
use crate::proto::{JobRequest, ProgressStats};

/// Terminal disposition of one submitted job.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Finished; `result` is the executor payload, byte-for-byte.
    Done {
        /// Server-assigned job id.
        job: u64,
        /// Artifact-store disposition (`"hit"` / `"miss"` / `"off"`).
        store: String,
        /// The executor's compact JSON payload, byte for byte.
        result: String,
    },
    /// Admission control refused the job.
    Overloaded {
        /// Server's suggested wait before retrying.
        retry_after_ms: u64,
    },
    /// The server is draining and takes no new work.
    ShuttingDown,
    /// The job (or request) failed.
    Error {
        /// Server-assigned job id (0 if never admitted).
        job: u64,
        /// Server-provided reason.
        message: String,
    },
}

/// A connected protocol client. One request is in flight at a time per
/// connection (matching the server's per-connection handling).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to a server.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line.trim_end().to_string())
    }

    /// Submit a job and block until its terminal event, invoking
    /// `on_progress(done, total)` for each progress line.
    ///
    /// # Errors
    ///
    /// I/O failures and protocol violations (unparseable event lines).
    pub fn submit_with(
        &mut self,
        req: &JobRequest,
        mut on_progress: impl FnMut(u64, u64),
    ) -> std::io::Result<Outcome> {
        self.submit_streaming(req, |done, total, _| on_progress(done, total))
    }

    /// Submit a job and block until its terminal event, invoking
    /// `on_progress(done, total, stats)` for each progress line. `stats`
    /// is `Some` when the server attached the streaming-estimator payload
    /// (older servers and early progress lines send none), decoded
    /// all-or-nothing so a torn payload reads as absent, never as garbage.
    ///
    /// # Errors
    ///
    /// I/O failures and protocol violations (unparseable event lines).
    pub fn submit_streaming(
        &mut self,
        req: &JobRequest,
        mut on_progress: impl FnMut(u64, u64, Option<&ProgressStats>),
    ) -> std::io::Result<Outcome> {
        let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        self.send_line(&req.to_line())?;
        loop {
            let line = self.read_line()?;
            let v = Json::parse(&line).map_err(|e| bad(format!("bad event line '{line}': {e}")))?;
            let event = v
                .get("event")
                .and_then(Json::as_str)
                .ok_or_else(|| bad(format!("event line without 'event': {line}")))?;
            let job = v.get("job").and_then(Json::as_u64).unwrap_or(0);
            match event {
                "accepted" => {}
                "progress" => {
                    let done = v.get("done").and_then(Json::as_u64).unwrap_or(0);
                    let total = v.get("total").and_then(Json::as_u64).unwrap_or(0);
                    let stats = ProgressStats::from_json(&v);
                    on_progress(done, total, stats.as_ref());
                }
                "done" => {
                    let store = v
                        .get("store")
                        .and_then(Json::as_str)
                        .unwrap_or("off")
                        .to_string();
                    let result = v
                        .get("result")
                        .ok_or_else(|| bad(format!("done line without result: {line}")))?
                        .to_string();
                    return Ok(Outcome::Done { job, store, result });
                }
                "overloaded" => {
                    let retry_after_ms =
                        v.get("retry_after_ms").and_then(Json::as_u64).unwrap_or(0);
                    return Ok(Outcome::Overloaded { retry_after_ms });
                }
                "shutting_down" => return Ok(Outcome::ShuttingDown),
                "error" => {
                    let message = v
                        .get("message")
                        .and_then(Json::as_str)
                        .unwrap_or("unknown error")
                        .to_string();
                    return Ok(Outcome::Error { job, message });
                }
                other => return Err(bad(format!("unexpected event '{other}'"))),
            }
        }
    }

    /// [`Client::submit_with`] discarding progress.
    ///
    /// # Errors
    ///
    /// See [`Client::submit_with`].
    pub fn submit(&mut self, req: &JobRequest) -> std::io::Result<Outcome> {
        self.submit_with(req, |_, _| {})
    }

    /// Fetch the server's stats snapshot (a compact JSON object).
    ///
    /// # Errors
    ///
    /// I/O failures and protocol violations.
    pub fn stats(&mut self) -> std::io::Result<String> {
        self.admin("stats", "server").map(|v| v.to_string())
    }

    /// Fetch Prometheus-style text exposition of the server's live metric
    /// registry (decoded from its single-line JSON envelope).
    ///
    /// # Errors
    ///
    /// I/O failures and protocol violations.
    pub fn metrics(&mut self) -> std::io::Result<String> {
        self.admin("metrics", "body")?
            .as_str()
            .map(ToString::to_string)
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "metrics body is not a string",
                )
            })
    }

    /// Send the admin request `kind` and return member `field` of its
    /// answer, which must be the event of the same name.
    fn admin(&mut self, kind: &str, field: &str) -> std::io::Result<Json> {
        self.send_line(&Json::obj([("type", Json::from(kind))]).to_string())?;
        let line = self.read_line()?;
        Json::parse(&line)
            .ok()
            .filter(|v| v.get("event").and_then(Json::as_str) == Some(kind))
            .and_then(|v| v.get(field).cloned())
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("unexpected {kind} reply: {line}"),
                )
            })
    }

    /// Ask the server to shut down gracefully (drain, then exit).
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn shutdown(&mut self) -> std::io::Result<()> {
        self.send_line(&Json::obj([("type", Json::from("shutdown"))]).to_string())?;
        let _ = self.read_line()?;
        Ok(())
    }
}

/// Jittered exponential backoff for `overloaded` retries.
///
/// The delay doubles per attempt from `base_ms` up to `cap_ms`, with
/// "equal jitter" (half deterministic, half uniform-random) so a thundering
/// herd of rejected clients decorrelates instead of re-arriving in
/// lockstep. The server's `retry_after_ms` hint is honored as a **floor**:
/// backing off less than the server asked would waste a round trip on a
/// guaranteed rejection. The policy is a pure state machine — [`Backoff::next_delay`]
/// computes durations without sleeping or reading a clock — so tests drive
/// it with a mock clock and real clients sleep on whatever it returns.
///
/// Determinism: the jitter stream is seeded SplitMix64, so a given
/// `(seed, attempt sequence, hints)` always produces the same delays —
/// which keeps a retrying client's schedule reproducible.
#[derive(Debug, Clone)]
pub struct Backoff {
    base_ms: u64,
    cap_ms: u64,
    attempt: u32,
    rng: u64,
}

impl Backoff {
    /// A policy starting at `base_ms` and never exceeding `cap_ms` per
    /// delay, with jitter drawn from `seed`.
    pub fn new(base_ms: u64, cap_ms: u64, seed: u64) -> Backoff {
        Backoff {
            base_ms: base_ms.max(1),
            cap_ms: cap_ms.max(1),
            attempt: 0,
            rng: seed,
        }
    }

    /// SplitMix64 step: the same tiny generator the resilience crate uses
    /// for per-run seeds — statistically solid, three lines, no deps.
    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The delay to wait before the next retry, advancing the attempt
    /// counter. `retry_after_ms` is the server's hint (0 when absent).
    pub fn next_delay(&mut self, retry_after_ms: u64) -> Duration {
        let exp = self
            .base_ms
            .saturating_mul(1u64.checked_shl(self.attempt).unwrap_or(u64::MAX))
            .min(self.cap_ms);
        self.attempt = self.attempt.saturating_add(1);
        // Equal jitter: keep half the exponential term, jitter the rest.
        let half = exp / 2;
        let jittered = half + self.next_u64() % (exp - half + 1);
        Duration::from_millis(
            jittered
                .max(retry_after_ms)
                .min(self.cap_ms.max(retry_after_ms)),
        )
    }

    /// Forget accumulated attempts (call after a successful submission).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mock-clock walk through the backoff schedule: no sleeping, just the
    /// pure delay sequence, checked against the policy's contract.
    #[test]
    fn backoff_grows_within_envelope_and_honors_the_server_hint() {
        let mut b = Backoff::new(10, 640, 42);
        let mut prev_ceiling = 0u64;
        for attempt in 0..12u32 {
            let d = b.next_delay(0).as_millis() as u64;
            let exp = 10u64
                .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX))
                .min(640);
            // Equal jitter keeps every delay inside [exp/2, exp].
            assert!(d >= exp / 2, "attempt {attempt}: {d} < {}", exp / 2);
            assert!(d <= exp, "attempt {attempt}: {d} > {exp}");
            assert!(exp >= prev_ceiling, "envelope must not shrink");
            prev_ceiling = exp;
        }
        // Cap reached: delays stay at or under it forever.
        for _ in 0..4 {
            assert!(b.next_delay(0).as_millis() as u64 <= 640);
        }

        // The server's retry-after hint is a floor, even above the cap.
        let mut b = Backoff::new(10, 640, 42);
        assert!(b.next_delay(50).as_millis() as u64 >= 50);
        assert!(b.next_delay(10_000).as_millis() as u64 >= 10_000);
    }

    #[test]
    fn backoff_is_deterministic_per_seed_and_resets() {
        let walk = |seed: u64| {
            let mut b = Backoff::new(5, 1_000, seed);
            (0..8).map(|_| b.next_delay(0)).collect::<Vec<_>>()
        };
        assert_eq!(walk(7), walk(7), "same seed, same schedule");
        assert_ne!(walk(7), walk(8), "different seeds decorrelate");

        let mut b = Backoff::new(5, 1_000, 7);
        for _ in 0..6 {
            let _ = b.next_delay(0);
        }
        b.reset();
        // After reset the envelope restarts at the base.
        assert!(b.next_delay(0).as_millis() as u64 <= 5);
    }
}
