//! Live rendering of campaign progress and server health: the text behind
//! `reproduce watch` and `reproduce submit --progress`.
//!
//! Pure string builders, deliberately free of terminal I/O so every line
//! the CLI can print is unit-testable. The CLI decides *where* a line goes
//! (carriage-return rewrite on a TTY, one line per snapshot otherwise);
//! this module only decides what it says.

use turnpike_serve::{Json, ProgressStats};

/// Width of the progress bar in characters.
const BAR_WIDTH: usize = 24;

/// Humanize a millisecond duration: `0s`, `42s`, `3m05s`, `2h07m`.
pub fn fmt_eta(ms: u64) -> String {
    let secs = ms / 1000;
    if secs < 60 {
        format!("{secs}s")
    } else if secs < 3600 {
        format!("{}m{:02}s", secs / 60, secs % 60)
    } else {
        format!("{}h{:02}m", secs / 3600, (secs % 3600) / 60)
    }
}

/// A `[#####----]` bar at `done/total` (full when `total` is zero — an
/// empty campaign is finished, not stuck at the start).
fn bar(done: u64, total: u64) -> String {
    let filled = if total == 0 {
        BAR_WIDTH
    } else {
        ((done.min(total) as usize) * BAR_WIDTH) / total as usize
    };
    let mut s = String::with_capacity(BAR_WIDTH + 2);
    s.push('[');
    for i in 0..BAR_WIDTH {
        s.push(if i < filled { '#' } else { '-' });
    }
    s.push(']');
    s
}

/// One live progress line. Without an estimator payload (older server or
/// a bare per-run tick) it is just the bar and counts; with one it adds
/// the SDC rate with its Wilson interval, the windowed pace, and the ETA.
pub fn progress_line(done: u64, total: u64, stats: Option<&ProgressStats>) -> String {
    let mut line = format!("{} {done}/{total}", bar(done, total));
    if let Some(s) = stats {
        line.push_str(&format!(
            "  sdc {:.4} [{:.4},{:.4}]  {:.1} strikes/s  {:.1} ns/inst  eta {}",
            s.sdc_rate,
            s.sdc_ci_lo,
            s.sdc_ci_hi,
            s.strikes_per_sec,
            s.ns_per_inst,
            fmt_eta(s.eta_ms)
        ));
    }
    line
}

/// Render one `watch` snapshot from the server's `stats` JSON body and its
/// Prometheus exposition: a queue/outcome summary line, a store line, and
/// the campaign counters scraped from the exposition.
pub fn render_watch(stats_json: &str, metrics_text: &str) -> String {
    let mut out = String::new();
    match Json::parse(stats_json) {
        Ok(v) => {
            let n = |key: &str| v.get(key).and_then(Json::as_u64).unwrap_or(0);
            out.push_str(&format!(
                "queue {}/{}  accepted {}  completed {}  failed {}  canceled {}  rejected {}\n",
                n("queue_depth"),
                n("queue_capacity"),
                n("accepted"),
                n("completed"),
                n("failed"),
                n("canceled"),
                n("rejected"),
            ));
            out.push_str(&format!(
                "store hits {}  misses {}  quarantined {}  job p50 {} us  p99 {} us\n",
                n("store_hits"),
                n("store_misses"),
                n("store_quarantined"),
                n("job_p50_us"),
                n("job_p99_us"),
            ));
        }
        Err(e) => out.push_str(&format!("stats unavailable: {e}\n")),
    }
    for line in metrics_text.lines() {
        if line.starts_with("turnpike_campaign_") {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Render one fleet `watch` snapshot from per-worker stats bodies.
///
/// `workers` pairs each address with its `stats` JSON body, or with the
/// error that kept it from answering — a dead worker stays visible in the
/// view instead of silently shrinking the fleet. The header aggregates
/// queue depth and job outcomes across reachable workers; each worker line
/// adds its busy-time utilization, `busy_us / (uptime_us × workers)`.
pub fn render_fleet_watch(workers: &[(String, Result<String, String>)]) -> String {
    let mut depth = 0u64;
    let mut capacity = 0u64;
    let mut accepted = 0u64;
    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut rejected = 0u64;
    let mut alive = 0usize;
    let mut lines = Vec::with_capacity(workers.len());
    for (addr, stats) in workers {
        match stats.as_ref().map(|s| Json::parse(s)) {
            Ok(Ok(v)) => {
                let n = |key: &str| v.get(key).and_then(Json::as_u64).unwrap_or(0);
                alive += 1;
                depth += n("queue_depth");
                capacity += n("queue_capacity");
                accepted += n("accepted");
                completed += n("completed");
                failed += n("failed");
                rejected += n("rejected");
                let busy = n("busy_us") as f64;
                let span = (n("uptime_us").max(1) * n("workers").max(1)) as f64;
                lines.push(format!(
                    "  {addr}  queue {}/{}  completed {}  failed {}  util {:.2}\n",
                    n("queue_depth"),
                    n("queue_capacity"),
                    n("completed"),
                    n("failed"),
                    busy / span,
                ));
            }
            Ok(Err(e)) => lines.push(format!("  {addr}  bad stats: {e}\n")),
            Err(e) => lines.push(format!("  {addr}  unreachable: {e}\n")),
        }
    }
    let mut out = format!(
        "fleet {alive}/{} up  queue {depth}/{capacity}  accepted {accepted}  \
         completed {completed}  failed {failed}  rejected {rejected}\n",
        workers.len()
    );
    for line in lines {
        out.push_str(&line);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eta_is_humanized_across_magnitudes() {
        assert_eq!(fmt_eta(0), "0s");
        assert_eq!(fmt_eta(41_900), "41s");
        assert_eq!(fmt_eta(185_000), "3m05s");
        assert_eq!(fmt_eta(7_620_000), "2h07m");
    }

    #[test]
    fn progress_line_scales_the_bar_and_includes_the_estimators() {
        let bare = progress_line(5, 10, None);
        assert_eq!(bare, "[############------------] 5/10");
        assert_eq!(progress_line(0, 0, None), "[########################] 0/0");

        let stats = ProgressStats {
            sdc_rate: 0.25,
            sdc_ci_lo: 0.1,
            sdc_ci_hi: 0.45,
            strikes_per_sec: 1234.56,
            ns_per_inst: 8.9,
            eta_ms: 65_000,
            ..ProgressStats::default()
        };
        let rich = progress_line(10, 10, Some(&stats));
        assert!(
            rich.starts_with("[########################] 10/10"),
            "{rich}"
        );
        assert!(rich.contains("sdc 0.2500 [0.1000,0.4500]"), "{rich}");
        assert!(rich.contains("1234.6 strikes/s"), "{rich}");
        assert!(rich.contains("eta 1m05s"), "{rich}");
    }

    #[test]
    fn watch_snapshot_summarizes_stats_and_scrapes_campaign_counters() {
        let stats = "{\"queue_depth\":1,\"queue_capacity\":64,\"workers\":2,\
                     \"shutting_down\":false,\"accepted\":5,\"rejected\":1,\"completed\":3,\
                     \"failed\":1,\"canceled\":0,\"store_hits\":2,\"store_misses\":1,\
                     \"store_quarantined\":0,\"queue_peak\":3,\"job_p50_us\":120,\
                     \"job_p99_us\":950}";
        let metrics = "# TYPE turnpike_campaign_runs counter\nturnpike_campaign_runs 64\n\
                       # TYPE turnpike_serve_accepted counter\nturnpike_serve_accepted 5\n";
        let text = render_watch(stats, metrics);
        assert!(
            text.contains("queue 1/64  accepted 5  completed 3  failed 1"),
            "{text}"
        );
        assert!(text.contains("store hits 2  misses 1"), "{text}");
        assert!(text.contains("turnpike_campaign_runs 64"), "{text}");
        // Exposition lines other than campaign counters stay out of the
        // summary (the full text is one `reproduce submit --stats` away).
        assert!(!text.contains("turnpike_serve_accepted"), "{text}");

        assert!(render_watch("not json", metrics).contains("stats unavailable"));
    }

    #[test]
    fn fleet_watch_aggregates_reachable_workers_and_keeps_dead_ones_visible() {
        let stats = |depth: u64, completed: u64, busy: u64| {
            format!(
                "{{\"queue_depth\":{depth},\"queue_capacity\":64,\"workers\":2,\
                 \"accepted\":9,\"rejected\":1,\"completed\":{completed},\"failed\":0,\
                 \"busy_us\":{busy},\"uptime_us\":1000000}}"
            )
        };
        let workers = vec![
            ("127.0.0.1:8642".to_string(), Ok(stats(1, 4, 1_500_000))),
            ("127.0.0.1:8643".to_string(), Ok(stats(2, 3, 500_000))),
            (
                "127.0.0.1:8644".to_string(),
                Err("connection refused".to_string()),
            ),
        ];
        let text = render_fleet_watch(&workers);
        // Header counts only live workers; totals are fleet-wide sums.
        assert!(
            text.starts_with("fleet 2/3 up  queue 3/128  accepted 18"),
            "{text}"
        );
        assert!(text.contains("completed 7"), "{text}");
        // Utilization normalizes busy time by uptime × worker threads.
        assert!(
            text.contains("127.0.0.1:8642  queue 1/64  completed 4  failed 0  util 0.75"),
            "{text}"
        );
        assert!(
            text.contains("127.0.0.1:8643  queue 2/64  completed 3  failed 0  util 0.25"),
            "{text}"
        );
        assert!(
            text.contains("127.0.0.1:8644  unreachable: connection refused"),
            "{text}"
        );
    }
}
