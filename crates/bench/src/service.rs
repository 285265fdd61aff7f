//! The production [`Executor`] behind `turnpike-serve`: jobs run through
//! the memoizing [`Engine`] and results persist in the content-addressed
//! artifact [`Store`].
//!
//! The serve crate deliberately knows nothing about kernels, compilers, or
//! figures (that would be a dependency cycle: the `reproduce` binary lives
//! here and needs the server). This module closes the loop: it resolves a
//! wire-level [`JobRequest`] against the workload catalog, executes it
//! with the same engine the figure generators use, and renders the payload
//! with one shared set of renderers — which is why a served result is
//! byte-identical to the direct-CLI (`submit --direct`) rendering of the
//! same job, warm or cold store.
//!
//! Store keys embed the kernel identity and the *full* `Debug` rendering
//! of the derived `CompilerConfig`/`SimConfig` (plus campaign parameters),
//! so any knob that affects the output changes the key. Results are
//! deterministic at any thread count, so thread budget is deliberately not
//! key material.

use std::sync::atomic::{AtomicU64, Ordering};

use turnpike_explore::parse_clq;
use turnpike_resilience::{
    cache_geom, fault_campaign_hooked, CacheGeom, CampaignConfig, CampaignHook, CampaignProgress,
    CampaignReport, RunError, RunSpec, Scheme,
};
use turnpike_serve::{
    ExecOutput, Executor, JobCtl, JobKind, JobRequest, Json, Lookup, ProgressStats, Store,
    StoreStatus,
};
use turnpike_sim::ClqKind;
use turnpike_workloads::{Kernel, Scale};

use crate::engine::Engine;
use crate::figures::target_by_name;
use crate::obs::find_kernel;

/// [`Executor`] wiring jobs to the evaluation [`Engine`] and an optional
/// persistent artifact [`Store`].
pub struct EngineExecutor {
    engine: Engine,
    store: Option<Store>,
    /// LRU byte cap for the store; collected at attach time and then every
    /// `GC_EVERY_PUTS` puts.
    store_cap: Option<u64>,
    puts: AtomicU64,
}

/// How many store puts between [`Store::gc`] passes when a cap is set.
/// Collection walks the whole store, so amortize it; the cap is a resource
/// budget, not an invariant, and brief overshoot between passes is fine.
const GC_EVERY_PUTS: u64 = 32;

/// The summable campaign counters — exactly the fields the campaign
/// payload renders. Shard reports merge by plain field-wise addition
/// (the `CampaignReport::absorb` property), so a coordinator can sum the
/// totals parsed from shard payloads and re-render the merged payload
/// byte-identically to a single-process run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignTotals {
    /// Runs executed.
    pub runs: u64,
    /// Silent data corruptions.
    pub sdc: u64,
    /// Recoveries.
    pub recoveries: u64,
    /// All detections.
    pub detections: u64,
    /// Detections via parity.
    pub parity_detections: u64,
    /// Detections via the sensor sweep.
    pub sensor_detections: u64,
    /// Strikes landing after architectural completion.
    pub post_completion: u64,
    /// Watchdog-detected hangs.
    pub hangs: u64,
}

impl CampaignTotals {
    /// Totals of one (shard or whole) campaign report.
    pub fn from_report(r: &CampaignReport) -> CampaignTotals {
        CampaignTotals {
            runs: r.runs as u64,
            sdc: r.sdc as u64,
            recoveries: r.recoveries,
            detections: r.detections,
            parity_detections: r.parity_detections,
            sensor_detections: r.sensor_detections,
            post_completion: r.post_completion as u64,
            hangs: r.hangs as u64,
        }
    }

    /// Parse the totals back out of a rendered campaign payload (the
    /// coordinator's input: one payload per shard).
    pub fn from_payload(payload: &str) -> Option<CampaignTotals> {
        let v = Json::parse(payload).ok()?;
        let f = |k: &str| v.get(k).and_then(Json::as_u64);
        Some(CampaignTotals {
            runs: f("runs")?,
            sdc: f("sdc")?,
            recoveries: f("recoveries")?,
            detections: f("detections")?,
            parity_detections: f("parity_detections")?,
            sensor_detections: f("sensor_detections")?,
            post_completion: f("post_completion")?,
            hangs: f("hangs")?,
        })
    }

    /// Field-wise sum — merging shard totals in any order gives the
    /// unsharded campaign's totals (every field is a plain count).
    pub fn absorb(&mut self, o: &CampaignTotals) {
        self.runs += o.runs;
        self.sdc += o.sdc;
        self.recoveries += o.recoveries;
        self.detections += o.detections;
        self.parity_detections += o.parity_detections;
        self.sensor_detections += o.sensor_detections;
        self.post_completion += o.post_completion;
        self.hangs += o.hangs;
    }
}

/// Render the campaign payload from a request and its totals. The ONE
/// renderer for campaign results — the executor (single process or shard)
/// and the distributed coordinator both call it, which is what makes a
/// merged fleet report byte-identical to the single-process payload.
/// `scale` is the validated scale label (`"smoke"`/`"full"`).
pub fn campaign_payload(req: &JobRequest, scale: &str, t: &CampaignTotals) -> Json {
    Json::obj([
        ("kind", Json::from("campaign")),
        ("kernel", req.kernel.as_str().into()),
        ("scheme", req.scheme.as_str().into()),
        ("scale", scale.into()),
        ("sb", req.sb.into()),
        ("wcdl", req.wcdl.into()),
        ("runs", t.runs.into()),
        ("seed", req.seed.into()),
        ("strikes", req.strikes.into()),
        ("sdc", t.sdc.into()),
        ("sdc_free", (t.sdc == 0).into()),
        ("recoveries", t.recoveries.into()),
        ("detections", t.detections.into()),
        ("parity_detections", t.parity_detections.into()),
        ("sensor_detections", t.sensor_detections.into()),
        ("post_completion", t.post_completion.into()),
        ("hangs", t.hangs.into()),
    ])
}

/// The store-key material (the `cc=…|sc=…` Debug renderings) for every
/// *uniform* scheme at representative knob settings, one line per
/// configuration.
///
/// Pinned byte-for-byte against `crates/bench/golden/store_keys.txt`: a warm
/// artifact store written by an older build must keep hitting for uniform
/// schemes, and any drift in these renderings silently invalidates every
/// cached uniform-scheme artifact. Regenerate (only when a key change is
/// intended) with:
///
/// ```text
/// cargo run -p turnpike-bench --example store_keys > crates/bench/golden/store_keys.txt
/// ```
pub fn uniform_store_key_material() -> String {
    let uniform = [
        "baseline",
        "turnstile",
        "war-free",
        "fast-release",
        "fast-release-prune",
        "fast-release-prune-licm",
        "fast-release-prune-licm-sched",
        "fast-release-prune-licm-sched-ra",
        "turnpike",
    ];
    let mut out = String::new();
    for name in uniform {
        let scheme = Scheme::parse(name).expect("uniform scheme name");
        for (sb, wcdl) in [(4u32, 10u64), (8, 50)] {
            let spec = RunSpec::new(scheme).with_sb(sb).with_wcdl(wcdl);
            out.push_str(&format!(
                "{name}|sb={sb}|wcdl={wcdl}|cc={:?}|sc={:?}\n",
                spec.compiler_config(),
                spec.sim_config()
            ));
        }
    }
    out
}

/// Flatten a campaign's streaming-estimator snapshot into the wire-level
/// progress payload (rates and Wilson bounds expanded to plain floats).
fn stats_of(p: &CampaignProgress) -> ProgressStats {
    let (sdc_ci_lo, sdc_ci_hi) = p.sdc_rate.wilson_bounds();
    let (det_ci_lo, det_ci_hi) = p.detection_rate.wilson_bounds();
    ProgressStats {
        recovered: p.recovered as u64,
        post_completion: p.post_completion as u64,
        sdc: p.sdc as u64,
        hangs: p.hangs as u64,
        detections: p.detections,
        sdc_rate: p.sdc_rate.rate(),
        sdc_ci_lo,
        sdc_ci_hi,
        det_rate: p.detection_rate.rate(),
        det_ci_lo,
        det_ci_hi,
        strikes_per_sec: p.strikes_per_sec,
        ns_per_inst: p.ns_per_inst,
        eta_ms: p.eta_ms,
        elapsed_ms: p.elapsed_ms,
    }
}

/// A request resolved against the catalog: everything validated, nothing
/// executed yet.
struct Resolved {
    scheme: Scheme,
    scale: Scale,
    /// `None` only for figure jobs (which name a target, not a kernel).
    kernel: Option<Kernel>,
    /// Explorer overrides, parsed from the request's optional `clq` /
    /// `colors` / `geom` fields; `None` keeps each scheme default, so a
    /// pre-explorer request derives exactly the spec it always did.
    clq: Option<ClqKind>,
    colors: Option<u8>,
    geom: Option<CacheGeom>,
}

impl EngineExecutor {
    /// An executor without persistence.
    pub fn new(engine: Engine) -> EngineExecutor {
        EngineExecutor {
            engine,
            store: None,
            store_cap: None,
            puts: AtomicU64::new(0),
        }
    }

    /// Attach a persistent artifact store shared with other processes.
    #[must_use]
    pub fn with_store(mut self, store: Store) -> EngineExecutor {
        self.store = Some(store);
        self
    }

    /// Cap the attached store at `max_bytes` of artifact data: collect
    /// (LRU) immediately and then every `GC_EVERY_PUTS` puts.
    #[must_use]
    pub fn with_store_cap(mut self, max_bytes: u64) -> EngineExecutor {
        self.store_cap = Some(max_bytes);
        self.collect_store();
        self
    }

    /// Run one GC pass if a cap is configured. Best-effort: a failed
    /// collection costs disk, not correctness.
    fn collect_store(&self) {
        let (Some(store), Some(cap)) = (&self.store, self.store_cap) else {
            return;
        };
        match store.gc(cap) {
            Ok(stats) if stats.evicted > 0 => eprintln!(
                "serve: store gc evicted {} of {} entries ({} -> {} bytes, cap {cap})",
                stats.evicted, stats.entries, stats.bytes_before, stats.bytes_after
            ),
            Ok(_) => {}
            Err(e) => eprintln!("serve: store gc failed: {e}"),
        }
    }

    /// The underlying engine (for metrics snapshots).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Execute a job outside any server — the CLI's `submit --direct`
    /// path. Same resolution, same renderers, same store as a served job.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the invalid field or failed stage.
    pub fn execute_direct(&self, req: &JobRequest) -> Result<ExecOutput, String> {
        self.execute(req, &JobCtl::detached())
    }

    fn resolve(&self, req: &JobRequest) -> Result<Resolved, String> {
        let scheme =
            Scheme::parse(&req.scheme).ok_or_else(|| format!("unknown scheme '{}'", req.scheme))?;
        let scale = match req.scale.as_str() {
            "smoke" => Scale::Smoke,
            "full" => Scale::Full,
            other => return Err(format!("unknown scale '{other}'")),
        };
        let kernel = if req.kind == JobKind::Figure {
            if target_by_name(&req.target).is_none() {
                return Err(format!("unknown figure target '{}'", req.target));
            }
            None
        } else {
            Some(
                find_kernel(&req.kernel, scale)
                    .ok_or_else(|| format!("unknown kernel '{}'", req.kernel))?,
            )
        };
        let clq = if req.clq.is_empty() {
            None
        } else {
            Some(parse_clq(&req.clq).ok_or_else(|| format!("unknown clq '{}'", req.clq))?)
        };
        let colors = if req.colors == 0 {
            None
        } else {
            // The protocol already capped it at 255.
            Some(req.colors as u8)
        };
        let geom = if req.geom.is_empty() {
            None
        } else {
            Some(
                cache_geom(&req.geom)
                    .ok_or_else(|| format!("unknown cache geometry '{}'", req.geom))?,
            )
        };
        Ok(Resolved {
            scheme,
            scale,
            kernel,
            clq,
            colors,
            geom,
        })
    }

    fn spec(req: &JobRequest, r: &Resolved) -> RunSpec {
        let mut spec = RunSpec::new(r.scheme).with_sb(req.sb).with_wcdl(req.wcdl);
        if let Some(clq) = r.clq {
            spec = spec.with_clq(clq);
        }
        if let Some(colors) = r.colors {
            spec = spec.with_colors(colors);
        }
        if let Some(geom) = r.geom {
            spec = spec.with_geom(geom);
        }
        spec
    }

    /// Canonical store key: version tag, job kind, kernel/target identity,
    /// and the full derived configs. Single line (the store requires it).
    fn store_key(req: &JobRequest, r: &Resolved) -> String {
        let spec = Self::spec(req, r);
        match req.kind {
            JobKind::Figure => format!("job-v1|figure|target={}|scale={:?}", req.target, r.scale),
            JobKind::Compile => format!(
                "job-v1|compile|kernel={:?}|cc={:?}",
                r.kernel.as_ref().expect("non-figure").id(),
                spec.compiler_config()
            ),
            JobKind::Run => format!(
                "job-v1|run|kernel={:?}|cc={:?}|sc={:?}",
                r.kernel.as_ref().expect("non-figure").id(),
                spec.compiler_config(),
                spec.sim_config()
            ),
            JobKind::Campaign => {
                // `|offset=N` appears only for shard jobs so every key an
                // unsharded build ever wrote stays valid; without it, a
                // shard and a whole campaign with equal run counts would
                // alias in the cache and serve each other's results.
                let offset = if req.run_offset == 0 {
                    String::new()
                } else {
                    format!("|offset={}", req.run_offset)
                };
                format!(
                    "job-v1|campaign|kernel={:?}|cc={:?}|sc={:?}|runs={}|seed={}|strikes={}{offset}",
                    r.kernel.as_ref().expect("non-figure").id(),
                    spec.compiler_config(),
                    spec.sim_config(),
                    req.runs,
                    req.seed,
                    req.strikes
                )
            }
        }
    }

    fn render(&self, req: &JobRequest, r: &Resolved, ctl: &JobCtl) -> Result<Json, String> {
        if ctl.is_canceled() {
            return Err("canceled before execution".to_string());
        }
        let spec = Self::spec(req, r);
        let with_head = |kind: &str, rest: Vec<(&str, Json)>| {
            let head: [(&str, Json); 6] = [
                ("kind", kind.into()),
                ("kernel", req.kernel.as_str().into()),
                ("scheme", req.scheme.as_str().into()),
                ("scale", r.scale.name().into()),
                ("sb", req.sb.into()),
                ("wcdl", req.wcdl.into()),
            ];
            Json::obj(head.into_iter().chain(rest))
        };
        match req.kind {
            JobKind::Compile => {
                let kernel = r.kernel.as_ref().expect("non-figure");
                let out = self.engine.compile(kernel, &spec.compiler_config());
                let s = &out.stats;
                Ok(with_head(
                    "compile",
                    vec![
                        ("ckpts_inserted", s.ckpts_inserted.into()),
                        ("ckpts_pruned", s.ckpts_pruned.into()),
                        ("ckpts_licm_removed", s.ckpts_licm_removed.into()),
                        ("spill_stores", s.spill_stores.into()),
                        ("spill_loads", s.spill_loads.into()),
                        ("spilled_vregs", s.spilled_vregs.into()),
                        ("ivs_merged", s.ivs_merged.into()),
                        ("boundaries", s.boundaries.into()),
                        ("split_iterations", s.split_iterations.into()),
                        ("final_insts", s.final_insts.into()),
                        ("baseline_insts", s.baseline_insts.into()),
                    ],
                ))
            }
            JobKind::Run => {
                let kernel = r.kernel.as_ref().expect("non-figure");
                let result = self.engine.run(kernel, &spec);
                Ok(with_head(
                    "run",
                    vec![("stats", result.outcome.stats.to_json())],
                ))
            }
            JobKind::Campaign => {
                let kernel = r.kernel.as_ref().expect("non-figure");
                let config = CampaignConfig {
                    runs: req.runs as usize,
                    seed: req.seed,
                    strikes_per_run: req.strikes as usize,
                    // Shard-aware execution: runs cover the global index
                    // range [run_offset, run_offset + runs), so a fleet of
                    // shard jobs partitions the exact run set a single
                    // process would execute (offset 0 = the whole
                    // campaign, unchanged).
                    first_run: req.run_offset as usize,
                    ..Default::default()
                };
                let on_run = |done: usize, total: usize| ctl.progress(done as u64, total as u64);
                let on_progress = |p: &CampaignProgress| {
                    ctl.progress_stats(p.done as u64, p.total as u64, stats_of(p))
                };
                let hook = CampaignHook {
                    cancel: Some(ctl.cancel_flag()),
                    on_run: Some(&on_run),
                    on_progress: Some(&on_progress),
                    progress_every: 0,
                };
                let (report, _records, _fork) = fault_campaign_hooked(
                    &kernel.program,
                    &spec,
                    &config,
                    self.engine.threads(),
                    hook,
                )
                .map_err(|e| match e {
                    RunError::Canceled => "canceled mid-campaign".to_string(),
                    other => other.to_string(),
                })?;
                Ok(campaign_payload(
                    req,
                    r.scale.name(),
                    &CampaignTotals::from_report(&report),
                ))
            }
            JobKind::Figure => {
                let target = target_by_name(&req.target).expect("validated in resolve");
                let table = (target.generate)(&self.engine.figure_scope(), r.scale);
                Ok(Json::obj([
                    ("kind", Json::from("figure")),
                    ("target", req.target.as_str().into()),
                    ("scale", r.scale.name().into()),
                    ("table", table.json()),
                ]))
            }
        }
    }
}

impl Executor for EngineExecutor {
    fn execute(&self, req: &JobRequest, ctl: &JobCtl) -> Result<ExecOutput, String> {
        let resolved = self.resolve(req)?;
        let mut quarantined = 0;
        let key = Self::store_key(req, &resolved);
        if let Some(store) = &self.store {
            match store.get(&key) {
                Lookup::Hit(payload) => {
                    return Ok(ExecOutput {
                        result: payload,
                        store: StoreStatus::Hit,
                        quarantined: 0,
                    })
                }
                Lookup::Miss => {}
                Lookup::Quarantined => quarantined = 1,
            }
        }
        let payload = self.render(req, &resolved, ctl)?.to_string();
        let store = match &self.store {
            Some(store) => {
                // A failed put degrades to "not cached", never to a failed
                // job; the payload in hand is still correct.
                if let Err(e) = store.put(&key, &payload) {
                    eprintln!("serve: artifact store put failed: {e}");
                }
                if self.store_cap.is_some()
                    && self.puts.fetch_add(1, Ordering::Relaxed) % GC_EVERY_PUTS
                        == GC_EVERY_PUTS - 1
                {
                    self.collect_store();
                }
                StoreStatus::Miss
            }
            None => StoreStatus::Off,
        };
        Ok(ExecOutput {
            result: payload,
            store,
            quarantined,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_req() -> JobRequest {
        JobRequest::new(JobKind::Run)
    }

    #[test]
    fn unknown_names_are_rejected_with_field_errors() {
        let exec = EngineExecutor::new(Engine::serial());
        let mut req = run_req();
        req.kernel = "not-a-kernel".into();
        assert!(exec.execute_direct(&req).unwrap_err().contains("kernel"));
        let mut req = run_req();
        req.scheme = "not-a-scheme".into();
        assert!(exec.execute_direct(&req).unwrap_err().contains("scheme"));
        let mut req = JobRequest::new(JobKind::Figure);
        req.target = "fig999".into();
        assert!(exec.execute_direct(&req).unwrap_err().contains("target"));
    }

    #[test]
    fn run_payload_is_deterministic_and_store_off_without_a_store() {
        let exec = EngineExecutor::new(Engine::serial());
        let a = exec.execute_direct(&run_req()).unwrap();
        let b = exec.execute_direct(&run_req()).unwrap();
        assert_eq!(a.result, b.result);
        assert_eq!(a.store, StoreStatus::Off);
        assert!(a.result.starts_with("{\"kind\":\"run\""), "{}", a.result);
        assert!(a.result.contains("\"stats\":{\"cycles\":"), "{}", a.result);
    }

    #[test]
    fn uniform_store_keys_match_golden() {
        // A warm artifact store written by an older build must keep hitting
        // for every uniform scheme: the config Debug renderings are store-key
        // material and may never drift for uniform configs.
        assert_eq!(
            uniform_store_key_material(),
            include_str!("../golden/store_keys.txt"),
            "uniform store-key material drifted; this invalidates warm caches"
        );
    }

    #[test]
    fn shard_payloads_merge_to_the_direct_campaign_payload() {
        // The coordinator's whole correctness claim: executing a campaign
        // as offset shards and re-rendering the summed totals must
        // reproduce the single-process payload byte for byte.
        let exec = EngineExecutor::new(Engine::serial());
        let mut whole = JobRequest::new(JobKind::Campaign);
        whole.runs = 24;
        whole.strikes = 2;
        whole.seed = 7;
        let direct = exec.execute_direct(&whole).unwrap().result;

        let mut merged = CampaignTotals::default();
        for (offset, runs) in [(0u64, 9u64), (9, 9), (18, 6)] {
            let mut shard = whole.clone();
            shard.run_offset = offset;
            shard.runs = runs;
            let payload = exec.execute_direct(&shard).unwrap().result;
            merged.absorb(&CampaignTotals::from_payload(&payload).expect("parsable shard"));
        }
        assert_eq!(
            campaign_payload(&whole, "smoke", &merged).to_string(),
            direct
        );
    }

    #[test]
    fn campaign_store_keys_distinguish_shards_but_not_offset_zero() {
        let exec = EngineExecutor::new(Engine::serial());
        let whole = JobRequest::new(JobKind::Campaign);
        let r = exec.resolve(&whole).unwrap();
        let k_whole = EngineExecutor::store_key(&whole, &r);
        assert!(
            !k_whole.contains("offset"),
            "offset 0 must not perturb pre-shard store keys: {k_whole}"
        );
        let mut shard = whole.clone();
        shard.run_offset = 8;
        let k_shard = EngineExecutor::store_key(&shard, &exec.resolve(&shard).unwrap());
        assert_ne!(k_whole, k_shard);
        assert!(k_shard.ends_with("|offset=8"), "{k_shard}");
    }

    #[test]
    fn store_keys_separate_every_knob() {
        let exec = EngineExecutor::new(Engine::serial());
        let base = exec.resolve(&run_req()).unwrap();
        let k0 = EngineExecutor::store_key(&run_req(), &base);
        let mut wcdl = run_req();
        wcdl.wcdl = 50;
        let mut sb = run_req();
        sb.sb = 40;
        let mut scheme = run_req();
        scheme.scheme = "turnstile".into();
        for changed in [wcdl, sb, scheme] {
            let r = exec.resolve(&changed).unwrap();
            assert_ne!(k0, EngineExecutor::store_key(&changed, &r), "{changed:?}");
        }
        // Campaign keys also cover runs/seed/strikes.
        let c0 = JobRequest::new(JobKind::Campaign);
        let rc = exec.resolve(&c0).unwrap();
        let ck0 = EngineExecutor::store_key(&c0, &rc);
        let mut seed = c0.clone();
        seed.seed = 1;
        assert_ne!(ck0, EngineExecutor::store_key(&seed, &rc));
    }

    /// The explorer's override fields flow into the derived configs (and
    /// therefore the store keys) without touching default requests: an
    /// empty override resolves to exactly the spec an older build derived,
    /// so every pre-explorer store key stays valid.
    #[test]
    fn explorer_overrides_flow_into_spec_and_store_keys() {
        let exec = EngineExecutor::new(Engine::serial());
        let base = run_req();
        let k0 = EngineExecutor::store_key(&base, &exec.resolve(&base).unwrap());

        let mut clq = run_req();
        clq.clq = "cam-4".into();
        let r = exec.resolve(&clq).unwrap();
        assert_eq!(
            EngineExecutor::spec(&clq, &r).sim_config().clq,
            turnpike_sim::ClqKind::Cam(4)
        );
        assert_ne!(k0, EngineExecutor::store_key(&clq, &r));

        let mut colors = run_req();
        colors.colors = 8;
        let r = exec.resolve(&colors).unwrap();
        assert_eq!(EngineExecutor::spec(&colors, &r).sim_config().colors, 8);
        assert_ne!(k0, EngineExecutor::store_key(&colors, &r));

        let mut geom = run_req();
        geom.geom = "slim".into();
        let r = exec.resolve(&geom).unwrap();
        assert_eq!(
            EngineExecutor::spec(&geom, &r).sim_config().l1_bytes,
            32 * 1024
        );
        assert_ne!(k0, EngineExecutor::store_key(&geom, &r));

        // Explicitly naming the defaults aliases the default key — the
        // explorer's canonical points and a plain request share artifacts.
        let mut a53 = run_req();
        a53.geom = "a53".into();
        assert_eq!(
            k0,
            EngineExecutor::store_key(&a53, &exec.resolve(&a53).unwrap())
        );

        // Bad names are resolve-time field errors, not panics.
        let mut bad = run_req();
        bad.clq = "compact-x".into();
        assert!(exec.execute_direct(&bad).unwrap_err().contains("clq"));
        let mut bad = run_req();
        bad.geom = "huge".into();
        assert!(exec.execute_direct(&bad).unwrap_err().contains("geometry"));
    }
}
