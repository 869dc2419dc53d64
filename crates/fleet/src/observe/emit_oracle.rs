//! The bottom-up emitters the one-buffer writer replaced, kept as the
//! reference it is held to.
//!
//! Before [`crate::json::document`], every element of a document was
//! rendered into a `String` of its own by an owned-buffer `JsonObject`,
//! joined by `array`, and copied into its parent with `.raw(..)`; the
//! Chrome export found each attempt's reclaim and each platform event's
//! tenant with a linear scan. All of that is kept here as it was (methods
//! become functions of the recorder or metrics they render), and
//! the tests assert the writer reproduces it byte for byte.

use super::*;
use crate::job::{JobClass, TenantId};
use crate::metrics::{FleetMetrics, JobRecord, PlatformTotals, Quantiles};
use crate::workload::{ArrivalProcess, JobMix, TenantSpec, Trace};
use crate::{
    simulate_observed, AllFaas, CheckpointPolicy, DeadlineAware, FleetConfig, JobLifecycle,
};
use lml_sim::Cost;
use std::fmt::Write as _;

/// Incremental JSON object builder.
#[derive(Debug, Default)]
struct OldJsonObject {
    buf: String,
    any: bool,
}

impl OldJsonObject {
    fn new() -> Self {
        let mut buf = String::with_capacity(128);
        buf.push('{');
        OldJsonObject { buf, any: false }
    }

    fn key(&mut self, k: &str) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        quote_into(&mut self.buf, k);
        self.buf.push(':');
    }

    fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        quote_into(&mut self.buf, v);
        self
    }

    fn f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        assert!(v.is_finite(), "JSON numbers must be finite, got {v}");
        let _ = write!(self.buf, "{v:?}");
        self
    }

    fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

fn array(items: &[String]) -> String {
    format!("[{}]", items.join(","))
}

fn quote_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn trace_json(obs: &RecordingObserver) -> String {
    let events: Vec<String> = obs
        .events
        .iter()
        .map(|e| {
            OldJsonObject::new()
                .f64("t", e.at.as_secs())
                .u64("job", e.job)
                .u64("tenant", e.tenant as u64)
                .str("route", e.route.name())
                .u64("attempt", e.attempt as u64)
                .str("from", e.from.name())
                .str("to", e.to.name())
                .finish()
        })
        .collect();
    let decisions: Vec<String> = obs.decisions.iter().map(decision_json).collect();
    let platform: Vec<String> = obs
        .platform
        .iter()
        .map(|(at, ev)| platform_json(*at, ev))
        .collect();
    let attempts: Vec<String> = obs
        .attempts
        .iter()
        .map(|s| {
            OldJsonObject::new()
                .u64("job", s.job)
                .u64("tenant", s.tenant as u64)
                .str("substrate", s.substrate.name())
                .u64("attempt", s.attempt as u64)
                .f64("queued_at_s", s.queued_at.as_secs())
                .f64("dispatched_at_s", s.dispatched_at.as_secs())
                .f64("startup_s", s.startup_s)
                .f64("run_s", s.run_s)
                .finish()
        })
        .collect();
    let gauges: Vec<String> = obs
        .gauges
        .iter()
        .map(|g| {
            let spend: Vec<String> = g
                .tenant_spend
                .iter()
                .map(|&(t, usd)| {
                    OldJsonObject::new()
                        .u64("tenant", t as u64)
                        .f64("spend_usd", usd)
                        .finish()
                })
                .collect();
            OldJsonObject::new()
                .f64("t", g.at.as_secs())
                .u64("queue_depth", g.queue_depth as u64)
                .u64("deferred", g.deferred as u64)
                .u64("faas_in_use", g.faas_in_use as u64)
                .u64("faas_limit", g.faas_limit as u64)
                .u64("iaas_busy", g.iaas_busy as u64)
                .u64("iaas_capacity", g.iaas_capacity as u64)
                .u64("spot_in_use", g.spot_in_use as u64)
                .raw("tenant_spend", &array(&spend))
                .finish()
        })
        .collect();
    OldJsonObject::new()
        .str("schema", "lml-fleet/trace/v1")
        .str("policy", &obs.policy)
        .u64("seed", obs.seed)
        .u64("jobs", obs.n_jobs as u64)
        .raw("events", &array(&events))
        .raw("decisions", &array(&decisions))
        .raw("platform", &array(&platform))
        .raw("attempts", &array(&attempts))
        .raw("gauges", &array(&gauges))
        .finish()
}

fn reclaim_of(obs: &RecordingObserver, job: u64, attempt: u32, substrate: Route) -> Option<f64> {
    if substrate != Route::Spot {
        return None;
    }
    obs.platform.iter().find_map(|(_, ev)| match ev {
        PlatformEvent::SpotReclaim {
            job: j,
            attempt: a,
            held_s,
            ..
        } if *j == job && *a == attempt => Some(*held_s),
        _ => None,
    })
}

fn chrome_trace(obs: &RecordingObserver) -> String {
    let us = |t: f64| t * 1e6;
    let mut evs: Vec<String> = Vec::new();
    let span = |name: &str, pid: TenantId, tid: u64, ts_s: f64, dur_s: f64, args: &str| {
        OldJsonObject::new()
            .str("name", name)
            .str("ph", "X")
            .f64("ts", us(ts_s))
            .f64("dur", us(dur_s))
            .u64("pid", pid as u64)
            .u64("tid", tid)
            .str("cat", "fleet")
            .raw("args", args)
            .finish()
    };
    for s in &obs.attempts {
        let (startup, run) = match reclaim_of(obs, s.job, s.attempt, s.substrate) {
            Some(held_s) => (held_s.min(s.startup_s), (held_s - s.startup_s).max(0.0)),
            None => (s.startup_s, s.run_s),
        };
        let args = OldJsonObject::new()
            .str("substrate", s.substrate.name())
            .u64("attempt", s.attempt as u64)
            .finish();
        let q0 = s.queued_at.as_secs();
        let d0 = s.dispatched_at.as_secs();
        if d0 > q0 {
            evs.push(span("queued", s.tenant, s.job, q0, d0 - q0, &args));
        }
        if startup > 0.0 {
            evs.push(span("startup", s.tenant, s.job, d0, startup, &args));
        }
        if run > 0.0 {
            evs.push(span("run", s.tenant, s.job, d0 + startup, run, &args));
        }
    }
    for d in &obs.decisions {
        evs.push(
            OldJsonObject::new()
                .str("name", d.decision.name())
                .str("ph", "i")
                .f64("ts", us(d.at.as_secs()))
                .u64("pid", d.tenant as u64)
                .u64("tid", d.job)
                .str("cat", "decision")
                .str("s", "t")
                .raw("args", &decision_json(d))
                .finish(),
        );
    }
    for (at, ev) in &obs.platform {
        let (pid, tid) = match ev {
            PlatformEvent::FaasStart { job, .. }
            | PlatformEvent::SpotReclaim { job, .. }
            | PlatformEvent::CheckpointWrite { job, .. }
            | PlatformEvent::CheckpointRestore { job, .. } => (tenant_of(obs, *job), *job),
            _ => (0, 0),
        };
        evs.push(
            OldJsonObject::new()
                .str("name", ev.name())
                .str("ph", "i")
                .f64("ts", us(at.as_secs()))
                .u64("pid", pid as u64)
                .u64("tid", tid)
                .str("cat", "platform")
                .str("s", "t")
                .raw("args", &platform_json(*at, ev))
                .finish(),
        );
    }
    OldJsonObject::new()
        .raw("traceEvents", &array(&evs))
        .str("displayTimeUnit", "ms")
        .str(
            "otherData",
            &format!("lml-fleet policy={} seed={}", obs.policy, obs.seed),
        )
        .finish()
}

fn tenant_of(obs: &RecordingObserver, job: u64) -> TenantId {
    obs.attempts
        .iter()
        .find(|s| s.job == job)
        .map(|s| s.tenant)
        .or_else(|| obs.events.iter().find(|e| e.job == job).map(|e| e.tenant))
        .unwrap_or(0)
}

fn old_opt_f64(o: OldJsonObject, k: &str, v: Option<f64>) -> OldJsonObject {
    match v {
        Some(v) => o.f64(k, v),
        None => o.raw(k, "null"),
    }
}

fn decision_json(d: &DecisionRecord) -> String {
    let o = OldJsonObject::new()
        .f64("t", d.at.as_secs())
        .u64("job", d.job)
        .u64("tenant", d.tenant as u64)
        .str("decision", d.decision.name());
    match d.decision {
        Decision::Admit {
            route,
            eta_quantile,
            predicted_run_s,
            eta_q_s,
            spot_eta_s,
            laxity_s,
        } => {
            let o = o
                .str("route", route.name())
                .f64("eta_quantile", eta_quantile);
            let o = old_opt_f64(o, "predicted_run_s", predicted_run_s);
            let o = old_opt_f64(o, "eta_q_s", eta_q_s);
            let o = old_opt_f64(o, "spot_eta_s", spot_eta_s);
            old_opt_f64(o, "laxity_s", laxity_s).finish()
        }
        Decision::Defer {
            laxity_s,
            release_s,
            eta_q_s,
            deadline_miss_cost,
            rejection_cost,
        }
        | Decision::Reject {
            laxity_s,
            release_s,
            eta_q_s,
            deadline_miss_cost,
            rejection_cost,
        } => {
            let o = old_opt_f64(o, "laxity_s", laxity_s);
            let o = old_opt_f64(o, "release_s", release_s);
            let o = old_opt_f64(o, "eta_q_s", eta_q_s);
            o.f64("deadline_miss_cost_usd", deadline_miss_cost)
                .f64("rejection_cost_usd", rejection_cost)
                .finish()
        }
    }
}

fn platform_json(at: SimTime, ev: &PlatformEvent) -> String {
    let o = OldJsonObject::new()
        .f64("t", at.as_secs())
        .str("kind", ev.name());
    match *ev {
        PlatformEvent::FaasStart {
            job,
            workers,
            warm_hits,
        } => o
            .u64("job", job)
            .u64("workers", workers as u64)
            .u64("warm_hits", warm_hits as u64)
            .u64("cold_starts", (workers - warm_hits) as u64)
            .finish(),
        PlatformEvent::AutoscaleUp { instances, boot_s } => o
            .u64("instances", instances as u64)
            .f64("boot_s", boot_s)
            .finish(),
        PlatformEvent::AutoscaleDown { instances } => o.u64("instances", instances as u64).finish(),
        PlatformEvent::SpotReclaim {
            job,
            attempt,
            workers,
            held_s,
        } => o
            .u64("job", job)
            .u64("attempt", attempt as u64)
            .u64("workers", workers as u64)
            .f64("held_s", held_s)
            .finish(),
        PlatformEvent::CheckpointWrite { job, writes } => {
            o.u64("job", job).u64("writes", writes as u64).finish()
        }
        PlatformEvent::CheckpointRestore { job, epochs } => {
            o.u64("job", job).u64("epochs", epochs as u64).finish()
        }
    }
}

fn quantiles_json(q: Quantiles) -> String {
    OldJsonObject::new()
        .f64("mean", q.mean)
        .f64("p50", q.p50)
        .f64("p95", q.p95)
        .f64("p99", q.p99)
        .f64("max", q.max)
        .finish()
}

fn metrics_json(m: &FleetMetrics) -> String {
    let per_class: Vec<String> = m
        .per_class()
        .into_iter()
        .map(|c| {
            OldJsonObject::new()
                .str("class", c.class.name())
                .u64("jobs", c.jobs as u64)
                .f64("latency_p99_s", c.latency_p99)
                .f64("mean_cost_usd", c.mean_cost)
                .u64("predicted", c.predicted as u64)
                .f64("runtime_mape", c.runtime_mape)
                .f64("cost_mape", c.cost_mape)
                .finish()
        })
        .collect();
    let per_tenant: Vec<String> = m
        .per_tenant()
        .into_iter()
        .map(|t| {
            OldJsonObject::new()
                .u64("tenant", t.tenant as u64)
                .u64("jobs", t.jobs as u64)
                .u64("rejected", t.rejected as u64)
                .u64("deferred", t.deferred as u64)
                .f64("latency_p99_s", t.latency_p99)
                .f64("cost_usd", t.cost.as_usd())
                .f64("service_worker_s", t.service)
                .finish()
        })
        .collect();
    OldJsonObject::new()
        .str("schema", "lml-fleet/metrics/v1")
        .str("policy", &m.policy)
        .u64("seed", m.seed)
        .u64("jobs", m.n_jobs as u64)
        .f64("makespan_s", m.makespan.as_secs())
        .f64("throughput_jobs_per_s", m.throughput())
        .raw("latency_s", &quantiles_json(m.latency))
        .raw("queue_s", &quantiles_json(m.queue))
        .raw("startup_s", &quantiles_json(m.startup))
        .f64("faas_cost_usd", m.faas_cost.as_usd())
        .f64(
            "faas_provisioned_cost_usd",
            m.faas_provisioned_cost.as_usd(),
        )
        .f64("iaas_cost_usd", m.iaas_cost.as_usd())
        .f64("spot_cost_usd", m.spot_cost.as_usd())
        .f64("total_cost_usd", m.total_cost().as_usd())
        .u64("jobs_on_faas", m.jobs_on_faas as u64)
        .u64("jobs_on_iaas", m.jobs_on_iaas as u64)
        .u64("jobs_on_spot", m.jobs_on_spot as u64)
        .f64("warm_hit_rate", m.warm_hit_rate)
        .u64("cold_starts", m.cold_starts)
        .f64("iaas_utilization", m.iaas_utilization)
        .u64("iaas_peak_instances", m.iaas_peak_instances as u64)
        .u64("faas_peak_concurrency", m.faas_peak_concurrency as u64)
        .u64("spot_peak_instances", m.spot_peak_instances as u64)
        .u64("preemptions", m.preemptions)
        .u64("resumes", m.resumes)
        .f64("lost_work_s", m.lost_work.as_secs())
        .u64("checkpoint_writes", m.checkpoint_writes)
        .f64("checkpoint_cost_usd", m.checkpoint_cost.as_usd())
        .u64("rejected_jobs", m.rejected_jobs as u64)
        .u64("deferred_jobs", m.deferred_jobs as u64)
        .u64("predicted_jobs", m.predicted_jobs as u64)
        .f64("runtime_mape", m.runtime_mape)
        .f64("cost_mape", m.cost_mape)
        .u64("eta_q_jobs", m.eta_q_jobs as u64)
        .u64("eta_q_covered", m.eta_q_covered as u64)
        .f64("eta_q_coverage", m.eta_coverage())
        .u64("spot_attempts", m.spot_attempts)
        .u64("deadline_jobs", m.deadline_jobs as u64)
        .u64("deadline_hits", m.deadline_hits as u64)
        .u64("deadline_jobs_rejected", m.deadline_jobs_rejected as u64)
        .f64("deadline_hit_rate", m.deadline_hit_rate())
        .f64("fairness", m.fairness)
        .raw("per_class", &array(&per_class))
        .raw("per_tenant", &array(&per_tenant))
        .finish()
}

/// The recorder and metrics must render exactly what the old emitters
/// rendered; the recorder's lookup maps must agree with the old linear
/// scans.
fn assert_same_bytes(obs: &RecordingObserver, m: &FleetMetrics) {
    assert_eq!(obs.to_json(), trace_json(obs), "trace/v1");
    assert_eq!(obs.to_chrome_trace(), chrome_trace(obs), "chrome trace");
    assert_eq!(m.to_json(), metrics_json(m), "metrics/v1");
    let reclaims = obs.reclaims();
    for s in &obs.attempts {
        let held = reclaim_of(obs, s.job, s.attempt, s.substrate);
        let want = match held {
            Some(held_s) => (held_s.min(s.startup_s), (held_s - s.startup_s).max(0.0)),
            None => (s.startup_s, s.run_s),
        };
        assert_eq!(ran(s, &reclaims), want, "attempt {s:?}");
    }
    let tenants = obs.tenants();
    for (_, ev) in &obs.platform {
        if let PlatformEvent::FaasStart { job, .. }
        | PlatformEvent::SpotReclaim { job, .. }
        | PlatformEvent::CheckpointWrite { job, .. }
        | PlatformEvent::CheckpointRestore { job, .. } = *ev
        {
            assert_eq!(tenants.get(&job).copied().unwrap_or(0), tenant_of(obs, job));
        }
    }
}

/// A bursty three-tenant fleet with a budget-capped tenant, a hostile spot
/// market under checkpointed recovery and a small autoscaling IaaS pool,
/// run armed with the gauge clock. `hard_cap`
/// swaps the deadline-aware scheduler and its hourly budget window for
/// all-FaaS under a hard cap: no predictions, and refusals with no release
/// time.
fn recorded(hard_cap: bool, seed: u64) -> (RecordingObserver, FleetMetrics) {
    let spec = TenantSpec {
        n_tenants: 3,
        deadline_frac: 0.5,
        deadline_slack: 4.0,
    };
    let trace = Trace::generate_multi(
        ArrivalProcess::Burst {
            base_rate: 0.05,
            burst_rate: 0.8,
            period: 1_200.0,
            duty: 0.3,
        },
        &JobMix::default_mix(),
        &spec,
        300,
        seed,
    )
    .with_budget(0, 0.02);
    let mut cfg = FleetConfig {
        budget_window: (!hard_cap).then_some(SimTime::hours(1.0)),
        deadline_miss_cost: 4.0,
        ..FleetConfig::default()
    };
    cfg.spot.mean_time_to_preempt = SimTime::secs(1_800.0);
    cfg.checkpoint = CheckpointPolicy::every(1);
    cfg.iaas.min_instances = 2;
    let mut obs = RecordingObserver::new().with_gauge_period(SimTime::secs(600.0));
    let m = if hard_cap {
        simulate_observed(&trace, &cfg, &mut AllFaas, seed, &mut obs)
    } else {
        let mut sched = DeadlineAware::for_config(&cfg)
            .with_spot_fraction(0.6)
            .with_spot_recovery(cfg.checkpoint);
        simulate_observed(&trace, &cfg, &mut sched, seed, &mut obs)
    };
    (obs, m)
}

#[test]
fn replays_render_the_same_bytes_as_the_old_emitters() {
    let runs = [recorded(false, 42), recorded(true, 7)];
    // Premise: every decision and platform variant occurs, and every
    // optional decision field is written both as a number and as `null`.
    let decisions: Vec<&Decision> = runs
        .iter()
        .flat_map(|(obs, _)| obs.decisions.iter().map(|d| &d.decision))
        .collect();
    let platform: Vec<&PlatformEvent> = runs
        .iter()
        .flat_map(|(obs, _)| obs.platform.iter().map(|(_, ev)| ev))
        .collect();
    for name in ["admit", "defer", "reject"] {
        assert!(decisions.iter().any(|d| d.name() == name), "no {name}");
    }
    for name in [
        "faas_start",
        "autoscale_up",
        "autoscale_down",
        "spot_reclaim",
        "checkpoint_write",
        "checkpoint_restore",
    ] {
        assert!(platform.iter().any(|ev| ev.name() == name), "no {name}");
    }
    type Field = fn(&Decision) -> Option<Option<f64>>;
    let fields: [(&str, Field); 7] = [
        ("predicted_run_s", |d| match *d {
            Decision::Admit {
                predicted_run_s, ..
            } => Some(predicted_run_s),
            _ => None,
        }),
        ("admit eta_q_s", |d| match *d {
            Decision::Admit { eta_q_s, .. } => Some(eta_q_s),
            _ => None,
        }),
        ("spot_eta_s", |d| match *d {
            Decision::Admit { spot_eta_s, .. } => Some(spot_eta_s),
            _ => None,
        }),
        ("admit laxity_s", |d| match *d {
            Decision::Admit { laxity_s, .. } => Some(laxity_s),
            _ => None,
        }),
        ("refusal laxity_s", |d| match *d {
            Decision::Defer { laxity_s, .. } | Decision::Reject { laxity_s, .. } => Some(laxity_s),
            _ => None,
        }),
        ("release_s", |d| match *d {
            Decision::Defer { release_s, .. } | Decision::Reject { release_s, .. } => {
                Some(release_s)
            }
            _ => None,
        }),
        ("refusal eta_q_s", |d| match *d {
            Decision::Defer { eta_q_s, .. } | Decision::Reject { eta_q_s, .. } => Some(eta_q_s),
            _ => None,
        }),
    ];
    for (name, field) in fields {
        let seen: Vec<Option<f64>> = decisions.iter().filter_map(|d| field(d)).collect();
        assert!(seen.iter().any(Option::is_some), "{name} never Some");
        assert!(seen.iter().any(Option::is_none), "{name} never None");
    }
    let (obs, m) = &runs[0];
    assert!(
        m.preemptions > 0 && !obs.gauges.is_empty(),
        "spot-heavy, gauged"
    );
    for (obs, m) in &runs {
        assert_same_bytes(obs, m);
    }
}

/// A hand-fed recorder and rollup, both named `policy`, with the
/// widest numbers and an IaaS span sharing a reclaimed spot attempt's
/// `(job, attempt)` (only spot spans are truncated).
fn hand_fed(policy: &str) -> (RecordingObserver, FleetMetrics) {
    let mut obs = RecordingObserver::new();
    obs.begin(policy, 3, 2);
    obs.lifecycle(&FleetEvent {
        at: SimTime::secs(0.5),
        job: u64::MAX,
        tenant: TenantId::MAX,
        route: Route::Spot,
        attempt: u32::MAX,
        from: JobLifecycle::Queued,
        to: JobLifecycle::Booting,
    });
    let spot = AttemptSpan {
        job: 1,
        tenant: 2,
        substrate: Route::Spot,
        attempt: 0,
        queued_at: SimTime::secs(0.0),
        dispatched_at: SimTime::secs(-2.2250738585072014e-308),
        startup_s: 1.2345678901234567e-300,
        run_s: 9.0,
    };
    obs.attempt(&spot);
    obs.attempt(&AttemptSpan {
        substrate: Route::Iaas,
        ..spot
    });
    obs.platform(
        SimTime::secs(3.0),
        &PlatformEvent::SpotReclaim {
            job: 1,
            attempt: 0,
            workers: 2,
            held_s: 4.0,
        },
    );
    obs.gauges(&GaugeSample {
        at: SimTime::secs(1.0),
        queue_depth: 1,
        deferred: 0,
        faas_in_use: 2,
        faas_limit: 3,
        iaas_busy: 4,
        iaas_capacity: 5,
        spot_in_use: 6,
        tenant_spend: vec![(0, 0.25), (7, 1e-7)],
    });
    let record = JobRecord {
        id: 1,
        class: JobClass::LrHiggs,
        route: Route::Spot,
        workers: 2,
        tenant: 2,
        submit: SimTime::ZERO,
        deadline: None,
        queue: SimTime::ZERO,
        startup: SimTime::secs(1.0),
        run: SimTime::secs(3.0),
        warm_hits: 0,
        preemptions: 1,
        resumes: 0,
        spot_attempts: 1,
        lost_work: SimTime::ZERO,
        checkpoint_writes: 0,
        checkpoint_cost: Cost::ZERO,
        rejected: false,
        deferred: false,
        predicted_run: None,
        predicted_run_q: None,
        predicted_cost: None,
        cost: Cost::usd(0.5),
    };
    let m = FleetMetrics::from_records(policy, 3, vec![record], PlatformTotals::default());
    (obs, m)
}

#[test]
fn escaped_strings_render_the_same_bytes_as_the_old_emitters() {
    // Each class of escaped byte alone, so the fast path must notice each,
    // then all of them together.
    for policy in [
        "tab\tlf\ncr\r\u{1}\u{1f}é∑",
        "say \"hi\"",
        "back\\slash",
        "p\"q\\r\ns\tt\ru\u{1}v\u{1f}wé∑",
    ] {
        let (obs, m) = hand_fed(policy);
        assert_same_bytes(&obs, &m);
    }
    let (obs, _) = hand_fed("p\"q\\r\ns\tt\ru\u{1}v\u{1f}wé∑");
    assert!(obs
        .to_json()
        .contains(r#""policy":"p\"q\\r\ns\tt\ru\u0001v\u001fwé∑""#));
}
