//! Admission: tenant budgets and their accounting windows, the
//! deferral-vs-rejection pricing of an over-allowance job, and routing —
//! everything that decides *whether and where* a job goes, for fresh
//! arrivals and budget-window releases alike. What happens once a platform
//! has been chosen is `dispatch`'s business; nothing here touches
//! capacity, startup or run times.

use super::*;
use crate::lifecycle::JobLifecycle;
use crate::observe::{Decision, DecisionRecord};
use crate::scheduler::{FleetView, Route};

impl Fleet<'_> {
    /// Is this tenant's budget (if any) already exhausted?
    fn budget_exhausted(&self, tenant: TenantId) -> bool {
        self.budgets
            .get(tenant)
            .is_some_and(|&cap| self.tenant_spend.get(tenant).copied().unwrap_or(0.0) >= cap)
    }

    fn queued_workers(&self, q: &ReadyQueue<Handle>) -> usize {
        q.items().map(|h| self.slab.get(h).job.workers).sum()
    }

    fn view(&self) -> FleetView {
        debug_assert_eq!(
            self.faas_queue.queued_workers(),
            self.queued_workers(&self.faas_queue)
        );
        debug_assert_eq!(
            self.iaas_queue.queued_workers(),
            self.queued_workers(&self.iaas_queue)
        );
        FleetView {
            faas_in_use: self.cfg.faas.concurrency_limit - self.faas.available(),
            faas_limit: self.cfg.faas.concurrency_limit,
            faas_queued_workers: self.faas_queue.queued_workers(),
            iaas_free: self.iaas.free(),
            iaas_capacity: self.iaas.capacity(),
            iaas_provisioning: self.iaas.provisioning(),
            iaas_queued_workers: self.iaas_queue.queued_workers(),
        }
    }

    /// The admission gate every ready job passes — a fresh arrival
    /// (`Queued`) or one held over from the last budget window
    /// (`Deferred`). A tenant whose attributed spend has exhausted its
    /// declared budget gets no more admissions this window: the job is
    /// priced ([`Self::price_over_allowance`]) and either `Rejected`
    /// without touching a platform or held for the next window's fresh
    /// allowance. The allowance is a cap, not a floodgate: a backlog larger
    /// than one window's budget drains at the budgeted rate, window over
    /// window (spend is attributed at dispatch, so jobs admitted but still
    /// queueing don't show yet). A held job is re-priced at every
    /// boundary — a deadline that was viable at arrival may have become
    /// doomed while it waited, the exact case the pricing exists to
    /// refuse cleanly.
    pub(super) fn admit_or_refuse(
        &mut self,
        h: Handle,
        now: SimTime,
        sched: &mut dyn Scheduler,
    ) -> Result<(), String> {
        let slot = self.slab.get(h);
        let held = slot.state.lifecycle == JobLifecycle::Deferred;
        let over = self
            .budget_exhausted(slot.job.tenant)
            .then(|| self.price_over_allowance(h, now, &*sched));
        let Some(refusal) = over else {
            if held {
                self.step(h, now, JobLifecycle::Queued);
            }
            return self.admit(h, now, sched);
        };
        if matches!(refusal, Decision::Reject { .. }) {
            if held {
                self.step(h, now, JobLifecycle::Queued);
            }
            self.step(h, now, JobLifecycle::Rejected);
            self.record(h, now, refusal);
            self.retire(h);
        } else if held {
            // Still over allowance: keep waiting. The job's Defer
            // decision is already on record.
            self.deferred_queue.push(h);
        } else {
            self.defer(h, now);
            self.record(h, now, refusal);
        }
        Ok(())
    }

    /// Route the job at `now` and enqueue (or launch) it on the chosen
    /// platform; the scheduler's prediction is snapshotted here so
    /// prediction error is scored against what the estimator believed *at
    /// admission*. A job wider than the platform it is routed to can never
    /// start: that is an error in the trace or the config, reported, not
    /// a state the simulator can be in.
    fn admit(&mut self, h: Handle, now: SimTime, sched: &mut dyn Scheduler) -> Result<(), String> {
        let view = self.view();
        // The scheduler sees the job as of *admission*: a job released
        // from budget deferral has burned part of its slack, so its
        // submit is advanced to `now` and laxity() measures the deadline
        // slack actually remaining (fresh arrivals have submit == now and
        // are unchanged). Record-keeping keeps the original submit.
        let mut job = self.slab.get(h).job;
        job.submit = job.submit.max(now);
        // Snapshot first: the prediction scored later is the one routing
        // is about to act on (route() may mutate scheduler state).
        let predicted = sched.estimate(&job);
        let route = sched.route(&job, &view);
        // Width is validated against the *routed* platform only: a job
        // too wide for one substrate is fine as long as its scheduler
        // never sends it there.
        let (limit, what) = match route {
            Route::Faas => (
                self.cfg.faas.concurrency_limit,
                "the FaaS account concurrency limit",
            ),
            Route::Iaas => (self.cfg.iaas.max_instances, "the IaaS autoscaling ceiling"),
            Route::Spot => (
                self.cfg.iaas.max_instances,
                "the ceiling of the reserved pool a spot job falls back to",
            ),
        };
        if job.workers > limit {
            return Err(format!(
                "job {} needs {} workers but is routed to {route:?}, where {what} is {limit}",
                job.id, job.workers
            ));
        }
        {
            let s = self.slab.state_mut(h);
            s.predicted = predicted;
            s.route = route;
        }
        if self.obs_on {
            // The audit record names the inputs routing acted on: the
            // snapshotted prediction and its P95 ETA, the risk-adjusted
            // spot ETA (when the policy computes one), and the deadline
            // slack remaining at this admission.
            let e = predicted;
            let admitted = Decision::Admit {
                route,
                predicted_run_s: e.map(|e| e.time(route)),
                eta_q_s: e.map(|e| e.eta_q(route)),
                spot_eta_s: e.and_then(|e| sched.spot_eta_hint(&job, &e)),
                laxity_s: job.laxity().map(|l| l.as_secs()),
            };
            self.record(h, now, admitted);
        }
        match route {
            Route::Faas => self.enqueue_faas(h, now, sched),
            Route::Iaas => self.enqueue_iaas(h, now, sched),
            Route::Spot => self.start_spot(h, now),
        }
        Ok(())
    }

    /// Deferral-vs-rejection pricing for an over-allowance job: the
    /// decision, carrying the prices that settled it for the audit.
    /// Without a budget window, or for a tenant whose cap is zero (no
    /// window can ever afford it), the job is refused outright. Otherwise
    /// defer costs nothing when the job's P95 completion after the next
    /// window boundary still makes its deadline, and `deadline_miss_cost`
    /// when it (at P95) cannot; rejection always costs `rejection_cost`.
    /// The job is rejected when that is strictly cheaper — i.e. it is
    /// doomed at the tail and the platform prices a clean refusal below a
    /// late finish. Deadline-less jobs (and constant routers, which
    /// predict nothing) always defer.
    fn price_over_allowance(&self, h: Handle, now: SimTime, sched: &dyn Scheduler) -> Decision {
        let job = self.slab.get(h).job;
        let cap = self.budgets.get(job.tenant).copied().unwrap_or(0.0);
        // The standing window chain ticks at multiples of `w`: the job
        // would be released at the next boundary. Known whether or not the
        // job carries a deadline, so every Defer audit names it.
        let release =
            self.cfg.budget_window.filter(|_| cap > 0.0).map(|w| {
                SimTime::secs(((now.as_secs() / w.as_secs()).floor() + 1.0) * w.as_secs())
            });
        let deadline = release.and(job.deadline);
        // Best-substrate P95 run after release (queue/startup slack is
        // the deadline's own business — the pricing only needs the tail
        // run).
        let eta_q_s = release.zip(deadline).and_then(|(release, _)| {
            let mut probe = job;
            probe.submit = release;
            sched
                .estimate(&probe)
                .map(|e| e.eta_q(Route::Faas).min(e.eta_q(Route::Iaas)))
        });
        let FleetConfig {
            deadline_miss_cost,
            rejection_cost,
            ..
        } = *self.cfg;
        let reject = match (release, deadline, eta_q_s) {
            (None, ..) => true,
            (Some(release), Some(deadline), Some(eta)) => {
                let misses = release + SimTime::secs(eta) > deadline;
                rejection_cost < if misses { deadline_miss_cost } else { 0.0 }
            }
            _ => false,
        };
        let laxity_s = deadline.map(|d| d.as_secs() - now.as_secs());
        let release_s = release.map(|r| r.as_secs());
        if reject {
            Decision::Reject {
                laxity_s,
                release_s,
                eta_q_s,
                deadline_miss_cost,
                rejection_cost,
            }
        } else {
            Decision::Defer {
                laxity_s,
                release_s,
                eta_q_s,
                deadline_miss_cost,
                rejection_cost,
            }
        }
    }

    /// Put a decision about the job on the observer's audit trail.
    fn record(&mut self, h: Handle, now: SimTime, decision: Decision) {
        if self.obs_on {
            let j = &self.slab.get(h).job;
            self.obs.decision(&DecisionRecord {
                at: now,
                job: j.id,
                tenant: j.tenant,
                decision,
            });
        }
    }

    /// Hold the job until the next budget window boundary. The standing
    /// window chain (set up by the replay driver whenever the source
    /// declares budgets) guarantees a boundary event is already in flight.
    fn defer(&mut self, h: Handle, now: SimTime) {
        debug_assert!(
            self.cfg.budget_window.is_some() && !self.budgets.is_empty(),
            "deferral needs the window chain"
        );
        self.step(h, now, JobLifecycle::Deferred);
        self.slab.state_mut(h).deferred = true;
        self.deferred_queue.push(h);
    }

    /// A new accounting window of length `w` opens: every tenant gets a
    /// fresh allowance, and the jobs that sat out the last window go back
    /// through the admission gate (in arrival order). The chain re-arms
    /// itself at every boundary — ledgers reset whether or not anyone was
    /// deferred, so budgets really are per-window allowances — and stops
    /// once all jobs are terminal (the trailing event, if any, is dropped
    /// by the replay loop before it can stretch the makespan).
    pub(super) fn open_window(
        &mut self,
        now: SimTime,
        w: SimTime,
        sched: &mut dyn Scheduler,
    ) -> Result<(), String> {
        for spent in self.tenant_spend.values_mut() {
            *spent = 0.0;
        }
        for h in std::mem::take(&mut self.deferred_queue) {
            self.admit_or_refuse(h, now, sched)?;
        }
        if !self.drained() {
            self.events.push(now + w, Event::BudgetWindow(w));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::{replay, replay_observed, replay_stats, simulate, FleetConfig};
    use super::*;
    use crate::job::{JobClass, JobRequest};
    use crate::observe::NullObserver;
    use crate::scheduler::{AllFaas, AllIaas, CostAware, FairShare};
    use crate::stream::TextSource;
    use crate::workload::{ArrivalProcess, JobMix, TenantSpec, Trace};

    /// Budget deferral: with an accounting window, an over-budget tenant's
    /// jobs wait for the next window instead of dying — nothing is
    /// rejected, every job eventually completes, and the deferrals are
    /// surfaced per tenant.
    #[test]
    fn budget_window_defers_instead_of_rejecting() {
        let spec = TenantSpec {
            n_tenants: 2,
            deadline_frac: 0.0,
            deadline_slack: 3.0,
        };
        let base = Trace::generate_multi(
            ArrivalProcess::Poisson { rate: 0.5 },
            &JobMix::convex_mix(),
            &spec,
            200,
            31,
        )
        .with_budget(0, 0.02);
        let reject_cfg = FleetConfig::default();
        let rejected = simulate(&base, &reject_cfg, &mut CostAware::new(), 31);
        assert!(rejected.rejected_jobs > 0, "premise: the cap bites");
        assert_eq!(rejected.deferred_jobs, 0);

        let defer_cfg = FleetConfig {
            budget_window: Some(SimTime::hours(1.0)),
            ..FleetConfig::default()
        };
        let deferred = simulate(&base, &defer_cfg, &mut CostAware::new(), 31);
        assert_eq!(deferred.rejected_jobs, 0, "deferral replaces rejection");
        assert!(deferred.deferred_jobs > 0, "the cap must still bite");
        assert_eq!(deferred.n_jobs, 200, "every job completes eventually");
        // Deferred jobs belong to the capped tenant and waited at least
        // until a window boundary.
        let rows = deferred.per_tenant();
        let t0 = rows
            .iter()
            .find(|t| t.tenant == 0)
            .expect("tenant 0 has a per-tenant row");
        let t1 = rows
            .iter()
            .find(|t| t.tenant == 1)
            .expect("tenant 1 has a per-tenant row");
        assert_eq!(t0.deferred, deferred.deferred_jobs);
        assert_eq!(t1.deferred, 0, "the uncapped tenant never waits");
        for r in deferred.records.iter().filter(|r| r.deferred) {
            assert_eq!(r.tenant, 0);
            assert!(
                r.queue.as_secs() > 0.0,
                "a deferred job's wait shows up as queue time"
            );
        }
        // A zero budget can never be afforded: still rejected, window or
        // not (otherwise the job would defer forever).
        let zero = Trace::generate_multi(
            ArrivalProcess::Poisson { rate: 0.5 },
            &JobMix::convex_mix(),
            &spec,
            50,
            31,
        )
        .with_budget(0, 0.0);
        let m = simulate(&zero, &defer_cfg, &mut CostAware::new(), 31);
        assert!(m.rejected_jobs > 0);
        assert_eq!(m.deferred_jobs, 0);
    }

    /// Per-window allowance semantics: ledgers reset at *every* window
    /// boundary, not just after a deferral — a tenant spending under its
    /// cap per window is never held up, however much it accumulates
    /// across windows.
    #[test]
    fn budget_window_resets_every_boundary() {
        // One ~$0.007 IaaS job per hourly window; the $0.012 cap covers
        // any single window but not the cumulative total.
        let jobs = (0..4)
            .map(|k| {
                JobRequest::new(
                    k,
                    JobClass::LrHiggs,
                    SimTime::secs(3_600.0 * k as f64 + 1.0),
                    10,
                )
            })
            .collect();
        let trace = Trace::from_jobs(jobs).with_budget(0, 0.012);
        let hard = simulate(&trace, &FleetConfig::default(), &mut CostAware::new(), 1);
        assert!(hard.rejected_jobs > 0, "premise: the total blows the cap");
        let defer_cfg = FleetConfig {
            budget_window: Some(SimTime::hours(1.0)),
            ..FleetConfig::default()
        };
        let m = simulate(&trace, &defer_cfg, &mut CostAware::new(), 1);
        assert_eq!(m.rejected_jobs, 0);
        assert_eq!(
            m.deferred_jobs, 0,
            "steady under-cap-per-window spend must never defer"
        );
        assert_eq!(m.n_jobs, 4);
    }

    /// A backlog bigger than one window's allowance drains at the
    /// budgeted rate, window over window — the boundary release re-checks
    /// the fresh allowance instead of flushing everything at once.
    #[test]
    fn budget_window_drains_backlog_at_the_budgeted_rate() {
        // Six ~$0.007 jobs burst at t≈0; the $0.012 cap affords ~2 per
        // hourly window.
        let jobs = (0..6)
            .map(|k| JobRequest::new(k, JobClass::LrHiggs, SimTime::secs(k as f64), 10))
            .collect();
        let trace = Trace::from_jobs(jobs).with_budget(0, 0.012);
        let cfg = FleetConfig {
            budget_window: Some(SimTime::hours(1.0)),
            ..FleetConfig::default()
        };
        let m = simulate(&trace, &cfg, &mut CostAware::new(), 1);
        assert_eq!(m.rejected_jobs, 0);
        assert_eq!(m.n_jobs, 6, "the whole backlog completes eventually");
        assert_eq!(m.deferred_jobs, 4, "two run now, four wait");
        assert!(
            m.makespan > SimTime::hours(2.0),
            "the tail needs a third window, makespan {}",
            m.makespan
        );
    }

    /// A job released from deferral has burned part of its slack: the
    /// scheduler must be routed with the *remaining* laxity, not the
    /// submit-relative one.
    #[test]
    fn deferred_jobs_route_with_remaining_laxity() {
        /// Records the laxity each routed job presents.
        struct Probe {
            seen: Vec<Option<f64>>,
        }
        impl Scheduler for Probe {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn route(&mut self, job: &JobRequest, _view: &FleetView) -> Route {
                self.seen.push(job.laxity().map(|l| l.as_secs()));
                Route::Faas
            }
        }

        let mut burner = JobRequest::new(0, JobClass::LrHiggs, SimTime::ZERO, 10);
        burner.tenant = 0;
        let mut late = JobRequest::new(1, JobClass::LrHiggs, SimTime::secs(5.0), 10);
        late.tenant = 0;
        late.deadline = Some(SimTime::secs(10_000.0));
        let trace = Trace::from_jobs(vec![burner, late]).with_budget(0, 0.001);
        let cfg = FleetConfig {
            budget_window: Some(SimTime::hours(1.0)),
            ..FleetConfig::default()
        };
        let mut probe = Probe { seen: Vec::new() };
        let m = simulate(&trace, &cfg, &mut probe, 1);
        assert_eq!(m.deferred_jobs, 1, "the burner exhausts the cap");
        // The deferred job is released at the t=3600 boundary: the
        // scheduler must see 10000 − 3600, not 10000 − 5.
        assert_eq!(probe.seen[0], None);
        assert_eq!(probe.seen[1], Some(10_000.0 - 3_600.0));
    }

    /// Deferral-vs-rejection pricing: with rejection priced below a P95
    /// deadline miss, an over-allowance job whose deadline is already
    /// doomed at the next window boundary is rejected, while a viable one
    /// still defers. With the default (equal) prices every job defers —
    /// the PR 4 behaviour.
    #[test]
    fn admission_prices_deferral_against_rejection_per_job() {
        let window = SimTime::hours(1.0);
        let mk_trace = || {
            let mut burner = JobRequest::new(0, JobClass::LrHiggs, SimTime::ZERO, 10);
            burner.tenant = 0;
            // Doomed: over-allowance and its deadline lands *before* the
            // next window boundary — deferral can only deliver it late.
            let mut doomed = JobRequest::new(1, JobClass::LrHiggs, SimTime::secs(5.0), 10);
            doomed.tenant = 0;
            doomed.deadline = Some(SimTime::secs(600.0));
            // Viable: the boundary release still makes this deadline.
            let mut viable = JobRequest::new(2, JobClass::LrHiggs, SimTime::secs(6.0), 10);
            viable.tenant = 0;
            viable.deadline = Some(SimTime::secs(20_000.0));
            Trace::from_jobs(vec![burner, doomed, viable]).with_budget(0, 0.001)
        };
        let priced_cfg = FleetConfig {
            budget_window: Some(window),
            rejection_cost: 0.1,
            deadline_miss_cost: 1.0,
            ..FleetConfig::default()
        };
        let m = simulate(&mk_trace(), &priced_cfg, &mut CostAware::new(), 1);
        assert_eq!(m.rejected_jobs, 1, "the doomed job is refused cleanly");
        assert_eq!(m.deferred_jobs, 1, "the viable job waits for its window");
        assert!(m.records[1].rejected && !m.records[2].rejected);
        assert!(m.records[2].deferred);
        // Default prices tie → ties defer → PR 4 behaviour byte-for-byte.
        let default_cfg = FleetConfig {
            budget_window: Some(window),
            ..FleetConfig::default()
        };
        let m = simulate(&mk_trace(), &default_cfg, &mut CostAware::new(), 1);
        assert_eq!(m.rejected_jobs, 0);
        assert_eq!(m.deferred_jobs, 2);
        // Constant routers predict nothing: pricing degrades to deferral
        // rather than rejecting on a guess.
        let m = simulate(&mk_trace(), &priced_cfg, &mut AllFaas, 1);
        assert_eq!(m.rejected_jobs, 0);
    }

    /// Jobs that become doomed *while deferred* are re-priced at every
    /// window boundary: a deadline that was viable at arrival but slips
    /// past the P95 miss point during the wait is rejected (when rejection
    /// is priced below a miss) instead of deferring window after window
    /// toward a guaranteed late finish.
    #[test]
    fn boundary_release_reprices_jobs_doomed_while_deferred() {
        let mk_trace = || {
            // The burner exhausts the tiny allowance; J1 and J2 arrive
            // over-allowance, both viable for the first boundary (release
            // 3 600 + short run < 5 000). At the boundary J1 drains the
            // fresh allowance first (arrival order), so J2 is still over
            // — and its deadline now falls before the *next* boundary at
            // 7 200: doomed.
            let mut burner = JobRequest::new(0, JobClass::LrHiggs, SimTime::ZERO, 10);
            burner.tenant = 0;
            let mut j1 = JobRequest::new(1, JobClass::LrHiggs, SimTime::secs(5.0), 10);
            j1.tenant = 0;
            j1.deadline = Some(SimTime::secs(5_000.0));
            let mut j2 = JobRequest::new(2, JobClass::LrHiggs, SimTime::secs(6.0), 10);
            j2.tenant = 0;
            j2.deadline = Some(SimTime::secs(5_000.0));
            Trace::from_jobs(vec![burner, j1, j2]).with_budget(0, 0.005)
        };
        let cfg = FleetConfig {
            budget_window: Some(SimTime::hours(1.0)),
            rejection_cost: 0.1,
            deadline_miss_cost: 1.0,
            ..FleetConfig::default()
        };
        let m = simulate(&mk_trace(), &cfg, &mut CostAware::new(), 1);
        assert_eq!(m.rejected_jobs, 1, "J2 is refused at the boundary");
        assert!(m.records[2].rejected, "the doomed job is the one rejected");
        assert!(m.records[1].deferred && !m.records[1].rejected);
        // Default (tied) prices keep the old behaviour: J2 re-defers and
        // is delivered late instead.
        let defaults = FleetConfig {
            budget_window: Some(SimTime::hours(1.0)),
            ..FleetConfig::default()
        };
        let m = simulate(&mk_trace(), &defaults, &mut CostAware::new(), 1);
        assert_eq!(m.rejected_jobs, 0);
        assert_eq!(m.n_jobs, 3, "everything still completes, just late");
    }

    /// A well-formed trace row wider than the platform its scheduler
    /// routes it to can never start. Every `replay*` entry point returns
    /// an `Err` naming the job, its width, the route and the limit — on
    /// all three routes.
    #[test]
    fn a_job_wider_than_its_routed_platform_is_an_error() {
        let cfg = FleetConfig::default();
        let wide = b"0.5\tlr-higgs\t10\t0\t-\n1.0\tlr-higgs\t5000\t0\t-\n";
        let routes: [(&mut dyn Scheduler, &str, usize); 3] = [
            (&mut AllFaas, "Faas", cfg.faas.concurrency_limit),
            (&mut AllIaas, "Iaas", cfg.iaas.max_instances),
            (
                &mut FairShare::new().with_spot_fraction(1.0),
                "Spot",
                cfg.iaas.max_instances,
            ),
        ];
        for (sched, route, limit) in routes {
            let err = replay(TextSource::new(&wide[..]), &cfg, sched, 1).unwrap_err();
            for part in ["job 1 ", "5000 workers", route, &format!("is {limit}")] {
                assert!(err.contains(part), "{route}: {err:?} lacks {part:?}");
            }
            let bounded = replay_stats(
                TextSource::new(&wide[..]),
                &cfg,
                sched,
                1,
                &mut NullObserver,
            );
            assert_eq!(bounded.unwrap_err(), err, "{route}");
        }
        // Width is checked against the routed platform only: the same job
        // is fine on a route that fits it.
        let mut roomy = FleetConfig::default();
        roomy.iaas.max_instances = 5_000;
        assert!(replay(TextSource::new(&wide[..]), &roomy, &mut AllIaas, 1).is_ok());
    }

    /// The same error out of the budget-window release path: the wide job
    /// arrives over allowance, is deferred (deferral never routes), and is
    /// found unroutable only when the next window re-admits it.
    #[test]
    fn a_wide_job_released_by_a_budget_window_is_an_error() {
        let text = b"budget\t0\t0.001\n0.0\tlr-higgs\t10\t0\t-\n5.0\tlr-higgs\t5000\t0\t-\n";
        let cfg = FleetConfig {
            budget_window: Some(SimTime::hours(1.0)),
            ..FleetConfig::default()
        };
        let mut rec = crate::observe::RecordingObserver::new();
        let err = replay_observed(TextSource::new(&text[..]), &cfg, &mut AllFaas, 1, &mut rec)
            .unwrap_err();
        assert!(
            err.contains("job 1 ") && err.contains("5000 workers"),
            "{err}"
        );
        assert!(
            rec.decisions
                .iter()
                .any(|d| d.job == 1 && matches!(d.decision, Decision::Defer { .. })),
            "premise: the wide job was deferred at arrival, so the error came from the release"
        );
    }
}
