//! Timing decorators over `lml-fleet`'s four extension traits
//! (`TraceSource`, `Scheduler`, `Estimator`, `FleetObserver`): per-layer
//! host time of a replay, measured from outside the simulator.
//!
//! Each decorator forwards every call unchanged and adds its elapsed time
//! and a call count to a shared [`Clocks`]. A scheduler calls its
//! estimator from inside `route`/`observe`, so the scheduler's spans
//! subtract the estimator time that accrued meanwhile: every span is
//! *self* time and the spans add up without double counting. Reading the
//! clock twice per call is itself a cost, and an idle replay makes tens of
//! millions of timed calls, so the reported spans have a calibrated
//! [`TimerCost`] taken off. A decorated replay must produce the same
//! outputs as an undecorated one; the traced run checks that on every
//! workload.

use lml_fleet::{
    AttemptSpan, CompletedJob, DecisionRecord, Estimate, Estimator, FleetEvent, FleetObserver,
    FleetView, GaugeSample, JobClass, JobRequest, PlatformEvent, PreemptionObs, QueueDiscipline,
    ReplayStats, Route, Scheduler, TenantId, TraceSource, WindowRollup,
};
use lml_sim::SimTime;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// One layer's span total. Atomics only because the traits require
/// `Send`; the load is one thread, and Relaxed suffices for statistics
/// that publish nothing else.
#[derive(Debug, Default)]
pub struct LayerClock {
    ns: AtomicU64,
    calls: AtomicU64,
    /// Timed calls into a *nested* layer made from inside this layer's
    /// spans (their spans are subtracted, their timer overhead is not).
    nested_calls: AtomicU64,
}

impl LayerClock {
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Span total in seconds, less what the timer itself added to it.
    pub fn secs(&self, timer: &TimerCost) -> f64 {
        let overhead = self.calls() as f64 * timer.inside_ns
            + self.nested_calls.load(Relaxed) as f64 * timer.outside_ns;
        (self.ns.load(Relaxed) as f64 - overhead).max(0.0) / 1e9
    }

    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        self.calls.fetch_add(1, Relaxed);
        let t = Instant::now();
        let out = f();
        self.ns.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        out
    }
}

/// What one timed call costs beyond the work it wraps: the part that
/// lands inside its own span and the part that lands in the caller's
/// time. A replay makes tens of millions of timed calls, so without this
/// correction the timer would be the largest "layer".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimerCost {
    pub inside_ns: f64,
    pub outside_ns: f64,
}

impl TimerCost {
    /// Measure on this machine, now: a million timed calls of nothing.
    pub fn calibrate() -> TimerCost {
        const CALLS: u32 = 1_000_000;
        let clock = LayerClock::default();
        let t = Instant::now();
        for i in 0..CALLS {
            clock.time(|| std::hint::black_box(i));
        }
        let per_call = t.elapsed().as_nanos() as f64 / CALLS as f64;
        let inside_ns = clock.ns.load(Relaxed) as f64 / CALLS as f64;
        TimerCost {
            inside_ns,
            outside_ns: (per_call - inside_ns).max(0.0),
        }
    }

    pub fn per_call_ns(&self) -> f64 {
        self.inside_ns + self.outside_ns
    }
}

/// The clocks and counters shared by the decorators of one replay.
#[derive(Debug, Default)]
pub struct Clocks {
    pub source: LayerClock,
    pub source_jobs: AtomicU64,
    pub route: LayerClock,
    pub feedback: LayerClock,
    pub weight_calls: AtomicU64,
    pub predict: LayerClock,
    pub est_observe: LayerClock,
    pub callback: LayerClock,
    /// Delivered through `FleetObserver::end` / `::replay`, which the
    /// simulator calls on every observer, active or not.
    pub heap_pushes: AtomicU64,
    pub heap_pops: AtomicU64,
    pub peak_queue_depth: AtomicU64,
    pub peak_resident_jobs: AtomicU64,
}

impl Clocks {
    pub fn shared() -> Arc<Clocks> {
        Arc::new(Clocks::default())
    }

    fn layers(&self) -> [&LayerClock; 6] {
        [
            &self.source,
            &self.route,
            &self.feedback,
            &self.predict,
            &self.est_observe,
            &self.callback,
        ]
    }

    /// Sum of every layer span, seconds, timer overhead removed.
    pub fn layers_s(&self, timer: &TimerCost) -> f64 {
        self.layers().iter().map(|l| l.secs(timer)).sum()
    }

    /// Seconds the timed calls themselves added to the replay.
    pub fn timer_s(&self, timer: &TimerCost) -> f64 {
        let calls: u64 = self.layers().iter().map(|l| l.calls()).sum();
        calls as f64 * timer.per_call_ns() / 1e9
    }

    fn estimator_ns_and_calls(&self) -> (u64, u64) {
        (
            self.predict.ns.load(Relaxed) + self.est_observe.ns.load(Relaxed),
            self.predict.calls() + self.est_observe.calls(),
        )
    }
}

pub struct TimedSource<S> {
    inner: S,
    clocks: Arc<Clocks>,
}

impl<S> TimedSource<S> {
    pub fn new(inner: S, clocks: &Arc<Clocks>) -> Self {
        TimedSource {
            inner,
            clocks: Arc::clone(clocks),
        }
    }
}

impl<S: TraceSource> TraceSource for TimedSource<S> {
    fn budgets(&mut self) -> Result<BTreeMap<TenantId, f64>, String> {
        self.clocks.source.time(|| self.inner.budgets())
    }

    fn next_job(&mut self) -> Result<Option<JobRequest>, String> {
        let job = self.clocks.source.time(|| self.inner.next_job());
        if let Ok(Some(_)) = job {
            self.clocks.source_jobs.fetch_add(1, Relaxed);
        }
        job
    }

    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }
}

#[derive(Debug)]
pub struct TimedEstimator<E> {
    inner: E,
    clocks: Arc<Clocks>,
}

impl<E> TimedEstimator<E> {
    pub fn new(inner: E, clocks: &Arc<Clocks>) -> Self {
        TimedEstimator {
            inner,
            clocks: Arc::clone(clocks),
        }
    }
}

impl<E: Estimator + Clone + 'static> Estimator for TimedEstimator<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn predict(&self, job: &JobRequest) -> Estimate {
        self.clocks.predict.time(|| self.inner.predict(job))
    }

    fn observe(&mut self, done: &CompletedJob) {
        self.clocks.est_observe.time(|| self.inner.observe(done))
    }

    fn startup_hint(&self, job: &JobRequest, route: Route) -> Option<SimTime> {
        self.inner.startup_hint(job, route)
    }

    fn pin_epochs(&mut self, class: JobClass, epochs: f64) {
        self.inner.pin_epochs(class, epochs)
    }

    fn clone_box(&self) -> Box<dyn Estimator> {
        Box::new(TimedEstimator::new(self.inner.clone(), &self.clocks))
    }
}

pub struct TimedScheduler<S> {
    inner: S,
    clocks: Arc<Clocks>,
}

impl<S> TimedScheduler<S> {
    pub fn new(inner: S, clocks: &Arc<Clocks>) -> Self {
        TimedScheduler {
            inner,
            clocks: Arc::clone(clocks),
        }
    }

    /// Time `f` into `layer`, less the estimator spans that accrued inside.
    fn self_timed<T>(
        &mut self,
        layer: fn(&Clocks) -> &LayerClock,
        f: impl FnOnce(&mut S) -> T,
    ) -> T {
        let (ns0, calls0) = self.clocks.estimator_ns_and_calls();
        let t = Instant::now();
        let out = f(&mut self.inner);
        let total = t.elapsed().as_nanos() as u64;
        let (ns1, calls1) = self.clocks.estimator_ns_and_calls();
        let layer = layer(&self.clocks);
        layer.calls.fetch_add(1, Relaxed);
        layer.nested_calls.fetch_add(calls1 - calls0, Relaxed);
        layer.ns.fetch_add(total.saturating_sub(ns1 - ns0), Relaxed);
        out
    }
}

impl<S: Scheduler> Scheduler for TimedScheduler<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&mut self, job: &JobRequest, view: &FleetView) -> Route {
        self.self_timed(|c| &c.route, |s| s.route(job, view))
    }

    fn discipline(&self) -> QueueDiscipline {
        self.inner.discipline()
    }

    fn tenant_weight(&self, tenant: TenantId) -> f64 {
        self.clocks.weight_calls.fetch_add(1, Relaxed);
        self.inner.tenant_weight(tenant)
    }

    fn estimate(&self, job: &JobRequest) -> Option<Estimate> {
        self.inner.estimate(job)
    }

    fn observe(&mut self, done: &CompletedJob) {
        self.self_timed(|c| &c.feedback, |s| s.observe(done))
    }

    fn observe_preemption(&mut self, obs: &PreemptionObs) {
        self.self_timed(|c| &c.feedback, |s| s.observe_preemption(obs))
    }

    fn eta_quantile(&self) -> f64 {
        self.inner.eta_quantile()
    }

    fn spot_eta_hint(&self, job: &JobRequest, e: &Estimate) -> Option<f64> {
        self.inner.spot_eta_hint(job, e)
    }
}

pub struct TimedObserver<O> {
    inner: O,
    clocks: Arc<Clocks>,
}

impl<O> TimedObserver<O> {
    pub fn new(inner: O, clocks: &Arc<Clocks>) -> Self {
        TimedObserver {
            inner,
            clocks: Arc::clone(clocks),
        }
    }

    pub fn into_inner(self) -> O {
        self.inner
    }

    fn callback(&mut self, f: impl FnOnce(&mut O)) {
        self.clocks.callback.time(|| f(&mut self.inner))
    }
}

impl<O: FleetObserver> FleetObserver for TimedObserver<O> {
    fn active(&self) -> bool {
        self.inner.active()
    }

    fn gauge_period(&self) -> Option<SimTime> {
        self.inner.gauge_period()
    }

    fn begin(&mut self, policy: &str, seed: u64, n_jobs: usize) {
        self.inner.begin(policy, seed, n_jobs)
    }

    fn lifecycle(&mut self, ev: &FleetEvent) {
        self.callback(|o| o.lifecycle(ev))
    }

    fn decision(&mut self, d: &DecisionRecord) {
        self.callback(|o| o.decision(d))
    }

    fn platform(&mut self, at: SimTime, ev: &PlatformEvent) {
        self.callback(|o| o.platform(at, ev))
    }

    fn attempt(&mut self, s: &AttemptSpan) {
        self.callback(|o| o.attempt(s))
    }

    fn gauges(&mut self, g: &GaugeSample) {
        self.callback(|o| o.gauges(g))
    }

    fn rollup_period(&self) -> Option<SimTime> {
        self.inner.rollup_period()
    }

    fn rollup(&mut self, w: &WindowRollup) {
        self.callback(|o| o.rollup(w))
    }

    fn replay(&mut self, stats: &ReplayStats) {
        let c = &self.clocks;
        c.peak_queue_depth
            .fetch_max(stats.peak_queue_depth, Relaxed);
        c.peak_resident_jobs
            .fetch_max(stats.peak_resident_jobs, Relaxed);
        self.inner.replay(stats)
    }

    fn end(&mut self, pushes: u64, pops: u64) {
        self.clocks.heap_pushes.fetch_add(pushes, Relaxed);
        self.clocks.heap_pops.fetch_add(pops, Relaxed);
        self.inner.end(pushes, pops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lml_fleet::{
        replay, replay_observed, Analytic, ArrivalProcess, FairShare, FleetConfig, InMemorySource,
        JobMix, NullObserver, RecordingObserver, TenantSpec, Trace,
    };

    fn trace() -> Trace {
        let tenants = TenantSpec {
            n_tenants: 4,
            deadline_frac: 0.5,
            deadline_slack: 3.0,
        };
        let burst = ArrivalProcess::Burst {
            base_rate: 0.1,
            burst_rate: 5.0,
            period: 600.0,
            duty: 0.5,
        };
        Trace::generate_multi(burst, &JobMix::default_mix(), &tenants, 150, 9)
    }

    /// Decorator transparency: all four layers wrapped, same bytes out.
    #[test]
    fn a_fully_decorated_replay_is_byte_identical() {
        let trace = trace();
        let cfg = FleetConfig::default();
        let plain = replay(
            InMemorySource::new(&trace),
            &cfg,
            &mut FairShare::for_config(&cfg),
            9,
        )
        .unwrap();

        let clocks = Clocks::shared();
        let est = TimedEstimator::new(Analytic::for_config(&cfg), &clocks);
        let sched = FairShare::for_config(&cfg).with_estimator(Box::new(est));
        let decorated = replay_observed(
            TimedSource::new(InMemorySource::new(&trace), &clocks),
            &cfg,
            &mut TimedScheduler::new(sched, &clocks),
            9,
            &mut TimedObserver::new(NullObserver, &clocks),
        )
        .unwrap();

        assert_eq!(plain.to_json(), decorated.to_json());
        assert_eq!(clocks.source_jobs.load(Relaxed), 150);
        assert_eq!(clocks.route.calls(), 150);
        assert!(clocks.predict.calls() >= 150);
        assert!(clocks.route.nested_calls.load(Relaxed) >= 150);
        assert!(clocks.weight_calls.load(Relaxed) > 0, "DRR reads weights");
        assert!(clocks.heap_pops.load(Relaxed) > 0);
        assert!(clocks.peak_resident_jobs.load(Relaxed) > 0);
        // A null observer receives no per-event callbacks.
        assert_eq!(clocks.callback.calls(), 0);
        let free = TimerCost {
            inside_ns: 0.0,
            outside_ns: 0.0,
        };
        assert!(clocks.layers_s(&free) > 0.0);
        assert!(clocks.layers_s(&TimerCost::calibrate()) <= clocks.layers_s(&free));
    }

    #[test]
    fn the_timer_cost_is_small_and_split_in_two() {
        let cost = TimerCost::calibrate();
        assert!(cost.inside_ns > 0.0 && cost.per_call_ns() >= cost.inside_ns);
        assert!(cost.per_call_ns() < 10_000.0, "{cost:?}");
        // The correction never drives a span below zero.
        let clock = LayerClock::default();
        clock.time(|| ());
        let huge = TimerCost {
            inside_ns: 1e12,
            outside_ns: 0.0,
        };
        assert_eq!(clock.secs(&huge), 0.0);
    }

    #[test]
    fn an_armed_observer_sees_the_same_stream_through_the_decorator() {
        let trace = trace();
        let cfg = FleetConfig::default();
        let run = |decorate: bool| {
            let mut sched = FairShare::for_config(&cfg);
            let rec = RecordingObserver::new().with_gauge_period(SimTime::hours(1.0));
            let src = InMemorySource::new(&trace);
            if decorate {
                let clocks = Clocks::shared();
                let mut obs = TimedObserver::new(rec, &clocks);
                let m = replay_observed(src, &cfg, &mut sched, 9, &mut obs).unwrap();
                let events = clocks.callback.calls();
                (m.to_json(), obs.into_inner().to_json(), events)
            } else {
                let mut obs = rec;
                let m = replay_observed(src, &cfg, &mut sched, 9, &mut obs).unwrap();
                (m.to_json(), obs.to_json(), 0)
            }
        };
        let (m_plain, t_plain, _) = run(false);
        let (m_dec, t_dec, events) = run(true);
        assert_eq!(m_plain, m_dec);
        assert_eq!(t_plain, t_dec);
        assert!(events > 150, "every stream is forwarded and counted");
    }
}
