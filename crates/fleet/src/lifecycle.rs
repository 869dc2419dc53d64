//! The explicit job-lifecycle state machine and checkpoint policies.
//!
//! PR 2's simulator tracked job progress implicitly (a `done` flag plus
//! ad-hoc attempt bookkeeping), so a spot preemption threw away every epoch
//! of progress. This module makes the lifecycle explicit and shared by all
//! schedulers and both compute tiers:
//!
//! ```text
//! Queued → Booting → Running{epochs_done} → Done
//!  │  ↑↓               │        ↑
//!  │ Deferred          ▼        │ (resume)
//!  │ (budget      Checkpointing │
//!  │  window)          │        │
//!  │                   ▼        │
//!  │               Preempted → Requeued → Booting → …
//!  └→ Rejected                              (retry or pool fallback)
//! ```
//!
//! Transitions are validated (`JobLifecycle::transition` panics on an
//! illegal edge), so every simulator path — FaaS, the reserved pool, and
//! the spot tier — moves jobs through the same machine.
//!
//! Progress is epoch-granular. A [`CheckpointPolicy`] decides after which
//! epochs a job on the preemptible tier uploads a recovery checkpoint.
//! Uploads are asynchronous (a background stream to the store): training
//! is not paused, but a checkpoint only becomes *durable* once its write —
//! priced through `lml-storage`'s checkpoint store — completes. A preemption
//! rolls the job back to its last durable checkpoint instead of to zero;
//! everything after it is counted as lost work.
//!
//! The attempt arithmetic lives in `AttemptPlan` / `preempt_outcome` as
//! pure functions so the recovery invariants (checkpointing more often
//! never increases lost work; any checkpointing beats `Never` once a
//! preemption lands after a durable write) are unit-testable without
//! running the fleet loop.

use lml_sim::SimTime;

/// Lifecycle state of one job. Epoch counters always refer to *durable*
/// progress (epochs whose recovery checkpoint — or completion — survives a
/// preemption).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobLifecycle {
    /// Admitted to a queue (or just arrived), waiting to start.
    Queued,
    /// Held back because the tenant's budget for the current accounting
    /// window is exhausted; released back to `Queued` at the next window
    /// (only entered when the fleet runs budget deferral instead of
    /// rejection).
    Deferred,
    /// Containers/instances starting (cold start, cluster boot, restore).
    Booting,
    /// Training; `epochs_done` epochs were durable when the run began.
    Running { epochs_done: u32 },
    /// A checkpoint upload was in flight when the state was observed (only
    /// entered on the way into a preemption that interrupts a write).
    Checkpointing { epochs_done: u32 },
    /// The spot market reclaimed the instances; `epochs_done` is the
    /// durable progress that survives.
    Preempted { epochs_done: u32 },
    /// Thrown back for another attempt (fresh spot cluster or pool
    /// fallback), resuming from `epochs_done`.
    Requeued { epochs_done: u32 },
    /// Terminal: finished all epochs.
    Done,
    /// Terminal: refused admission (tenant budget exhausted).
    Rejected,
}

impl JobLifecycle {
    pub(crate) fn name(self) -> &'static str {
        match self {
            JobLifecycle::Queued => "queued",
            JobLifecycle::Deferred => "deferred",
            JobLifecycle::Booting => "booting",
            JobLifecycle::Running { .. } => "running",
            JobLifecycle::Checkpointing { .. } => "checkpointing",
            JobLifecycle::Preempted { .. } => "preempted",
            JobLifecycle::Requeued { .. } => "requeued",
            JobLifecycle::Done => "done",
            JobLifecycle::Rejected => "rejected",
        }
    }

    /// Done and Rejected absorb; everything else keeps moving.
    pub(crate) fn is_terminal(self) -> bool {
        matches!(self, JobLifecycle::Done | JobLifecycle::Rejected)
    }

    /// Is `next` a legal successor of `self`? Durable progress never moves
    /// backwards along an edge.
    fn can_transition(self, next: JobLifecycle) -> bool {
        use JobLifecycle::*;
        let forward = |from: u32, to: u32| to >= from;
        match (self, next) {
            (Queued, Booting) | (Queued, Rejected) | (Queued, Deferred) => true,
            (Deferred, Queued) => true,
            (Booting, Running { .. }) => true,
            (Running { epochs_done: a }, Running { epochs_done: b }) => forward(a, b),
            (Running { epochs_done: a }, Checkpointing { epochs_done: b }) => forward(a, b),
            (Running { epochs_done: a }, Preempted { epochs_done: b }) => forward(a, b),
            (Running { .. }, Done) => true,
            (Checkpointing { epochs_done: a }, Running { epochs_done: b }) => forward(a, b),
            (Checkpointing { epochs_done: a }, Preempted { epochs_done: b }) => forward(a, b),
            (Preempted { epochs_done: a }, Requeued { epochs_done: b }) => a == b,
            (Requeued { .. }, Booting) => true,
            _ => false,
        }
    }

    /// Advance the machine, panicking on an illegal edge — lifecycle bugs
    /// in the simulator must fail loudly, not corrupt metrics.
    ///
    /// The fleet loop routes every call through `Fleet::step`, which
    /// narrates the validated edge to the run's
    /// [`FleetObserver`](crate::observe::FleetObserver) as a typed
    /// [`FleetEvent`](crate::observe::FleetEvent) — so a trace carries
    /// exactly the transitions this machine accepted, nothing else.
    pub(crate) fn transition(&mut self, next: JobLifecycle) {
        assert!(
            self.can_transition(next),
            "illegal lifecycle transition {} -> {}",
            self.name(),
            next.name()
        );
        *self = next;
    }
}

/// When a spot-routed job uploads recovery checkpoints.
///
/// Set on [`FleetConfig::checkpoint`](crate::FleetConfig): uploads are
/// asynchronous (durable one S3-profile write after the epoch
/// completes), sized from the model dims, and priced through the
/// storage layer. A preempted job resumes from its last durable
/// checkpoint instead of restarting.
///
/// ```
/// use lml_fleet::CheckpointPolicy;
///
/// assert_eq!(CheckpointPolicy::every(4).name(), "every4");
/// // Young's √(2·c·M) period, converted to whole epochs: 60 s epochs,
/// // 5 s writes, 1800 s mean time to preemption → every 2 epochs.
/// assert_eq!(
///     CheckpointPolicy::Adaptive.interval_epochs(60.0, 5.0, 1_800.0),
///     Some(2)
/// );
/// assert_eq!(CheckpointPolicy::Never.interval_epochs(60.0, 5.0, 1_800.0), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CheckpointPolicy {
    /// No checkpoints: a preemption loses every epoch (PR 2 behaviour).
    Never,
    /// Upload after every `k`-th epoch.
    EveryK(u32),
    /// Pick the interval per job from the preemption rate via Young's
    /// approximation: the optimal checkpoint period is `√(2·c·M)` for
    /// write time `c` and mean time to failure `M`, converted to whole
    /// epochs.
    Adaptive,
}

impl CheckpointPolicy {
    /// Checkpoint after every `k` epochs (`k ≥ 1`).
    pub fn every(k: u32) -> CheckpointPolicy {
        assert!(k >= 1, "checkpoint interval must be >= 1 epoch");
        CheckpointPolicy::EveryK(k)
    }

    /// Stable name for reports and output file names.
    pub fn name(self) -> String {
        match self {
            CheckpointPolicy::Never => "never".into(),
            CheckpointPolicy::EveryK(k) => format!("every{k}"),
            CheckpointPolicy::Adaptive => "adaptive".into(),
        }
    }

    /// Epochs between checkpoints for a job with `epoch_secs`-long epochs,
    /// `write_secs` per upload, and mean time to preemption
    /// `mttp_secs` (already divided by the job's width). `None` disables
    /// checkpointing.
    pub fn interval_epochs(self, epoch_secs: f64, write_secs: f64, mttp_secs: f64) -> Option<u32> {
        match self {
            CheckpointPolicy::Never => None,
            CheckpointPolicy::EveryK(k) => {
                assert!(k >= 1, "checkpoint interval must be >= 1 epoch");
                Some(k)
            }
            CheckpointPolicy::Adaptive => {
                assert!(epoch_secs > 0.0 && write_secs >= 0.0 && mttp_secs > 0.0);
                let period = (2.0 * write_secs * mttp_secs).sqrt();
                Some(((period / epoch_secs).round() as u32).max(1))
            }
        }
    }
}

/// One spot attempt, resolved to concrete epoch arithmetic.
///
/// The attempt's wall clock is `boot + restore + run`, where
/// `run = (total − start) × epoch_secs` — checkpoint uploads are
/// asynchronous and do not stretch the attempt. A checkpoint is initiated
/// the instant epoch `j` completes (for `j` a multiple of the interval,
/// `start < j < total`) and becomes durable `write_secs` later.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct AttemptPlan {
    /// Durable epochs when the attempt begins (resume point).
    pub start_epoch: u32,
    /// Total epochs the job needs.
    pub total_epochs: u32,
    /// Seconds per epoch on this substrate.
    pub epoch_secs: f64,
    /// Checkpoint interval in epochs; `None` = no checkpointing.
    pub interval: Option<u32>,
    /// Seconds one checkpoint upload takes to become durable.
    pub write_secs: f64,
}

impl AttemptPlan {
    /// Seconds of training this attempt schedules.
    pub(crate) fn run_secs(&self) -> f64 {
        debug_assert!(self.start_epoch <= self.total_epochs);
        (self.total_epochs - self.start_epoch) as f64 * self.epoch_secs
    }

    /// Global epoch indices after which this attempt initiates a
    /// checkpoint upload. The final epoch is excluded — completing the job
    /// *is* the durable outcome.
    fn checkpoint_epochs(&self) -> impl Iterator<Item = u32> + '_ {
        let k = self.interval.unwrap_or(u32::MAX).max(1);
        ((self.start_epoch + 1)..self.total_epochs).filter(move |j| j % k == 0)
    }

    /// Checkpoint uploads a *successful* attempt initiates (all billed).
    pub(crate) fn writes_on_success(&self) -> u32 {
        self.checkpoint_epochs().count() as u32
    }
}

/// Should the next attempt restore the last durable checkpoint, or redo
/// the banked epochs from scratch?
///
/// The pre-PR-5 rule compared *time only* (`restore < redo`), which let a
/// budget-capped tenant be billed a restore read that costs more dollars
/// than simply re-running cheap epochs. Both dimensions must win: the
/// restore has to be faster **and** cheaper, where its dollars are the
/// storage read *plus* the instance-seconds spent waiting on it (priced at
/// the route's own rate — spot restores wait on discounted instances,
/// reserved-pool restores on full-price ones) against the instance-seconds
/// of redoing the epochs. Ties go to redoing: a restore that buys nothing
/// shouldn't bill a read.
pub(crate) fn restore_beats_redo(
    restore: SimTime,
    read_dollars: lml_sim::Cost,
    redo: SimTime,
    rate_per_s: f64,
) -> bool {
    assert!(rate_per_s >= 0.0, "instance rate cannot be negative");
    let restore_usd = restore.as_secs() * rate_per_s + read_dollars.as_usd();
    let redo_usd = redo.as_secs() * rate_per_s;
    restore < redo && restore_usd < redo_usd
}

/// What a preemption `elapsed_run` seconds into the attempt's run phase
/// left behind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PreemptOutcome {
    /// Durable progress surviving the preemption (≥ the attempt's start).
    pub durable_epochs: u32,
    /// Epochs fully trained when the market struck (durable or not).
    pub completed_epochs: u32,
    /// Checkpoint uploads initiated during the attempt (all billed).
    pub writes_started: u32,
    /// Of those, uploads still in flight at the preemption — billed but
    /// useless ("partial checkpoint writes").
    pub writes_interrupted: u32,
    /// Training seconds that must be redone: everything after the last
    /// durable checkpoint, including the partial epoch.
    pub lost_work: SimTime,
}

/// Resolve a preemption landing `elapsed_run` seconds into the run phase
/// of `plan` (clamped to the phase; boot/restore-phase preemptions pass
/// `0.0` and lose nothing).
pub(crate) fn preempt_outcome(plan: &AttemptPlan, elapsed_run: f64) -> PreemptOutcome {
    let t = elapsed_run.clamp(0.0, plan.run_secs());
    let e = plan.epoch_secs;
    let completed_rel = if e > 0.0 { (t / e).floor() as u32 } else { 0 };
    let completed = plan.start_epoch + completed_rel.min(plan.total_epochs - plan.start_epoch);
    let mut durable = plan.start_epoch;
    let mut started = 0u32;
    let mut interrupted = 0u32;
    for j in plan.checkpoint_epochs() {
        if j > completed {
            break;
        }
        started += 1;
        // Initiated when epoch j completed; durable write_secs later.
        let durable_at = (j - plan.start_epoch) as f64 * e + plan.write_secs;
        if durable_at <= t {
            durable = j;
        } else {
            interrupted += 1;
        }
    }
    PreemptOutcome {
        durable_epochs: durable,
        completed_epochs: completed,
        writes_started: started,
        writes_interrupted: interrupted,
        lost_work: SimTime::secs(t - (durable - plan.start_epoch) as f64 * e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use JobLifecycle::*;

    #[test]
    fn happy_path_transitions_are_legal() {
        let mut l = Queued;
        for next in [
            Booting,
            Running { epochs_done: 0 },
            Checkpointing { epochs_done: 0 },
            Preempted { epochs_done: 2 },
            Requeued { epochs_done: 2 },
            Booting,
            Running { epochs_done: 2 },
            Done,
        ] {
            l.transition(next);
        }
        assert!(l.is_terminal());
        let mut r = Queued;
        r.transition(Rejected);
        assert!(r.is_terminal());
        assert_eq!(r.name(), "rejected");
    }

    #[test]
    fn deferral_loops_back_to_queued() {
        let mut l = Queued;
        l.transition(Deferred);
        assert!(!l.is_terminal());
        assert_eq!(l.name(), "deferred");
        // Released at the next accounting window, then runs normally.
        for next in [
            Queued,
            Deferred,
            Queued,
            Booting,
            Running { epochs_done: 0 },
            Done,
        ] {
            l.transition(next);
        }
        assert!(l.is_terminal());
        // A deferred job is on hold, not running or rejected.
        assert!(!Deferred.can_transition(Booting));
        assert!(!Deferred.can_transition(Rejected));
        assert!(!Deferred.can_transition(Done));
    }

    #[test]
    fn illegal_transitions_are_caught() {
        assert!(!Queued.can_transition(Done), "queued jobs cannot finish");
        assert!(!Done.can_transition(Booting), "terminal states absorb");
        assert!(!Rejected.can_transition(Queued));
        assert!(!Booting.can_transition(Queued));
        assert!(
            !Running { epochs_done: 5 }.can_transition(Running { epochs_done: 3 }),
            "durable progress never regresses"
        );
        assert!(
            !Preempted { epochs_done: 2 }.can_transition(Requeued { epochs_done: 3 }),
            "requeue carries exactly the surviving progress"
        );
        assert!(!Running { epochs_done: 0 }.can_transition(Rejected));
    }

    #[test]
    #[should_panic(expected = "illegal lifecycle transition")]
    fn transition_panics_on_illegal_edge() {
        let mut l = Done;
        l.transition(Booting);
    }

    #[test]
    fn policy_intervals() {
        assert_eq!(
            CheckpointPolicy::Never.interval_epochs(10.0, 1.0, 100.0),
            None
        );
        assert_eq!(
            CheckpointPolicy::every(3).interval_epochs(10.0, 1.0, 100.0),
            Some(3)
        );
        // Young: √(2·1·200) = 20 s period → every 2 epochs of 10 s.
        assert_eq!(
            CheckpointPolicy::Adaptive.interval_epochs(10.0, 1.0, 200.0),
            Some(2)
        );
        // Hostile market → checkpoint every epoch (floor at 1).
        assert_eq!(
            CheckpointPolicy::Adaptive.interval_epochs(10.0, 0.1, 1.0),
            Some(1)
        );
        // Benign market → long intervals.
        let k = CheckpointPolicy::Adaptive
            .interval_epochs(10.0, 1.0, 1e6)
            .unwrap();
        assert!(k > 100, "benign market should checkpoint rarely, got {k}");
        assert_eq!(CheckpointPolicy::every(4).name(), "every4");
        assert_eq!(CheckpointPolicy::Adaptive.name(), "adaptive");
    }

    #[test]
    #[should_panic(expected = "interval must be >= 1")]
    fn zero_interval_rejected() {
        CheckpointPolicy::every(0);
    }

    #[test]
    fn restore_must_win_on_both_time_and_dollars() {
        use lml_sim::Cost;
        let rate = 10.0 / 3_600.0 * 0.0464; // 10 t2.medium workers
                                            // Fast and cheap: a 1 s restore vs 60 s of redone epochs.
        assert!(restore_beats_redo(
            SimTime::secs(1.0),
            Cost::usd(4e-7),
            SimTime::secs(60.0),
            rate
        ));
        // THE regression: time-cheap but dollar-expensive — a restore
        // whose read bill exceeds the instance-seconds of redoing cheap
        // epochs must be declined, however fast it is.
        assert!(!restore_beats_redo(
            SimTime::secs(1.0),
            Cost::usd(0.05),
            SimTime::secs(60.0),
            rate
        ));
        // Time-expensive restores were always declined.
        assert!(!restore_beats_redo(
            SimTime::secs(120.0),
            Cost::ZERO,
            SimTime::secs(60.0),
            rate
        ));
        // Ties go to redoing (nothing to buy, nothing billed).
        assert!(!restore_beats_redo(
            SimTime::secs(60.0),
            Cost::ZERO,
            SimTime::secs(60.0),
            rate
        ));
        // A free substrate (rate 0) still declines on the read bill alone.
        assert!(!restore_beats_redo(
            SimTime::secs(1.0),
            Cost::usd(1e-9),
            SimTime::secs(60.0),
            0.0
        ));
    }

    fn plan(start: u32, total: u32, k: Option<u32>) -> AttemptPlan {
        AttemptPlan {
            start_epoch: start,
            total_epochs: total,
            epoch_secs: 10.0,
            interval: k,
            write_secs: 1.0,
        }
    }

    #[test]
    fn attempt_plan_schedules_remaining_epochs_only() {
        assert_eq!(plan(0, 6, None).run_secs(), 60.0);
        assert_eq!(plan(4, 6, None).run_secs(), 20.0);
        // Checkpoints at global epochs 2 and 4 (never at the final epoch).
        assert_eq!(plan(0, 6, Some(2)).writes_on_success(), 2);
        assert_eq!(plan(2, 6, Some(2)).writes_on_success(), 1);
        assert_eq!(plan(0, 6, Some(1)).writes_on_success(), 5);
        assert_eq!(plan(0, 6, None).writes_on_success(), 0);
    }

    #[test]
    fn preemption_without_checkpoints_loses_everything() {
        let o = preempt_outcome(&plan(0, 6, None), 35.0);
        assert_eq!(o.durable_epochs, 0);
        assert_eq!(o.completed_epochs, 3);
        assert_eq!(o.writes_started, 0);
        assert_eq!(o.lost_work, SimTime::secs(35.0));
    }

    #[test]
    fn preemption_rolls_back_to_last_durable_checkpoint() {
        // k=2, epochs 10 s, write 1 s: ckpt of epoch 2 initiated at t=20,
        // durable at t=21; ckpt of epoch 4 initiated at t=40, durable 41.
        let p = plan(0, 6, Some(2));
        let o = preempt_outcome(&p, 35.0);
        assert_eq!(o.durable_epochs, 2);
        assert_eq!(o.completed_epochs, 3);
        assert_eq!(o.writes_started, 1);
        assert_eq!(o.writes_interrupted, 0);
        assert_eq!(o.lost_work, SimTime::secs(15.0), "epoch 3 + half of 4");
        // Strike at t=40.5: epoch 4's write is in flight — billed, useless.
        let o = preempt_outcome(&p, 40.5);
        assert_eq!(o.durable_epochs, 2);
        assert_eq!(o.writes_started, 2);
        assert_eq!(o.writes_interrupted, 1, "partial write billed not usable");
        assert!((o.lost_work.as_secs() - 20.5).abs() < 1e-9);
        // A moment later the write lands: only the partial epoch is lost.
        let o = preempt_outcome(&p, 41.5);
        assert_eq!(o.durable_epochs, 4);
        assert!((o.lost_work.as_secs() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn resumed_attempt_counts_global_epochs() {
        // Resume from 2 with k=2: next checkpoint at global epoch 4, which
        // is 2 local epochs (20 s) into the run, durable at 21 s.
        let p = plan(2, 6, Some(2));
        let o = preempt_outcome(&p, 25.0);
        assert_eq!(o.durable_epochs, 4);
        assert_eq!(o.completed_epochs, 4);
        assert!((o.lost_work.as_secs() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn boot_phase_preemption_loses_nothing() {
        let o = preempt_outcome(&plan(0, 6, Some(1)), 0.0);
        assert_eq!(o.durable_epochs, 0);
        assert_eq!(o.lost_work, SimTime::ZERO);
        assert_eq!(o.writes_started, 0);
    }

    /// The structural recovery invariant: at any strike time, a finer
    /// checkpoint interval (k dividing k') never has less durable progress
    /// and never loses more work.
    #[test]
    fn finer_checkpoints_never_lose_more() {
        for strike in [5.0, 15.0, 20.5, 21.5, 33.0, 41.0, 55.0] {
            let chain = [Some(1), Some(2), Some(4), None];
            let outcomes: Vec<_> = chain
                .iter()
                .map(|&k| preempt_outcome(&plan(0, 8, k), strike))
                .collect();
            for w in outcomes.windows(2) {
                assert!(
                    w[0].durable_epochs >= w[1].durable_epochs,
                    "strike {strike}: durable must not shrink with finer k"
                );
                assert!(
                    w[0].lost_work <= w[1].lost_work,
                    "strike {strike}: finer checkpoints must not lose more"
                );
            }
        }
    }
}
