//! The resident-job slab: admitted, non-terminal jobs in recycled slots
//! behind generational handles.
//!
//! Events and queues carry [`Handle`]s, never trace indices or owned job
//! state, so the engine needs only the in-flight working set in memory.
//! This module knows nothing about platforms, schedulers, money or the
//! event loop — only which jobs are resident and what has been recorded
//! about them. [`Slab::get`] / [`Slab::get_mut`] / [`Slab::insert`] are
//! the only code that indexes the slot vector.

use crate::estimate::Estimate;
use crate::job::JobRequest;
use crate::lifecycle::{AttemptPlan, JobLifecycle};
use crate::scheduler::Route;
use lml_sim::{Cost, SimTime};

/// A generational reference to a resident job. The generation counter
/// turns any use-after-retire bug into a loud debug assertion instead of
/// silent state corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) struct Handle {
    slot: u32,
    gen: u32,
}

/// Mutable per-job state built up during the run. The queue/startup/run
/// components accumulate across spot preemption restarts, so
/// `queue + startup + run` always equals finish − submit.
#[derive(Debug, Clone, Copy)]
pub(super) struct JobState {
    pub(super) route: Route,
    /// The explicit lifecycle machine; every mutation goes through
    /// [`JobLifecycle::transition`], so illegal paths panic.
    pub(super) lifecycle: JobLifecycle,
    pub(super) queue: SimTime,
    pub(super) startup: SimTime,
    pub(super) run: SimTime,
    pub(super) warm_hits: usize,
    pub(super) cost: Cost,
    pub(super) preemptions: u32,
    /// Attempts that restarted from a durable checkpoint (not from zero).
    pub(super) resumes: u32,
    /// Whole epochs this job needs (its class's `R`, rounded up).
    pub(super) epochs_total: u32,
    /// Durable progress: epochs whose checkpoint (or completion) survives
    /// a preemption.
    pub(super) epochs_done: u32,
    /// Training seconds redone because a preemption struck past the last
    /// durable checkpoint.
    pub(super) lost_work: SimTime,
    /// Checkpoint uploads initiated (durable, in-flight at preemption, and
    /// on successful attempts alike — all billed).
    pub(super) ckpt_writes: u32,
    /// Checkpoint dollars: uploads plus restore reads.
    pub(super) ckpt_cost: Cost,
    /// The scheduler's prediction for the routed substrate, snapshotted at
    /// admission (None for constant routers and rejected jobs).
    pub(super) predicted: Option<Estimate>,
    /// The job sat out at least one budget accounting window.
    pub(super) deferred: bool,
    /// When the job last became ready to start (submission, or the moment
    /// a preemption threw it back).
    pub(super) ready_since: SimTime,
    /// Spot attempts launched so far (indexes the preemption clock).
    pub(super) attempt: u32,
    /// Launch bookkeeping of the in-flight spot attempt.
    pub(super) attempt_start: SimTime,
    pub(super) attempt_boot: SimTime,
    pub(super) attempt_restore: SimTime,
    pub(super) attempt_plan: Option<AttemptPlan>,
}

/// One resident job: the request, its mutable run state, and the dense
/// arrival sequence number that stands in for the trace index (queue
/// tie-breaks, record order).
#[derive(Debug, Clone, Copy)]
pub(super) struct Slot {
    pub(super) job: JobRequest,
    pub(super) state: JobState,
    pub(super) seq: u64,
    gen: u32,
}

/// Slots are recycled through `free` as jobs retire, so capacity tracks
/// the peak *working set*, not the trace length.
pub(super) struct Slab {
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Jobs inserted so far (also the next seq).
    arrivals: u64,
    /// High-water mark of occupancy.
    peak_resident: u64,
}

impl Slab {
    /// Pre-size from the source's advisory length hint. The slab only
    /// holds the in-flight working set, so the reservation stays bounded
    /// no matter how long the trace claims to be (a wrong hint costs a
    /// realloc or some slack, never correctness).
    pub(super) fn new(len_hint: Option<usize>) -> Self {
        let n = len_hint.map_or(0, |n| n.min(256));
        Slab {
            slots: Vec::with_capacity(n),
            free: Vec::with_capacity(n),
            arrivals: 0,
            peak_resident: 0,
        }
    }

    #[inline]
    pub(super) fn get(&self, h: Handle) -> &Slot {
        let s = &self.slots[h.slot as usize];
        debug_assert_eq!(s.gen, h.gen, "stale job handle");
        s
    }

    #[inline]
    pub(super) fn get_mut(&mut self, h: Handle) -> &mut Slot {
        let s = &mut self.slots[h.slot as usize];
        debug_assert_eq!(s.gen, h.gen, "stale job handle");
        s
    }

    #[inline]
    pub(super) fn state_mut(&mut self, h: Handle) -> &mut JobState {
        &mut self.get_mut(h).state
    }

    /// Admit a pulled arrival: assign its dense seq, build fresh run
    /// state, and record the occupancy high-water mark.
    pub(super) fn insert(&mut self, job: JobRequest, epochs_total: u32) -> Handle {
        let seq = self.arrivals;
        self.arrivals += 1;
        let state = JobState {
            route: Route::Faas,
            lifecycle: JobLifecycle::Queued,
            queue: SimTime::ZERO,
            startup: SimTime::ZERO,
            run: SimTime::ZERO,
            warm_hits: 0,
            cost: Cost::ZERO,
            preemptions: 0,
            resumes: 0,
            epochs_total,
            epochs_done: 0,
            lost_work: SimTime::ZERO,
            ckpt_writes: 0,
            ckpt_cost: Cost::ZERO,
            predicted: None,
            deferred: false,
            ready_since: job.submit,
            attempt: 0,
            attempt_start: SimTime::ZERO,
            attempt_boot: SimTime::ZERO,
            attempt_restore: SimTime::ZERO,
            attempt_plan: None,
        };
        let h = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                s.job = job;
                s.state = state;
                s.seq = seq;
                Handle { slot, gen: s.gen }
            }
            None => {
                let slot = self.slots.len() as u32;
                self.slots.push(Slot {
                    job,
                    state,
                    seq,
                    gen: 0,
                });
                Handle { slot, gen: 0 }
            }
        };
        self.peak_resident = self.peak_resident.max(self.resident() as u64);
        h
    }

    /// Free a retired job's slot; every outstanding handle to it goes
    /// stale.
    pub(super) fn recycle(&mut self, h: Handle) {
        let s = self.get_mut(h);
        s.gen = s.gen.wrapping_add(1);
        self.free.push(h.slot);
    }

    /// Jobs inserted and not yet recycled (deferred jobs included).
    pub(super) fn resident(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    pub(super) fn arrivals(&self) -> u64 {
        self.arrivals
    }

    pub(super) fn peak_resident(&self) -> u64 {
        self.peak_resident
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobClass;

    fn job(id: u64) -> JobRequest {
        JobRequest::new(id, JobClass::LrHiggs, SimTime::secs(id as f64), 10)
    }

    #[test]
    fn slots_recycle_and_seqs_stay_dense() {
        let mut slab = Slab::new(Some(1_000_000));
        let a = slab.insert(job(0), 3);
        let b = slab.insert(job(1), 3);
        assert_eq!((slab.get(a).seq, slab.get(b).seq), (0, 1));
        assert_eq!(slab.resident(), 2);
        slab.recycle(a);
        assert_eq!(slab.resident(), 1);
        // The freed slot is reused under a new generation; seqs keep
        // counting arrivals, not slots.
        let c = slab.insert(job(2), 3);
        assert_ne!(a, c, "a recycled slot hands out a fresh handle");
        assert_eq!(slab.get(c).seq, 2);
        assert_eq!(slab.get(c).job.id, 2);
        assert_eq!(slab.get(c).state.ready_since, SimTime::secs(2.0));
        assert_eq!((slab.arrivals(), slab.peak_resident()), (3, 2));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale job handle")]
    fn a_stale_handle_is_caught() {
        let mut slab = Slab::new(None);
        let a = slab.insert(job(0), 1);
        slab.recycle(a);
        slab.insert(job(1), 1);
        slab.get(a);
    }
}
