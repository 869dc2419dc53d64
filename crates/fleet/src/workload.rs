//! Workload generation: arrival processes, job mixes, and replayable traces.
//!
//! A [`Trace`] is a materialized list of [`JobRequest`]s sorted by
//! submission time. Traces are either generated from an [`ArrivalProcess`]
//! and a [`JobMix`] with a seeded RNG (bit-identical across runs) or
//! replayed from the plain-text format produced by [`Trace::to_text`], so a
//! measured production trace can be swapped in without touching the
//! simulator. Both constructors drain the pull sources of
//! [`crate::stream`]: the RNG draw order and the text grammar are written
//! there, once.

use crate::job::{JobClass, JobRequest, TenantId};
use crate::json::{push_f64, push_u64};
use crate::stream::{collect, GeneratorSource, TextSource};
use lml_sim::{Pcg64, SimTime};
use std::collections::BTreeMap;

/// How job submissions arrive over time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at `rate` jobs/second — the classic open-system
    /// model of a large independent tenant population.
    Poisson { rate: f64 },
    /// A modulated Poisson process: within every `period`, the first
    /// `duty` fraction arrives at `burst_rate`, the rest at `base_rate`.
    /// Models diurnal load and synchronized retraining waves.
    Burst {
        base_rate: f64,
        burst_rate: f64,
        period: f64,
        duty: f64,
    },
}

impl ArrivalProcess {
    /// Instantaneous arrival rate at absolute time `t`.
    pub fn rate_at(&self, t: f64) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate } => rate,
            ArrivalProcess::Burst {
                base_rate,
                burst_rate,
                period,
                duty,
            } => {
                let phase = (t / period).fract();
                if phase < duty {
                    burst_rate
                } else {
                    base_rate
                }
            }
        }
    }

    /// Sample the gap to the next arrival after time `t` (exponential at
    /// the local rate — exact for Poisson, a standard step approximation
    /// for the modulated process). Crate-visible for
    /// [`GeneratorSource`], the one place arrivals are drawn.
    pub(crate) fn next_gap(&self, t: f64, rng: &mut Pcg64) -> f64 {
        let rate = self.rate_at(t);
        assert!(rate > 0.0, "arrival rate must be positive");
        -(1.0 - rng.uniform()).ln() / rate
    }
}

/// A weighted mixture over job classes.
#[derive(Debug, Clone, PartialEq)]
pub struct JobMix {
    entries: Vec<(JobClass, f64)>,
}

impl JobMix {
    /// Build a mix from (class, weight) pairs; weights are normalized.
    pub fn new(entries: Vec<(JobClass, f64)>) -> Self {
        assert!(!entries.is_empty(), "empty job mix");
        let total: f64 = entries.iter().map(|(_, w)| w).sum();
        assert!(total > 0.0, "job mix weights must sum to > 0");
        JobMix {
            entries: entries.into_iter().map(|(c, w)| (c, w / total)).collect(),
        }
    }

    /// A single-class mix.
    pub fn only(class: JobClass) -> Self {
        JobMix::new(vec![(class, 1.0)])
    }

    /// The default multi-tenant mix: mostly fast convex jobs, a tail of
    /// heavy deep-learning jobs — the shape under which the FaaS/IaaS
    /// trade-off of the paper matters most.
    pub fn default_mix() -> Self {
        JobMix::new(vec![
            (JobClass::LrHiggs, 0.32),
            (JobClass::SvmRcv1, 0.30),
            (JobClass::KmHiggs, 0.20),
            (JobClass::LrYfcc, 0.08),
            (JobClass::MnCifar, 0.08),
            (JobClass::RnCifar, 0.02),
        ])
    }

    /// Convex-only mix (every job is FaaS-friendly).
    pub fn convex_mix() -> Self {
        JobMix::new(vec![
            (JobClass::LrHiggs, 0.4),
            (JobClass::SvmRcv1, 0.4),
            (JobClass::KmHiggs, 0.2),
        ])
    }

    pub fn classes(&self) -> impl Iterator<Item = JobClass> + '_ {
        self.entries.iter().map(|&(c, _)| c)
    }

    pub(crate) fn sample(&self, rng: &mut Pcg64) -> JobClass {
        let u = rng.uniform();
        let mut acc = 0.0;
        for &(c, w) in &self.entries {
            acc += w;
            if u < acc {
                return c;
            }
        }
        self.entries.last().expect("non-empty mix").0
    }
}

/// Tenant population and deadline shape of a generated trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSpec {
    /// Tenants drawing jobs (uniformly). Tenant ids are `0..n_tenants`.
    pub n_tenants: u32,
    /// Fraction of jobs submitted with a deadline.
    pub deadline_frac: f64,
    /// Deadline slack: `deadline = submit + slack × nominal runtime` of the
    /// job's class (see [`JobClass::nominal_runtime`]).
    pub deadline_slack: f64,
}

impl Default for TenantSpec {
    fn default() -> Self {
        TenantSpec {
            n_tenants: 1,
            deadline_frac: 0.0,
            deadline_slack: 3.0,
        }
    }
}

/// A replayable list of job submissions, sorted by submission time,
/// optionally carrying per-tenant dollar budgets (trace text v3). The
/// simulator rejects a tenant's further admissions once its attributed
/// spend reaches its budget.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    pub jobs: Vec<JobRequest>,
    /// Dollar caps per tenant; tenants absent from the map are uncapped.
    pub budgets: BTreeMap<TenantId, f64>,
}

impl Trace {
    /// A budget-less trace from a job list (the common constructor shape).
    pub fn from_jobs(jobs: Vec<JobRequest>) -> Trace {
        Trace {
            jobs,
            budgets: BTreeMap::new(),
        }
    }

    /// Cap a tenant's total attributed spend (builder style).
    pub fn with_budget(mut self, tenant: TenantId, usd: f64) -> Trace {
        assert!(
            usd.is_finite() && usd >= 0.0,
            "budget must be finite and >= 0"
        );
        self.budgets.insert(tenant, usd);
        self
    }

    /// Generate `n_jobs` single-tenant, deadline-less arrivals from the
    /// process and mix. Same seed → identical trace, byte for byte.
    pub fn generate(process: ArrivalProcess, mix: &JobMix, n_jobs: usize, seed: u64) -> Trace {
        Trace::generate_multi(process, mix, &TenantSpec::default(), n_jobs, seed)
    }

    /// Generate a multi-tenant trace: arrivals as in [`Trace::generate`],
    /// tenants drawn uniformly from the spec's population, and a
    /// `deadline_frac` share of jobs carrying a deadline at
    /// `deadline_slack ×` the class's nominal runtime.
    pub fn generate_multi(
        process: ArrivalProcess,
        mix: &JobMix,
        tenants: &TenantSpec,
        n_jobs: usize,
        seed: u64,
    ) -> Trace {
        Trace::from_jobs(
            GeneratorSource::new(process, mix.clone(), *tenants, n_jobs, seed).collect(),
        )
    }

    /// Serialize to the replayable text format: one
    /// `time class workers tenant deadline` line per job, times as `{:?}`
    /// writes them (shortest round-trip, by [`crate::json`]'s float
    /// writer), `-` for "no deadline". Traces carrying tenant
    /// budgets emit the v3 header and one `budget <tenant> <usd>` line per
    /// cap; budget-less traces emit v2 bytes unchanged.
    pub fn to_text(&self) -> String {
        let mut out = String::from(if self.budgets.is_empty() {
            "# lml-fleet trace v2: submit_secs\tclass\tworkers\ttenant\tdeadline\n"
        } else {
            "# lml-fleet trace v3: [budget\ttenant\tusd]* then \
             submit_secs\tclass\tworkers\ttenant\tdeadline\n"
        });
        for (&t, &usd) in &self.budgets {
            out.push_str("budget\t");
            push_u64(&mut out, u64::from(t));
            out.push('\t');
            push_f64(&mut out, usd);
            out.push('\n');
        }
        for j in &self.jobs {
            push_f64(&mut out, j.submit.as_secs());
            out.push('\t');
            out.push_str(j.class.name());
            out.push('\t');
            push_u64(&mut out, j.workers as u64);
            out.push('\t');
            push_u64(&mut out, u64::from(j.tenant));
            out.push('\t');
            match j.deadline {
                Some(d) => push_f64(&mut out, d.as_secs()),
                None => out.push('-'),
            }
            out.push('\n');
        }
        out
    }

    /// Parse the text format back into a trace (ids re-assigned in file
    /// order) by draining a [`TextSource`], which owns the grammar.
    /// Round-trips [`Trace::to_text`] exactly; also accepts the
    /// three-column v1 format (tenant 0, no deadline) and the v3 format's
    /// `budget <tenant> <usd>` lines, which must precede the first job row.
    pub fn from_text(text: &str) -> Result<Trace, String> {
        collect(TextSource::new(text.as_bytes()))
    }

    /// Tenant ids appearing in the trace, ascending and deduplicated.
    pub fn tenants(&self) -> Vec<TenantId> {
        let mut ts: Vec<TenantId> = self.jobs.iter().map(|j| j.tenant).collect();
        ts.sort_unstable();
        ts.dedup();
        ts
    }

    /// Submission time of the last job.
    pub fn horizon(&self) -> SimTime {
        self.jobs.last().map_or(SimTime::ZERO, |j| j.submit)
    }

    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_traces_differ_across_seeds() {
        let mix = JobMix::default_mix();
        let a = Trace::generate(ArrivalProcess::Poisson { rate: 0.5 }, &mix, 200, 7);
        let c = Trace::generate(ArrivalProcess::Poisson { rate: 0.5 }, &mix, 200, 8);
        assert_ne!(a, c, "different seeds give different traces");
    }

    #[test]
    fn poisson_mean_rate_close_to_nominal() {
        let mix = JobMix::only(JobClass::LrHiggs);
        let t = Trace::generate(ArrivalProcess::Poisson { rate: 2.0 }, &mix, 4_000, 42);
        let horizon = t.horizon().as_secs();
        let rate = t.len() as f64 / horizon;
        assert!((rate - 2.0).abs() < 0.15, "empirical rate {rate}");
    }

    #[test]
    fn burst_process_alternates_rates() {
        let p = ArrivalProcess::Burst {
            base_rate: 0.1,
            burst_rate: 10.0,
            period: 100.0,
            duty: 0.2,
        };
        assert_eq!(p.rate_at(5.0), 10.0);
        assert_eq!(p.rate_at(50.0), 0.1);
        assert_eq!(p.rate_at(105.0), 10.0);
        let mix = JobMix::only(JobClass::SvmRcv1);
        let t = Trace::generate(p, &mix, 500, 1);
        // Bursts compress arrivals: many more jobs land in burst windows.
        let in_burst = t
            .jobs
            .iter()
            .filter(|j| (j.submit.as_secs() / 100.0).fract() < 0.2)
            .count();
        assert!(in_burst > t.len() / 2, "{in_burst} of {}", t.len());
    }

    #[test]
    fn trace_text_roundtrips() {
        let mix = JobMix::default_mix();
        let t = Trace::generate(ArrivalProcess::Poisson { rate: 1.0 }, &mix, 300, 99);
        let text = t.to_text();
        let back = Trace::from_text(&text).unwrap();
        assert_eq!(t, back);
        assert_eq!(back.to_text(), text, "round-trip is byte-identical");
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(Trace::from_text("1.0\tnot-a-class\t10").is_err());
        assert!(Trace::from_text("abc\tlr-higgs\t10").is_err());
        assert!(Trace::from_text("1.0\tlr-higgs\t0").is_err());
        assert!(Trace::from_text("5.0\tlr-higgs\t10\n1.0\tlr-higgs\t10").is_err());
    }

    #[test]
    fn from_text_rejects_malformed_v2_fields() {
        // Wrong arity (4 fields is neither v1 nor v2).
        assert!(Trace::from_text("1.0\tlr-higgs\t10\t0").is_err());
        // Non-numeric / negative-looking tenant id.
        assert!(Trace::from_text("1.0\tlr-higgs\t10\tbob\t-").is_err());
        assert!(Trace::from_text("1.0\tlr-higgs\t10\t-1\t-").is_err());
        // Bad deadlines: unparsable, non-finite, before submission.
        assert!(Trace::from_text("1.0\tlr-higgs\t10\t0\tsoon").is_err());
        assert!(Trace::from_text("1.0\tlr-higgs\t10\t0\tinf").is_err());
        assert!(Trace::from_text("10.0\tlr-higgs\t10\t0\t5.0").is_err());
        // Bad submit times.
        assert!(Trace::from_text("-1.0\tlr-higgs\t10").is_err());
        assert!(Trace::from_text("nan\tlr-higgs\t10").is_err());
    }

    #[test]
    fn from_text_accepts_v1_and_empty_traces() {
        let v1 = Trace::from_text("# v1 comment\n1.0\tlr-higgs\t10\n").unwrap();
        assert_eq!(v1.jobs[0].tenant, 0);
        assert_eq!(v1.jobs[0].deadline, None);
        let empty = Trace::from_text("# nothing but comments\n\n").unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.horizon(), SimTime::ZERO);
    }

    #[test]
    fn multi_tenant_trace_roundtrips_with_deadlines() {
        let spec = TenantSpec {
            n_tenants: 4,
            deadline_frac: 0.5,
            deadline_slack: 2.0,
        };
        let mix = JobMix::default_mix();
        let t = Trace::generate_multi(ArrivalProcess::Poisson { rate: 1.0 }, &mix, &spec, 300, 13);
        assert_eq!(t.tenants(), vec![0, 1, 2, 3]);
        let with_deadline = t.jobs.iter().filter(|j| j.deadline.is_some()).count();
        assert!(
            (100..=200).contains(&with_deadline),
            "~half the jobs carry deadlines, got {with_deadline}"
        );
        for j in t.jobs.iter().filter(|j| j.deadline.is_some()) {
            assert!(j.deadline.unwrap() > j.submit);
        }
        let text = t.to_text();
        let back = Trace::from_text(&text).unwrap();
        assert_eq!(t, back);
        assert_eq!(back.to_text(), text, "v2 round-trip is byte-identical");
    }

    #[test]
    fn v3_budget_lines_roundtrip() {
        let mix = JobMix::default_mix();
        let t = Trace::generate(ArrivalProcess::Poisson { rate: 1.0 }, &mix, 50, 3)
            .with_budget(0, 12.5)
            .with_budget(7, 0.0);
        let text = t.to_text();
        assert!(text.starts_with("# lml-fleet trace v3"));
        assert!(text.contains("budget\t0\t12.5\n"));
        assert!(text.contains("budget\t7\t0.0\n"));
        let back = Trace::from_text(&text).unwrap();
        assert_eq!(t, back);
        assert_eq!(back.to_text(), text, "v3 round-trip is byte-identical");
        assert_eq!(back.budgets.get(&0), Some(&12.5));
    }

    #[test]
    fn budget_less_traces_still_emit_v2_bytes() {
        let mix = JobMix::default_mix();
        let t = Trace::generate(ArrivalProcess::Poisson { rate: 1.0 }, &mix, 20, 3);
        assert!(t.budgets.is_empty());
        assert!(t.to_text().starts_with("# lml-fleet trace v2"));
    }

    #[test]
    fn malformed_budget_lines_are_rejected() {
        // Arity, bad tenant, bad/negative/non-finite amounts, duplicates.
        assert!(Trace::from_text("budget\t0\n").is_err());
        assert!(Trace::from_text("budget\t0\t1.0\t2.0\n").is_err());
        assert!(Trace::from_text("budget\tbob\t1.0\n").is_err());
        assert!(Trace::from_text("budget\t0\tlots\n").is_err());
        assert!(Trace::from_text("budget\t0\t-1.0\n").is_err());
        assert!(Trace::from_text("budget\t0\tinf\n").is_err());
        assert!(Trace::from_text("budget\t0\t1.0\nbudget\t0\t2.0\n").is_err());
        // Budget-only traces are fine (empty but capped).
        let t = Trace::from_text("budget\t3\t5.0\n").unwrap();
        assert!(t.is_empty());
        assert_eq!(t.budgets.get(&3), Some(&5.0));
        // v1/v2 job lines still parse next to budget lines.
        let t = Trace::from_text("budget\t0\t5.0\n1.0\tlr-higgs\t10\n").unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn mix_sampling_respects_weights() {
        let mix = JobMix::new(vec![(JobClass::LrHiggs, 3.0), (JobClass::RnCifar, 1.0)]);
        let t = Trace::generate(ArrivalProcess::Poisson { rate: 1.0 }, &mix, 4_000, 5);
        let lr = t
            .jobs
            .iter()
            .filter(|j| j.class == JobClass::LrHiggs)
            .count();
        let frac = lr as f64 / t.len() as f64;
        assert!((frac - 0.75).abs() < 0.05, "LR fraction {frac}");
    }
}
