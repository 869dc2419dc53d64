//! One measured pass, in a fresh process.
//!
//! A child builds its inputs, runs an untimed warm-up at a tenth of the
//! size, then runs the measured pass once and prints what it saw as
//! `M name value` (a measurement), `O name value` (a simulated output,
//! compared as text), `A n` (operations and checks attempted) and
//! `F message` (a failure) lines. A traced child runs the same pass a
//! second time with the per-layer instrumentation active, then the micro
//! cells; its outputs must equal the untraced pass's.
//!
//! `setup_s` is everything before the measured pass — input generation,
//! the train/validation split, writing the trace file, and the warm-up —
//! so work a later change moves out of the measured region into set-up or
//! lazy first-use initialisation still shows.

use crate::decorators::{Clocks, TimerCost};
use crate::stats::Fnv1a;
use crate::workloads::{FleetKind, Kind, TrainKind, WARMUP_SCALE};
use crate::{alloc, fleet, proc, train};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

#[derive(Debug, Default, PartialEq)]
pub struct Report {
    pub metrics: BTreeMap<String, f64>,
    pub outs: BTreeMap<String, String>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    fn out(&mut self, name: &str, value: impl std::fmt::Debug) {
        self.outs.insert(name.to_string(), format!("{value:?}"));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// The wire form a child prints and the parent parses back.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (k, v) in &self.metrics {
            s.push_str(&format!("M {k} {v:?}\n"));
        }
        for (k, v) in &self.outs {
            s.push_str(&format!("O {k} {v}\n"));
        }
        s.push_str(&format!("A {}\n", self.attempted));
        for f in &self.failures {
            s.push_str(&format!("F {}\n", f.replace('\n', " ")));
        }
        s
    }

    pub fn parse(text: &str) -> Result<Report, String> {
        let mut r = Report::default();
        let mut saw_attempted = false;
        for line in text.lines() {
            let bad = || format!("unreadable child line {line:?}");
            let (tag, rest) = line.split_once(' ').ok_or_else(bad)?;
            match tag {
                "M" | "O" => {
                    let (k, v) = rest.split_once(' ').ok_or_else(bad)?;
                    if tag == "M" {
                        r.metrics
                            .insert(k.to_string(), v.parse().map_err(|_| bad())?);
                    } else {
                        r.outs.insert(k.to_string(), v.to_string());
                    }
                }
                "A" => {
                    r.attempted = rest.parse().map_err(|_| bad())?;
                    saw_attempted = true;
                }
                "F" => r.failures.push(rest.to_string()),
                _ => return Err(bad()),
            }
        }
        if !saw_attempted {
            return Err("child ended before reporting its attempt count".into());
        }
        Ok(r)
    }
}

pub struct Args<'a> {
    pub kind: Kind,
    pub seed: u64,
    /// 1.0 for the frozen sizes; smaller under `--smoke`.
    pub scale: f64,
    pub traced: bool,
    pub workdir: &'a Path,
}

pub fn run(args: &Args) -> Report {
    let mut r = match args.kind {
        Kind::Train(kind) => train_child(kind, args),
        Kind::Fleet(kind) => fleet_child(kind, args),
    };
    if let Some(mb) = proc::peak_rss_mb() {
        r.metric("peak_rss_mb", mb);
    }
    if let Some(s) = proc::cpu_secs() {
        r.metric("cpu_s", s);
    }
    r
}

fn fold_train(r: &mut Report, outs: &[Result<train::JobOut, String>]) -> train::JobOut {
    let mut total = train::JobOut::default();
    let mut fp = Fnv1a::new();
    for o in outs {
        r.attempted += 1;
        match o {
            Err(e) => r.failures.push(e.clone()),
            Ok(o) => {
                total.final_loss += o.final_loss;
                total.rounds += o.rounds;
                total.sim_runtime_s += o.sim_runtime_s;
                total.cost_usd += o.cost_usd;
                fp.f64(o.final_loss);
                fp.u64(o.rounds);
                fp.f64(o.sim_runtime_s);
                fp.f64(o.cost_usd);
            }
        }
    }
    r.out("train_final_loss", total.final_loss);
    r.out("train_rounds", total.rounds);
    r.out("train_sim_runtime_s", total.sim_runtime_s);
    r.out("train_cost_usd", total.cost_usd);
    r.out("train_fingerprint", format_args!("{:016x}", fp.finish()));
    total
}

fn train_child(kind: TrainKind, args: &Args) -> Report {
    let mut r = Report::default();
    let t0 = Instant::now();
    let inputs = train::build(kind, args.scale, args.seed);
    let warm = train::build(kind, args.scale * WARMUP_SCALE, args.seed);
    std::hint::black_box(train::run_plain(&warm));
    drop(warm);
    r.metric("setup_s", t0.elapsed().as_secs_f64());

    let t = Instant::now();
    let plain = train::run_plain(&inputs);
    let wall = t.elapsed();
    r.metric("wall_s", wall.as_secs_f64());
    let total = fold_train(&mut r, &plain);
    if !args.traced {
        return r;
    }

    let mut spans = train::Spans::default();
    let t = Instant::now();
    let (shadow, allocs, alloc_bytes) = alloc::counted(|| train::run_shadow(&inputs, &mut spans));
    let traced_wall = t.elapsed();
    for (j, (p, s)) in inputs.jobs.iter().zip(plain.iter().zip(&shadow)) {
        let same = match (p, s) {
            (Ok(p), Ok(s)) => {
                p.final_loss.to_bits() == s.final_loss.to_bits() && p.rounds == s.rounds
            }
            _ => false,
        };
        r.check(same, || {
            format!("{}: shadow loop {s:?} != TrainingJob::run {p:?}", j.label)
        });
    }

    let t = Instant::now();
    let micro = train::micro_cells(args.seed, args.scale);
    let micro_wall = t.elapsed();
    for (name, v) in micro {
        r.metric(name, v);
    }

    let s = |d: Duration| d.as_secs_f64();
    r.metric("data.generate_s", inputs.generate_s);
    r.metric("optim.produce_s", s(spans.produce));
    r.metric("optim.produce_calls", spans.produce_calls as f64);
    r.metric("optim.examples", spans.examples as f64);
    r.metric("optim.consume_s", s(spans.consume));
    r.metric("optim.sum_s", s(spans.sum));
    r.metric("models.eval_s", s(spans.eval));
    r.metric("models.eval_calls", spans.eval_calls as f64);
    r.metric("comm.round_s", s(spans.comm));
    r.metric("comm.round_calls", spans.comm_calls as f64);
    r.metric("comm.f64s_moved", spans.f64s_moved as f64);
    r.metric("storage.puts", spans.puts as f64);
    r.metric("storage.gets", spans.gets as f64);
    r.metric("storage.lists", spans.lists as f64);
    // What `TrainingJob::run` spends outside the spanned calls: model and
    // worker construction, statistic buffers, virtual-time bookkeeping.
    r.metric("core.driver_self_s", s(wall) - s(spans.layers()));
    r.metric("out.train_final_loss", total.final_loss);
    r.metric("out.train_rounds", total.rounds as f64);
    r.metric("out.train_sim_runtime_s", total.sim_runtime_s);
    r.metric("out.train_cost_usd", total.cost_usd);
    trace_metrics(
        &mut r,
        wall,
        traced_wall,
        spans.layers(),
        micro_wall,
        allocs,
        alloc_bytes,
    );
    r
}

fn fold_fleet(r: &mut Report, out: &fleet::Out) {
    r.attempted += out.attempted;
    r.failures.extend(out.failures.iter().cloned());
    r.out("fleet_jobs", out.jobs);
    r.out("fleet_completed", out.completed);
    r.out("fleet_rejected", out.rejected);
    r.out("fleet_makespan_s", out.makespan_s);
    r.out("fleet_cost_usd", out.cost_usd);
    r.out("fleet_preemptions", out.preemptions);
    r.out(
        "fleet_json_bytes",
        out.metrics_json_bytes + out.trace_json_bytes,
    );
    r.out(
        "fleet_fingerprint",
        format_args!("{:016x}", out.fingerprint.finish()),
    );
}

fn fleet_child(kind: FleetKind, args: &Args) -> Report {
    let mut r = Report::default();
    let build = |scale| fleet::build(kind, scale, args.seed, args.workdir);
    let t0 = Instant::now();
    let (inputs, warm) = match (build(args.scale), build(args.scale * WARMUP_SCALE)) {
        (Ok(i), Ok(w)) => (i, w),
        (Err(e), _) | (_, Err(e)) => {
            r.check(false, || format!("set-up: {e}"));
            return r;
        }
    };
    std::hint::black_box(fleet::run(&warm, args.seed, None));
    drop(warm);
    r.metric("setup_s", t0.elapsed().as_secs_f64());

    let plain = fleet::run(&inputs, args.seed, None);
    r.metric("wall_s", plain.wall.as_secs_f64());
    fold_fleet(&mut r, &plain);
    if !args.traced {
        return r;
    }

    let timer = TimerCost::calibrate();
    let clocks = Clocks::shared();
    let (traced, allocs, alloc_bytes) =
        alloc::counted(|| fleet::run(&inputs, args.seed, Some(&clocks)));
    // The decorated replay's own checks count too, and its outputs —
    // counts, simulated results, JSON fingerprint — must equal the plain
    // replay's.
    let mut decorated = Report::default();
    fold_fleet(&mut decorated, &traced);
    r.attempted += decorated.attempted;
    r.failures.append(&mut decorated.failures);
    r.check(decorated.outs == r.outs, || {
        format!(
            "decorated replay's outputs {:?} differ from the undecorated replay's",
            decorated.outs
        )
    });

    let t = Instant::now();
    let micro = fleet::micro_cells(args.seed, args.scale);
    if let fleet::Inputs::TraceObserved {
        path, file_bytes, ..
    } = &inputs
    {
        match fleet::text_parse_mb_per_s(path, *file_bytes) {
            Ok(v) => r.metric("stream.text_parse_mb_per_s", v),
            Err(e) => r.check(false, || format!("drain-only parse: {e}")),
        }
    }
    let micro_wall = t.elapsed();
    for (name, v) in micro {
        r.metric(name, v);
    }

    let s = |d: Duration| d.as_secs_f64();
    let n = |a: &std::sync::atomic::AtomicU64| a.load(Relaxed) as f64;
    r.metric("stream.next_job_s", clocks.source.secs(&timer));
    r.metric("stream.jobs", n(&clocks.source_jobs));
    r.metric("scheduler.route_s", clocks.route.secs(&timer));
    r.metric("scheduler.route_calls", clocks.route.calls() as f64);
    r.metric("scheduler.feedback_s", clocks.feedback.secs(&timer));
    r.metric("scheduler.weight_calls", n(&clocks.weight_calls));
    r.metric("estimate.predict_s", clocks.predict.secs(&timer));
    r.metric("estimate.predict_calls", clocks.predict.calls() as f64);
    r.metric("estimate.observe_s", clocks.est_observe.secs(&timer));
    r.metric("observe.callback_s", clocks.callback.secs(&timer));
    r.metric("observe.events", clocks.callback.calls() as f64);
    // The simulator's own time: the replay less every layer's span and
    // less what the timed calls themselves cost.
    let layers_s = clocks.layers_s(&timer);
    let timer_s = clocks.timer_s(&timer);
    r.metric("sim.self_s", s(traced.replay) - layers_s - timer_s);
    r.metric("trace.timer_ns", timer.per_call_ns());
    r.metric("trace.timer_s", timer_s);
    r.metric("sim.edf_s", s(traced.edf));
    r.metric("sim.drr_s", s(traced.drr));
    let events = n(&clocks.heap_pops);
    r.metric("sim.events", events);
    r.metric("sim.heap_ops", n(&clocks.heap_pushes) + events);
    r.metric("sim.peak_queue_depth", n(&clocks.peak_queue_depth));
    r.metric("sim.peak_resident_jobs", n(&clocks.peak_resident_jobs));
    // Host time moves with events simulated: compare this, from the
    // untraced replay, when a change alters how many events a run takes.
    r.metric("sim.ns_per_event", s(plain.replay) * 1e9 / events.max(1.0));
    r.metric("metrics.to_json_s", s(traced.metrics_json));
    r.metric("metrics.json_bytes", traced.metrics_json_bytes as f64);
    r.metric("observe.trace_json_s", s(traced.trace_json));
    r.metric("observe.trace_json_bytes", traced.trace_json_bytes as f64);
    r.metric("out.fleet_completed", plain.completed as f64);
    r.metric("out.fleet_rejected", plain.rejected as f64);
    r.metric("out.fleet_makespan_s", plain.makespan_s);
    r.metric("out.fleet_cost_usd", plain.cost_usd);
    r.metric("out.fleet_preemptions", plain.preemptions as f64);
    let layers = Duration::from_secs_f64(layers_s) + traced.metrics_json + traced.trace_json;
    trace_metrics(
        &mut r,
        plain.wall,
        traced.wall,
        layers,
        micro_wall,
        allocs,
        alloc_bytes,
    );
    r
}

fn trace_metrics(
    r: &mut Report,
    untraced: Duration,
    traced: Duration,
    layers: Duration,
    micro: Duration,
    allocs: u64,
    alloc_bytes: u64,
) {
    r.metric("trace.untraced_wall_s", untraced.as_secs_f64());
    r.metric("trace.wall_s", traced.as_secs_f64());
    r.metric("trace.layers_s", layers.as_secs_f64());
    r.metric("trace.micro_s", micro.as_secs_f64());
    r.metric(
        "trace.overhead_frac",
        traced.as_secs_f64() / untraced.as_secs_f64() - 1.0,
    );
    r.metric("alloc.count", allocs as f64);
    r.metric("alloc.bytes", alloc_bytes as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_survive_the_pipe() {
        let mut r = Report::default();
        r.metric("wall_s", 1.234_567_890_123);
        r.metric("sim.events", 26_000.0);
        r.out("fleet_makespan_s", 119_978_853.557_194_86_f64);
        r.out(
            "fleet_fingerprint",
            format_args!("{:016x}", 0xdead_beef_u64),
        );
        r.attempted = 7;
        r.failures.push("deep_queue/edf: line one\nline two".into());
        let back = Report::parse(&r.render()).unwrap();
        assert_eq!(back.metrics, r.metrics);
        assert_eq!(back.outs, r.outs);
        assert_eq!(back.attempted, 7);
        assert_eq!(back.failures, ["deep_queue/edf: line one line two"]);
        assert_eq!(back.outs["fleet_fingerprint"], "00000000deadbeef");
    }

    #[test]
    fn a_truncated_or_garbled_report_is_an_error() {
        assert!(Report::parse("M wall_s 1.0\n").is_err(), "no attempt count");
        assert!(Report::parse("M wall_s fast\nA 1\n").is_err());
        assert!(Report::parse("X y z\nA 1\n").is_err());
        assert!(Report::parse("panicked\nA 1\n").is_err());
    }
}
