//! The pure-FaaS executor — LambdaML proper (Figure 2).
//!
//! Synchronous path: starter→worker fan-out, partition loading from S3,
//! BSP rounds over the storage channel, 15-minute lifetime rollovers,
//! GB-second billing plus storage request/node charges.
//!
//! Asynchronous path (S-ASP, §4.5): one global model on the channel; each
//! worker independently reads it, takes its local step(s), writes it back.
//! Workers get heterogeneous speeds (jitter), so fast workers genuinely
//! read stale models — Figure 8's instability arises from the numerics.

use crate::config::{ChannelKind, Protocol};
use crate::engine;
use crate::executor::sync_driver::{run_backend, SyncBackend};
use crate::executor::{check_lambda_memory, lambda_bill, partition_load_time};
use crate::job::{JobError, TrainingJob};
use crate::result::{Breakdown, CostBreakdown, RunResult};
use lml_comm::{Asp, Bsp, Pattern};
use lml_faas::startup::{faas_startup_time, INVOKE_LATENCY};
use lml_faas::{LambdaSpec, LifetimeManager};
use lml_models::AnyModel;
use lml_optim::algorithm::Algorithm;
use lml_optim::driver::{replicas, Aggregate};
use lml_optim::{CurvePoint, LossCurve};
use lml_sim::{EventQueue, Pcg64, SimTime};
use lml_storage::StorageChannel;

/// Run a FaaS job (dispatched from [`TrainingJob::run`]).
pub fn run(
    job: &TrainingJob<'_>,
    model: AnyModel,
    spec: LambdaSpec,
    channel_kind: ChannelKind,
    pattern: Pattern,
    protocol: Protocol,
) -> Result<RunResult, JobError> {
    match protocol {
        Protocol::Sync => run_bsp(job, model, spec, channel_kind, pattern),
        Protocol::Async => run_asp(job, model, spec, channel_kind),
    }
}

/// What both protocols share: memory admission, the channel, timings.
struct Setup {
    channel: StorageChannel,
    startup: SimTime,
    load: SimTime,
    rollover: SimTime,
}

fn setup(
    job: &TrainingJob<'_>,
    model: &AnyModel,
    spec: LambdaSpec,
    channel_kind: ChannelKind,
) -> Result<Setup, JobError> {
    let (w, wl) = (job.config.workers, job.workload);
    check_lambda_memory(job, model, spec)?;

    let channel = StorageChannel::new(channel_kind.profile());
    // The channel must be provisioned before the functions start
    // ("we trigger Lambda functions after ... Memcached is launched"); then
    // the starter's one invoke call fans out to all `w` workers (§3.3.1).
    let startup = channel.startup() + (INVOKE_LATENCY + faas_startup_time(w));
    let load = partition_load_time(&wl.spec, w);
    // Lifetime rollover: checkpoint write + read on the channel, then
    // reload the data partition from S3.
    let rollover = channel.op_time(model.wire_bytes()) * 2.0 + load;
    Ok(Setup {
        channel,
        startup,
        load,
        rollover,
    })
}

fn run_bsp(
    job: &TrainingJob<'_>,
    model: AnyModel,
    spec: LambdaSpec,
    channel_kind: ChannelKind,
    pattern: Pattern,
) -> Result<RunResult, JobError> {
    let w = job.config.workers;
    let Setup {
        mut channel,
        startup,
        load,
        rollover,
    } = setup(job, &model, spec, channel_kind)?;
    let backend = SyncBackend {
        system: format!("LambdaML({})", channel_kind.name()),
        partitions: w,
        startup,
        load,
        vcpus: spec.vcpus(),
        gpu: None,
        compute_factor: 1.0,
        lifetime: Some(LifetimeManager::with_overhead(rollover)),
    };
    let stat_wire = model.statistic_wire_bytes();
    let bsp = Bsp::new(pattern);
    let mut run = run_backend(
        job,
        &model,
        backend,
        Aggregate::ByValue(&mut |round, epoch, stats| {
            let o = bsp.run_round(&mut channel, epoch, round as usize, stats, stat_wire)?;
            Ok((o.aggregate, o.duration))
        }),
    )?;
    run.result.cost = CostBreakdown {
        compute: lambda_bill(spec, w, run.busy),
        requests: channel.request_cost(),
        nodes: channel.node_cost(run.elapsed),
    };
    Ok(run.result)
}

fn run_asp(
    job: &TrainingJob<'_>,
    model: AnyModel,
    spec: LambdaSpec,
    channel_kind: ChannelKind,
) -> Result<RunResult, JobError> {
    let cfg = &job.config;
    let wl = job.workload;
    let w = cfg.workers;
    if !matches!(
        cfg.algorithm,
        Algorithm::GaSgd { .. } | Algorithm::MaSgd { .. }
    ) {
        return Err(JobError::NotApplicable(format!(
            "the asynchronous protocol supports SGD variants, not {}",
            cfg.algorithm.name()
        )));
    }
    let Setup {
        mut channel,
        startup,
        load,
        rollover,
    } = setup(job, &model, spec, channel_kind)?;
    let mut workers = replicas(&model, wl.train.len(), w, &cfg.algorithm);
    let scale_inv = wl.scale_inv();
    let nnz = engine::avg_nnz(&wl.train);

    let wire = model.wire_bytes();
    let mut asp = Asp::new();
    asp.init_model(&mut channel, model.params(), wire)?;

    // Heterogeneous worker speeds — the stragglers that make fast workers
    // read stale models (§4.5).
    let mut rng = Pcg64::new(cfg.seed ^ 0xA5F0);
    let jitter: Vec<f64> = (0..w).map(|_| 0.75 + 0.5 * rng.uniform()).collect();
    let mut lifetimes: Vec<LifetimeManager> = (0..w)
        .map(|_| LifetimeManager::with_overhead(rollover))
        .collect();

    let eval_every = (cfg.resolved_eval_every(workers[0].partition_len()) * w).max(1) as u64;

    let mut queue: EventQueue<usize> = EventQueue::new();
    for wid in 0..w {
        queue.push(startup + load, wid);
    }
    let mut curve = LossCurve::new();
    let mut events = 0u64;
    let mut total_examples = 0u64;
    let mut epochs = 0.0f64;
    let mut compute_total = SimTime::ZERO;
    let mut comm_total = SimTime::ZERO;
    let mut overhead_total = SimTime::ZERO;
    let mut converged = false;
    let mut elapsed = startup + load;

    while let Some((t, wid)) = queue.pop() {
        elapsed = elapsed.max(t);
        if cfg.stop.exhausted(epochs, t) {
            break;
        }
        let lr = cfg.lr.lr(epochs.floor() as usize);

        // read the (possibly stale) global model
        let (read_t, params) = asp.read_model(&mut channel)?;
        workers[wid].model.params_mut().copy_from_slice(&params);

        // local step(s)
        let (stat, ex) = workers[wid].produce(&cfg.algorithm, &wl.train, lr);
        if matches!(cfg.algorithm, Algorithm::GaSgd { .. }) {
            // apply own gradient to the copy just read
            workers[wid].consume(&cfg.algorithm, &stat, 1, lr);
        }
        // write the updated model back (blind overwrite, SIREN-style)
        let write_t = asp.write_model(&mut channel, workers[wid].model.params(), wire)?;

        let compute_t =
            engine::compute_time(&model, ex as f64 * scale_inv, nnz, spec.vcpus(), None, 1.0)
                * jitter[wid];
        let busy = read_t + compute_t + write_t;
        let wall = lifetimes[wid].charge(busy);
        overhead_total += wall - busy;
        compute_total += compute_t;
        comm_total += read_t + write_t;
        total_examples += ex;
        epochs = total_examples as f64 / wl.train.len() as f64;
        events += 1;

        let done = t + wall;
        elapsed = elapsed.max(done);
        queue.push(done, wid);

        if events.is_multiple_of(eval_every) {
            let (_, gp) = asp.read_model(&mut channel)?;
            let mut eval = model.clone();
            eval.params_mut().copy_from_slice(&gp);
            let loss = eval.full_loss(&wl.valid);
            curve.push(CurvePoint {
                time: elapsed,
                epoch: epochs,
                rounds: events,
                loss,
            });
            if cfg.stop.converged(loss) {
                converged = true;
                break;
            }
        }
    }

    // final observation
    let (_, gp) = asp.read_model(&mut channel)?;
    let mut final_model = model.clone();
    final_model.params_mut().copy_from_slice(&gp);
    converged |= curve.close(&cfg.stop, elapsed, epochs, events, || {
        final_model.full_loss(&wl.valid)
    });

    // Billing: every worker is busy from fan-out to the end (async workers
    // never idle).
    let busy_per_worker = (elapsed - startup).max(SimTime::ZERO);
    let reinvocations = lifetimes.iter().map(|l| l.reinvocations()).sum();
    let final_accuracy = final_model.full_accuracy(&wl.valid);
    let per_worker = 1.0 / w as f64;
    Ok(RunResult {
        system: format!("LambdaML-ASP({})", channel_kind.name()),
        final_loss: curve.final_loss(),
        curve,
        breakdown: Breakdown {
            startup: startup + overhead_total * per_worker,
            load,
            compute: compute_total * per_worker,
            comm: comm_total * per_worker,
        },
        cost: CostBreakdown {
            compute: lambda_bill(spec, w, busy_per_worker),
            requests: channel.request_cost(),
            nodes: channel.node_cost(elapsed),
        },
        epochs,
        rounds: events,
        converged,
        final_accuracy,
        reinvocations,
    })
}
