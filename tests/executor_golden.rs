//! Golden table for every training-executor path.
//!
//! One line per case pins what a `TrainingJob::run` reports, as the
//! `to_bits` hex of each `f64`: runtime and dollars, the four `Breakdown`
//! parts, the three `CostBreakdown` parts, epochs, final loss and final
//! accuracy; then rounds, reinvocations, the curve's point count and an
//! FNV-1a over every curve point's (time, epoch, rounds, loss). An `Err`
//! case pins its `Display`.
//!
//! The cases cover FaaS-BSP on every channel and both patterns, FaaS
//! S-ASP, IaaS (PyTorch on CPU and GPU, Angel), the hybrid PS over gRPC
//! and Thrift, the single machine, Lambda-lifetime rollovers on FaaS-BSP
//! and hybrid, and the admission errors. A change that moves a line on
//! purpose re-blesses it: the failure message prints the whole new table.

mod golden;

use golden::{fnv1a, FNV_OFFSET};
use lambdaml::prelude::*;

const GOLDEN: &str = "\
faas_bsp_s3_allreduce run=405bfb83302de63c usd=3f97c1fec3082d80 bd=3fe4cccccccccccc,403ed967300c9a63,404cdffffffffffb,4036ae3f2a44982f cost=3f96d9d726e1f1ab,3f4d04f384c77a9d,0000000000000000 ep=4008000000000002 loss=3fe463ebe5a76a5a acc=3fe4f5c28f5c28f6 rounds=27 reinv=0 points=14 curve=12d970ce6b0ff094
faas_bsp_s3_scatter_admm_rcv1 run=4031bf90bb82abbe usd=3f6ddbabcb232354 bd=3fe4cccccccccccc,4012c812e794dfb4,40246c00a5b36e19,4001892a42eab2f4 cost=3f6c16afad2ff345,3f2c4fc1df3300eb,0000000000000000 ep=4011c71c71c71c72 loss=3fdc1766268f7916 acc=3fec000000000000 rounds=2 reinv=0 points=2 curve=910cf65533a1a8f0
faas_bsp_memcached_scatter run=406db3d10382ad92 usd=3f988225b61fc444 bd=406194cccccccccd,403ed967300c9a63,404cdffffffffffb,4020bd750b44d7a4 cost=3f93e98cb5c5a40a,0000000000000000,3f726264016880ea ep=4008000000000002 loss=3fe463ebe5a76a5a acc=3fe4f5c28f5c28f6 rounds=27 reinv=0 points=14 curve=5a4ce1afd857767f
faas_bsp_redis_masgd run=406afdaa3a914f76 usd=3f93a26727c6ec5d bd=406194cccccccccd,403ed967300c9a63,4045638e38e38e38,3ffa667cc505e75a cost=3f8eea6ef9e199a6,0000000000000000,3f70b4beab587e27 ep=4001c71c71c71c72 loss=3fe979ff40f55b83 acc=3fe4f5c28f5c28f6 rounds=5 reinv=0 points=5 curve=3451c70fe0795f2c
faas_bsp_dynamodb_em run=40742733d9ae7da8 usd=3fb087c6d3d9dadc bd=3fe4cccccccccccc,403ed967300c9a63,40720bffffffffff,40019b8023a6ce36 cost=3fb08527bd28be6f,3f04f8b588e368f0,0000000000000000 ep=4014000000000000 loss=403b5e30fc471cb3 acc=3ff0000000000000 rounds=5 reinv=0 points=5 curve=4815f1741d32d126
faas_asp_s3 run=405663b4fb7a3ec5 usd=3f92edb1fcfc5c9f bd=3fe4cccccccccccc,403ed967300c9a63,404ade87501d70ea,401147dedcec61da cost=3f925208beaa1178,3f437527ca4964e0,0000000000000000 ep=4008000000000000 loss=3fe4989bc04be09a acc=3fe451eb851eb852 rounds=108 reinv=0 points=14 curve=2b8022ad8960e295
iaas_pytorch_t2 run=4069dcf84510169b usd=3f85d8a45836ac61 bd=405f000000000000,403ed967300c9a63,4049fcccccccccca,3fb4c15eda80ea77 cost=3f85d8a45836ac61,0000000000000000,0000000000000000 ep=4008000000000002 loss=3fe463ebe5a76a5a acc=3fe4f5c28f5c28f6 rounds=27 reinv=0 points=14 curve=e8cc04ac8f874baa
iaas_pytorch_g4dn_mobilenet run=40639dc718dc0cbc usd=3fb77ac71d12a31f bd=405f000000000000,3feda30d640973ca,403f8d4fdf3b6460,3fdcf41f212d7732 cost=3fb77ac71d12a31f,0000000000000000,0000000000000000 ep=3ff07f6e5d4c3b2a loss=400159d796551fab acc=3fc851eb851eb852 rounds=29 reinv=0 points=5 curve=26379328b55ea6ec
iaas_angel_t2 run=408513837ed014ab usd=3fa1cd841b88d43f bd=407b200000000000,405e13f7ced91687,405e07ae147ae148,3f7d84cb2b620381 cost=3fa1cd841b88d43f,0000000000000000,0000000000000000 ep=4011c71c71c71c72 loss=3fe4640555fffaa0 acc=3fe4f5c28f5c28f6 rounds=2 reinv=0 points=2 curve=08445896546f602f
hybrid_grpc run=406a2669c12d114c usd=3fad5432a8a726ce bd=405e266666666666,403ed967300c9a63,404cdffffffffffb,3f534ff0959b3c91 cost=3f92319c15470203,0000000000000000,3fa43b649e03a5cd ep=4008000000000002 loss=3fe463ebe5a76a5a acc=3fe4f5c28f5c28f6 rounds=27 reinv=0 points=14 curve=66aa6164da277977
hybrid_thrift run=406a2682ef59a975 usd=3fad545ad2c8df98 bd=405e266666666666,403ed967300c9a63,404cdffffffffffb,3f716b12717bb0cb cost=3f9231c572dfc67d,0000000000000000,3fa43b781958fc5a ep=4008000000000002 loss=3fe463ebe5a76a5a acc=3fe4f5c28f5c28f6 rounds=27 reinv=0 points=14 curve=2ff30c04827b0f0c
single_c5_4xlarge run=4070d629282c1c5c usd=3faa0d726e216500 bd=405e000000000000,405eca0b0716d7d4,403a3a6666666673,0000000000000000 cost=3faa0d726e216500,0000000000000000,0000000000000000 ep=400838e38e38e37f loss=3fe47904ad7c1796 acc=3fe4cccccccccccd rounds=109 reinv=0 points=13 curve=4ecd6b1151761b6b
faas_bsp_rollover_mobilenet run=409f48c882ee956e usd=3fda65cecd570096 bd=400d494160e2dafb,3feda30d640973ca,4093f38e38e38e62,408685c28f5c28df cost=3fd9b02b11fb7561,3f86b4776b71669b,0000000000000000 ep=4008091a2b3c4d75 loss=3fe4d08430637724 acc=3feccccccccccccd rounds=338 reinv=2 points=13 curve=d82b111e5af7921b
hybrid_rollover_mobilenet run=40a12011229ac887 usd=3fea8acc29403938 bd=405eee4382795179,3feda30d640973ca,4093f38e38e38e62,4088b3f6e4fbd8cb cost=3fda95c989c5bb4e,0000000000000000,3fda7fcec8bab722 ep=4008091a2b3c4d75 loss=3fe4d08430637724 acc=3feccccccccccccd rounds=338 reinv=2 points=13 curve=18a3b3a9283faeb8
err_dynamodb_refuses_mobilenet err storage: item of 12.0MB exceeds the service cap of 400.0KB
err_resnet50_batch64_lambda_oom err faas: function needs 3.35GB but is limited to 3.01GB
err_iaas_t2_one_worker_oom err iaas: t2.medium cannot hold 8.00GB in its 4.00GB RAM
err_single_t2_oom err iaas: t2.medium cannot hold 8.00GB in its 4.00GB RAM
";

fn line(name: &str, result: Result<RunResult, JobError>) -> String {
    let r = match result {
        Ok(r) => r,
        Err(e) => return format!("{name} err {e}"),
    };
    let hex = |v: f64| format!("{:016x}", v.to_bits());
    let b = r.breakdown;
    let c = r.cost;
    let curve = r.curve.points().iter().fold(FNV_OFFSET, |h, p| {
        let h = fnv1a(h, &p.time.as_secs().to_bits().to_le_bytes());
        let h = fnv1a(h, &p.epoch.to_bits().to_le_bytes());
        let h = fnv1a(h, &p.rounds.to_le_bytes());
        fnv1a(h, &p.loss.to_bits().to_le_bytes())
    });
    format!(
        "{name} run={} usd={} bd={},{},{},{} cost={},{},{} ep={} loss={} acc={} \
         rounds={} reinv={} points={} curve={curve:016x}",
        hex(r.runtime().as_secs()),
        hex(r.dollars().as_usd()),
        hex(b.startup.as_secs()),
        hex(b.load.as_secs()),
        hex(b.compute.as_secs()),
        hex(b.comm.as_secs()),
        hex(c.compute.as_usd()),
        hex(c.requests.as_usd()),
        hex(c.nodes.as_usd()),
        hex(r.epochs),
        hex(r.final_loss),
        hex(r.final_accuracy),
        r.rounds,
        r.reinvocations,
        r.curve.points().len(),
    )
}

fn faas(channel: ChannelKind, pattern: Pattern, protocol: Protocol) -> Backend {
    Backend::Faas {
        spec: LambdaSpec::gb3(),
        channel,
        pattern,
        protocol,
    }
}

fn hybrid(rpc: RpcKind) -> Backend {
    Backend::Hybrid {
        spec: LambdaSpec::gb3(),
        ps: InstanceType::C5XLarge4,
        rpc,
    }
}

fn iaas(instance: InstanceType, system: SystemProfile) -> Backend {
    Backend::Iaas { instance, system }
}

fn workload(id: DatasetId, rows: usize) -> Workload {
    Workload::from_generated(&id.generate_rows(rows, 42), 42)
}

/// Every case's golden line, in table order.
fn table() -> Vec<String> {
    let higgs = workload(DatasetId::Higgs, 2_000);
    let rcv1 = workload(DatasetId::Rcv1, 2_000);
    let cifar = workload(DatasetId::Cifar10, 2_000);
    let cifar6k = workload(DatasetId::Cifar10, 6_000);

    let lr = ModelId::Lr { l2: 0.0 };
    let ga = |batch| Algorithm::GaSgd { batch };
    let cfg = |workers, algo, lr, stop: StopSpec, backend| {
        JobConfig::new(workers, algo, lr, stop).with_backend(backend)
    };
    let sgd = |backend| cfg(4, ga(50), 0.5, StopSpec::new(0.6, 3), backend);
    let admm = Algorithm::Admm {
        rho: 0.1,
        local_scans: 2,
        batch: 100,
    };
    let ma = Algorithm::MaSgd {
        batch: 50,
        local_iters: 4,
    };
    // Batch 4 over 450-row partitions for three epochs runs far past one
    // 15-minute Lambda lifetime at paper scale.
    let rollover = |backend| cfg(4, ga(4), 0.05, StopSpec::new(0.0, 3), backend);
    let s3 = |p| faas(ChannelKind::S3, p, Protocol::Sync);
    let t2 = InstanceType::T2Medium;
    let job = |wl, model, cfg| TrainingJob::new(wl, model, cfg).run();

    let cases: Vec<(&str, Result<RunResult, JobError>)> = vec![
        (
            "faas_bsp_s3_allreduce",
            job(&higgs, lr, sgd(s3(Pattern::AllReduce))),
        ),
        (
            "faas_bsp_s3_scatter_admm_rcv1",
            job(
                &rcv1,
                lr,
                cfg(
                    4,
                    admm,
                    0.3,
                    StopSpec::new(0.0, 3),
                    s3(Pattern::ScatterReduce),
                ),
            ),
        ),
        (
            "faas_bsp_memcached_scatter",
            job(
                &higgs,
                lr,
                sgd(faas(
                    ChannelKind::Memcached(CacheNode::T3Medium),
                    Pattern::ScatterReduce,
                    Protocol::Sync,
                )),
            ),
        ),
        (
            "faas_bsp_redis_masgd",
            job(
                &higgs,
                ModelId::Svm { l2: 0.01 },
                cfg(
                    4,
                    ma,
                    0.1,
                    StopSpec::new(0.0, 2),
                    faas(
                        ChannelKind::Redis(CacheNode::T3Medium),
                        Pattern::AllReduce,
                        Protocol::Sync,
                    ),
                ),
            ),
        ),
        (
            "faas_bsp_dynamodb_em",
            job(
                &higgs,
                ModelId::KMeans { k: 4 },
                cfg(
                    4,
                    Algorithm::Em,
                    0.0,
                    StopSpec::new(0.0, 5),
                    faas(ChannelKind::DynamoDb, Pattern::AllReduce, Protocol::Sync),
                ),
            ),
        ),
        (
            "faas_asp_s3",
            job(
                &higgs,
                lr,
                sgd(faas(ChannelKind::S3, Pattern::AllReduce, Protocol::Async)),
            ),
        ),
        (
            "iaas_pytorch_t2",
            job(&higgs, lr, sgd(iaas(t2, SystemProfile::PyTorch))),
        ),
        (
            "iaas_pytorch_g4dn_mobilenet",
            job(
                &cifar,
                ModelId::MobileNet,
                cfg(
                    4,
                    ga(16),
                    0.05,
                    StopSpec::new(0.0, 1),
                    iaas(InstanceType::G4dnXLarge, SystemProfile::PyTorch),
                ),
            ),
        ),
        (
            "iaas_angel_t2",
            job(
                &higgs,
                lr,
                cfg(
                    4,
                    admm,
                    0.3,
                    StopSpec::new(0.0, 3),
                    iaas(t2, SystemProfile::Angel),
                ),
            ),
        ),
        ("hybrid_grpc", job(&higgs, lr, sgd(hybrid(RpcKind::Grpc)))),
        (
            "hybrid_thrift",
            job(&higgs, lr, sgd(hybrid(RpcKind::Thrift))),
        ),
        (
            "single_c5_4xlarge",
            job(
                &higgs,
                lr,
                sgd(Backend::Single {
                    instance: InstanceType::C5XLarge4,
                }),
            ),
        ),
        (
            "faas_bsp_rollover_mobilenet",
            job(&cifar, ModelId::MobileNet, rollover(s3(Pattern::AllReduce))),
        ),
        (
            "hybrid_rollover_mobilenet",
            job(&cifar, ModelId::MobileNet, rollover(hybrid(RpcKind::Grpc))),
        ),
        (
            "err_dynamodb_refuses_mobilenet",
            job(
                &cifar6k,
                ModelId::MobileNet,
                cfg(
                    4,
                    ga(13),
                    0.05,
                    StopSpec::new(0.2, 1),
                    faas(ChannelKind::DynamoDb, Pattern::AllReduce, Protocol::Sync),
                ),
            ),
        ),
        (
            "err_resnet50_batch64_lambda_oom",
            job(
                &cifar6k,
                ModelId::ResNet50,
                cfg(
                    4,
                    ga(6),
                    0.05,
                    StopSpec::new(0.4, 1),
                    s3(Pattern::AllReduce),
                ),
            ),
        ),
        (
            "err_iaas_t2_one_worker_oom",
            job(
                &higgs,
                lr,
                cfg(
                    1,
                    ga(50),
                    0.5,
                    StopSpec::new(0.6, 1),
                    iaas(t2, SystemProfile::PyTorch),
                ),
            ),
        ),
        (
            "err_single_t2_oom",
            job(&higgs, lr, sgd(Backend::Single { instance: t2 })),
        ),
    ];
    cases.into_iter().map(|(n, r)| line(n, r)).collect()
}

#[test]
fn every_executor_path_matches_the_golden_table() {
    let actual = table();
    let expected: Vec<&str> = GOLDEN.lines().collect();
    let moved: Vec<String> = actual
        .iter()
        .enumerate()
        .filter(|(i, a)| expected.get(*i) != Some(&a.as_str()))
        .map(|(_, a)| format!("  {a}"))
        .collect();
    assert!(
        moved.is_empty() && expected.len() == actual.len(),
        "{} of {} executor lines moved (golden has {}):\n{}\n\nnew table:\n{}\n",
        moved.len(),
        actual.len(),
        expected.len(),
        moved.join("\n"),
        actual.join("\n"),
    );
}

#[test]
fn the_table_covers_rollovers_and_every_error_kind() {
    let rollovers = |name: &str| {
        GOLDEN
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split(" reinv=").nth(1))
            .and_then(|t| t.split(' ').next())
            .and_then(|n| n.parse::<u32>().ok())
    };
    for name in ["faas_bsp_rollover_mobilenet", "hybrid_rollover_mobilenet"] {
        assert!(rollovers(name) > Some(0), "{name} must roll over");
    }
    let errors = GOLDEN.lines().filter(|l| l.contains(" err ")).count();
    assert_eq!(errors, 4);
}
