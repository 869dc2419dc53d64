//! Job configuration — the design space of §3.
//!
//! A [`JobConfig`] fixes one point in the paper's four-dimensional design
//! space (algorithm × channel × pattern × protocol) plus the infrastructure
//! choice (backend, worker count) and training hyper-parameters.

use lml_comm::Pattern;
use lml_faas::LambdaSpec;
use lml_iaas::{InstanceType, RpcKind, SystemProfile};
use lml_optim::{Algorithm, LrSchedule, StopSpec};
use lml_storage::{CacheNode, ServiceProfile};

/// Which storage service carries intermediate state (§3.2.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChannelKind {
    S3,
    Memcached(CacheNode),
    Redis(CacheNode),
    DynamoDb,
}

impl ChannelKind {
    pub fn profile(self) -> ServiceProfile {
        match self {
            ChannelKind::S3 => ServiceProfile::s3(),
            ChannelKind::Memcached(node) => ServiceProfile::memcached(node),
            ChannelKind::Redis(node) => ServiceProfile::redis(node),
            ChannelKind::DynamoDb => ServiceProfile::dynamodb(),
        }
    }

    pub(crate) fn name(self) -> &'static str {
        match self {
            ChannelKind::S3 => "S3",
            ChannelKind::Memcached(_) => "Memcached",
            ChannelKind::Redis(_) => "Redis",
            ChannelKind::DynamoDb => "DynamoDB",
        }
    }
}

/// Synchronization protocol (§3.2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Bulk-synchronous: the two-phase merge/update protocol.
    Sync,
    /// S-ASP: global model on storage, workers never wait.
    Async,
}

/// The infrastructure running the job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backend {
    /// Pure FaaS (LambdaML): Lambda workers + storage channel.
    Faas {
        spec: LambdaSpec,
        channel: ChannelKind,
        pattern: Pattern,
        protocol: Protocol,
    },
    /// IaaS: an EC2 cluster running a serverful system (PyTorch or Angel).
    Iaas {
        instance: InstanceType,
        system: SystemProfile,
    },
    /// Hybrid (Cirrus-style): Lambda workers + a VM parameter server.
    Hybrid {
        spec: LambdaSpec,
        ps: InstanceType,
        rpc: RpcKind,
    },
    /// Single machine (the COST sanity check of §5.1.1).
    Single { instance: InstanceType },
}

impl Backend {
    /// The paper's default pure-FaaS setup: 3 GB functions, S3 channel,
    /// AllReduce, synchronous.
    pub fn faas_default() -> Backend {
        Backend::Faas {
            spec: LambdaSpec::gb3(),
            channel: ChannelKind::S3,
            pattern: Pattern::AllReduce,
            protocol: Protocol::Sync,
        }
    }

    /// The paper's default IaaS setup: distributed PyTorch on t2.medium.
    pub fn iaas_default() -> Backend {
        Backend::Iaas {
            instance: InstanceType::T2Medium,
            system: SystemProfile::PyTorch,
        }
    }

    /// The hybrid baseline as evaluated: gRPC against a c5.4xlarge PS.
    pub fn hybrid_default() -> Backend {
        Backend::Hybrid {
            spec: LambdaSpec::gb3(),
            ps: InstanceType::C5XLarge4,
            rpc: RpcKind::Grpc,
        }
    }

    pub fn name(&self) -> String {
        match self {
            Backend::Faas { channel, .. } => format!("FaaS/{}", channel.name()),
            Backend::Iaas { instance, system } => {
                format!("{}/{}", system.name(), instance.name())
            }
            Backend::Hybrid { rpc, ps, .. } => format!("HybridPS/{}/{}", rpc.name(), ps.name()),
            Backend::Single { instance } => format!("Single/{}", instance.name()),
        }
    }
}

/// Everything a training job needs besides the data and the model.
#[derive(Debug, Clone, Copy)]
pub struct JobConfig {
    pub workers: usize,
    pub algorithm: Algorithm,
    pub lr: LrSchedule,
    pub stop: StopSpec,
    pub backend: Backend,
    pub seed: u64,
}

impl JobConfig {
    pub fn new(workers: usize, algorithm: Algorithm, lr: f64, stop: StopSpec) -> Self {
        JobConfig {
            workers,
            algorithm,
            lr: LrSchedule::Const(lr),
            stop,
            backend: Backend::faas_default(),
            seed: 42,
        }
    }

    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    pub fn with_schedule(mut self, lr: LrSchedule) -> Self {
        self.lr = lr;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Evaluate validation loss every this many communication rounds for a
    /// partition of `partition_len` rows: ~4 evaluations per epoch, at
    /// least every round for round-per-epoch algorithms.
    pub fn resolved_eval_every(&self, partition_len: usize) -> usize {
        let per_epoch = self.algorithm.rounds_per_epoch(partition_len);
        ((per_epoch / 4.0).floor() as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lml_optim::Algorithm;

    #[test]
    fn channel_profiles_resolve() {
        assert_eq!(ChannelKind::S3.profile().kind, lml_storage::ServiceKind::S3);
        assert_eq!(
            ChannelKind::Redis(CacheNode::T3Medium).profile().kind,
            lml_storage::ServiceKind::Redis
        );
        assert!(ChannelKind::DynamoDb.profile().max_item.is_some());
    }

    #[test]
    fn backend_names_are_descriptive() {
        assert_eq!(Backend::faas_default().name(), "FaaS/S3");
        assert_eq!(Backend::iaas_default().name(), "PyTorch/t2.medium");
        assert!(Backend::hybrid_default().name().contains("gRPC"));
    }

    #[test]
    fn eval_cadence_auto_resolves() {
        let cfg = JobConfig::new(
            4,
            Algorithm::GaSgd { batch: 100 },
            0.1,
            StopSpec::new(0.5, 10),
        );
        // 1000-row partition, batch 100 → 10 rounds/epoch → eval every 2
        assert_eq!(cfg.resolved_eval_every(1_000), 2);
        // EM: 1 round/epoch → every round
        let em = JobConfig::new(4, Algorithm::Em, 0.0, StopSpec::new(0.5, 10));
        assert_eq!(em.resolved_eval_every(1_000), 1);
    }
}
