//! Per-service constants (§4.3, Table 6, AWS price list as quoted by the
//! paper).
//!
//! The channel-time model follows the structure of the paper's own
//! analytical model (§5.3): a storage operation of `m` bytes costs
//! `L + m/B`. The per-service differences are:
//!
//! * `latency` / `stream_bw` — Table 6's `(L, B)` pairs;
//! * `concurrency` — how many operations the service progresses at once
//!   (Memcached is multi-threaded, Redis's event loop serializes request
//!   processing, S3/DynamoDB scale out);
//! * `node_bw` — the cache node's NIC ceiling shared by concurrent streams;
//! * `startup` — ElastiCache nodes take ~2 minutes to boot, S3/DynamoDB are
//!   always-on (§4.3's decisive observation for fast-converging jobs);
//! * billing — per-request (S3), per-KB units (DynamoDB) or node-hours
//!   (ElastiCache);
//! * `max_item` — DynamoDB rejects items over 400 KB (Table 1's "N/A" for
//!   MobileNet).

use lml_sim::{ByteSize, Cost, SimTime};

/// Which cloud service a profile models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceKind {
    S3,
    Memcached,
    Redis,
    DynamoDb,
}

impl ServiceKind {
    pub fn name(self) -> &'static str {
        match self {
            ServiceKind::S3 => "S3",
            ServiceKind::Memcached => "Memcached",
            ServiceKind::Redis => "Redis",
            ServiceKind::DynamoDb => "DynamoDB",
        }
    }
}

/// ElastiCache node types used in the paper (Table 6 and §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheNode {
    /// cache.t3.small — $0.034/h (the node the end-to-end runs rent).
    T3Small,
    /// cache.t3.medium — 630 MB/s measured (Table 6).
    T3Medium,
    /// cache.m5.large — 1260 MB/s measured (Table 6).
    M5Large,
}

impl CacheNode {
    /// Single-stream bandwidth in bytes/s (Table 6 B_EC).
    pub fn stream_bw(self) -> f64 {
        match self {
            CacheNode::T3Small => 400e6,
            CacheNode::T3Medium => 630e6,
            CacheNode::M5Large => 1_260e6,
        }
    }

    /// Hourly node price.
    pub fn hourly(self) -> Cost {
        match self {
            CacheNode::T3Small => Cost::usd(0.034),
            CacheNode::T3Medium => Cost::usd(0.068),
            CacheNode::M5Large => Cost::usd(0.156),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            CacheNode::T3Small => "cache.t3.small",
            CacheNode::T3Medium => "cache.t3.medium",
            CacheNode::M5Large => "cache.m5.large",
        }
    }
}

/// Request billing: `per_request + per_kb_unit × ceil(bytes / unit)`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RequestPrice {
    pub per_request: Cost,
    pub per_unit: Cost,
    /// Billing unit in bytes (DynamoDB: 1 KB writes / 4 KB reads).
    pub unit_bytes: u64,
}

impl RequestPrice {
    const FREE: RequestPrice = RequestPrice {
        per_request: Cost(0.0),
        per_unit: Cost(0.0),
        unit_bytes: 0,
    };

    pub fn flat(per_request: Cost) -> Self {
        RequestPrice {
            per_request,
            per_unit: Cost::ZERO,
            unit_bytes: 0,
        }
    }

    fn per_unit(per_unit: Cost, unit_bytes: u64) -> Self {
        RequestPrice {
            per_request: Cost::ZERO,
            per_unit,
            unit_bytes,
        }
    }

    /// Price of one request of the given size.
    pub fn price(&self, bytes: ByteSize) -> Cost {
        let mut c = self.per_request;
        if self.unit_bytes > 0 {
            let units = bytes.as_bytes().div_ceil(self.unit_bytes).max(1);
            c += self.per_unit * units as f64;
        }
        c
    }
}

/// Full description of a storage service's behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceProfile {
    pub kind: ServiceKind,
    pub label: String,
    /// Per-operation latency (Table 6 L).
    pub latency: SimTime,
    /// Single-stream bandwidth, bytes/s (Table 6 B).
    pub stream_bw: f64,
    /// Aggregate NIC ceiling across concurrent streams, bytes/s.
    pub node_bw: f64,
    /// Operations the service progresses concurrently.
    pub concurrency: usize,
    /// Time to provision the service before first use.
    pub startup: SimTime,
    /// Node-hour price (ElastiCache); zero for serverless stores.
    pub hourly: Cost,
    pub put_price: RequestPrice,
    pub get_price: RequestPrice,
    /// Maximum item size, if the service enforces one.
    pub max_item: Option<ByteSize>,
}

impl ServiceProfile {
    /// Amazon S3: always-on, 80 ms latency, 65 MB/s per stream, elastic
    /// scale-out, $0.005/1000 PUT|LIST and $0.0004/1000 GET.
    pub fn s3() -> Self {
        ServiceProfile {
            kind: ServiceKind::S3,
            label: "S3".into(),
            latency: SimTime::secs(0.08),
            stream_bw: 65e6,
            node_bw: f64::INFINITY,
            concurrency: 1_000_000,
            startup: SimTime::ZERO,
            hourly: Cost::ZERO,
            put_price: RequestPrice::flat(Cost::usd(5e-6)),
            get_price: RequestPrice::flat(Cost::usd(4e-7)),
            max_item: None,
        }
    }

    /// ElastiCache for Memcached on the given node: ~140 s provisioning
    /// ("it takes more than two minutes to start Memcached", §4.3),
    /// multi-threaded service loop.
    pub fn memcached(node: CacheNode) -> Self {
        ServiceProfile {
            kind: ServiceKind::Memcached,
            label: format!("Memcached/{}", node.name()),
            latency: SimTime::secs(0.01),
            stream_bw: node.stream_bw(),
            node_bw: node.stream_bw(),
            concurrency: 8,
            startup: SimTime::secs(140.0),
            hourly: node.hourly(),
            put_price: RequestPrice::FREE,
            get_price: RequestPrice::FREE,
            max_item: None,
        }
    }

    /// ElastiCache for Redis: same node characteristics as Memcached but a
    /// single-threaded event loop — requests serialize (§4.3: "Redis is
    /// inferior to Memcached \[for\] a large model or a big cluster").
    pub fn redis(node: CacheNode) -> Self {
        ServiceProfile {
            kind: ServiceKind::Redis,
            label: format!("Redis/{}", node.name()),
            concurrency: 1,
            ..Self::memcached(node)
        }
    }

    /// DynamoDB: always-on key-value database, 400 KB item cap, on-demand
    /// per-unit billing ($1.25/M write units of 1 KB, $0.25/M read units of
    /// 4 KB).
    pub fn dynamodb() -> Self {
        ServiceProfile {
            kind: ServiceKind::DynamoDb,
            label: "DynamoDB".into(),
            latency: SimTime::secs(0.03),
            stream_bw: 35e6,
            node_bw: f64::INFINITY,
            concurrency: 1_000_000,
            startup: SimTime::ZERO,
            hourly: Cost::ZERO,
            put_price: RequestPrice::per_unit(Cost::usd(1.25e-6), 1_000),
            get_price: RequestPrice::per_unit(Cost::usd(0.25e-6), 4_000),
            max_item: Some(ByteSize::kb(400.0)),
        }
    }

    /// Fits an item of this size?
    pub fn admits(&self, bytes: ByteSize) -> bool {
        self.max_item.is_none_or(|cap| bytes <= cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn s3_matches_table6() {
        let p = ServiceProfile::s3();
        assert_eq!(p.latency, SimTime::secs(0.08));
        assert_eq!(p.stream_bw, 65e6);
        assert_eq!(p.startup, SimTime::ZERO);
    }

    #[test]
    fn elasticache_nodes_match_table6() {
        let t3 = ServiceProfile::memcached(CacheNode::T3Medium);
        assert_eq!(t3.stream_bw, 630e6);
        assert_eq!(t3.latency, SimTime::secs(0.01));
        let m5 = ServiceProfile::memcached(CacheNode::M5Large);
        assert_eq!(m5.stream_bw, 1_260e6);
        assert!(t3.startup.as_secs() > 100.0, "ElastiCache has a boot delay");
    }

    #[test]
    fn redis_is_single_threaded_memcached() {
        let mc = ServiceProfile::memcached(CacheNode::T3Medium);
        let rd = ServiceProfile::redis(CacheNode::T3Medium);
        assert_eq!(rd.concurrency, 1);
        assert_eq!(rd.stream_bw, mc.stream_bw);
        assert_eq!(rd.startup, mc.startup);
    }

    #[test]
    fn dynamodb_enforces_item_cap() {
        let dd = ServiceProfile::dynamodb();
        assert!(dd.admits(ByteSize::kb(399.0)));
        assert!(
            !dd.admits(ByteSize::mb(12.0)),
            "MobileNet does not fit (Table 1 N/A)"
        );
        assert!(ServiceProfile::s3().admits(ByteSize::gb(5.0)));
    }

    #[test]
    fn dynamodb_write_units_round_up() {
        let dd = ServiceProfile::dynamodb();
        // 224 B LR model = 1 write unit
        assert!((dd.put_price.price(ByteSize::bytes(224)).as_usd() - 1.25e-6).abs() < 1e-12);
        // 232 KB KMeans stats = 232 units
        let c = dd.put_price.price(ByteSize::kb(232.0)).as_usd();
        assert!((c - 232.0 * 1.25e-6).abs() < 1e-9);
    }

    #[test]
    fn s3_request_pricing_is_flat() {
        let s3 = ServiceProfile::s3();
        assert_eq!(s3.put_price.price(ByteSize::gb(1.0)), Cost::usd(5e-6));
        assert_eq!(s3.get_price.price(ByteSize::bytes(1)), Cost::usd(4e-7));
    }
}
