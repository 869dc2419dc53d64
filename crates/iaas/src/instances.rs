//! The EC2 instance catalogue.
//!
//! Covers every instance family the paper tunes over (§5.1: t2 and c5
//! families for CPU, g3/g4 for GPU, plus the m5a host of the hot-data
//! what-if). Network numbers follow Table 6; prices are the on-demand rates
//! quoted at evaluation time.

use lml_sim::{ByteSize, Cost, Link};

/// A GPU attached to an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuKind {
    /// NVIDIA M60 (g3 family).
    M60,
    /// NVIDIA T4 (g4 family) — the paper's Figure 12: ~15% faster and 30%
    /// cheaper than M60 for MobileNet.
    T4,
}

impl GpuKind {
    /// Effective deep-model training throughput (FLOP/s) including data
    /// loading overheads, calibrated so Figure 12's relations hold (T4 ≈ 8×
    /// the best FaaS configuration, ~15% end-to-end faster than M60).
    pub fn effective_flops(self) -> f64 {
        match self {
            GpuKind::M60 => 6.0e11,
            GpuKind::T4 => 7.5e11,
        }
    }
}

/// EC2 instance types used anywhere in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstanceType {
    T2Medium,
    T2XLarge2,
    C5Large,
    C5XLarge2,
    C5XLarge4,
    M5a12XLarge,
    G3sXLarge,
    G4dnXLarge,
}

impl InstanceType {
    pub fn name(self) -> &'static str {
        match self {
            InstanceType::T2Medium => "t2.medium",
            InstanceType::T2XLarge2 => "t2.2xlarge",
            InstanceType::C5Large => "c5.large",
            InstanceType::C5XLarge2 => "c5.2xlarge",
            InstanceType::C5XLarge4 => "c5.4xlarge",
            InstanceType::M5a12XLarge => "m5a.12xlarge",
            InstanceType::G3sXLarge => "g3s.xlarge",
            InstanceType::G4dnXLarge => "g4dn.xlarge",
        }
    }

    pub fn vcpus(self) -> u32 {
        match self {
            InstanceType::T2Medium => 2,
            InstanceType::T2XLarge2 => 8,
            InstanceType::C5Large => 2,
            InstanceType::C5XLarge2 => 8,
            InstanceType::C5XLarge4 => 16,
            InstanceType::M5a12XLarge => 48,
            InstanceType::G3sXLarge => 4,
            InstanceType::G4dnXLarge => 4,
        }
    }

    pub fn memory(self) -> ByteSize {
        match self {
            InstanceType::T2Medium => ByteSize::gb(4.0),
            InstanceType::T2XLarge2 => ByteSize::gb(32.0),
            InstanceType::C5Large => ByteSize::gb(4.0),
            InstanceType::C5XLarge2 => ByteSize::gb(16.0),
            InstanceType::C5XLarge4 => ByteSize::gb(32.0),
            InstanceType::M5a12XLarge => ByteSize::gb(192.0),
            InstanceType::G3sXLarge => ByteSize::gb(30.5),
            InstanceType::G4dnXLarge => ByteSize::gb(16.0),
        }
    }

    /// On-demand hourly price (us-east-1, paper era).
    pub const fn hourly(self) -> Cost {
        let usd = match self {
            InstanceType::T2Medium => 0.0464,
            InstanceType::T2XLarge2 => 0.3712,
            InstanceType::C5Large => 0.085,
            InstanceType::C5XLarge2 => 0.34,
            InstanceType::C5XLarge4 => 0.68,
            InstanceType::M5a12XLarge => 2.064,
            InstanceType::G3sXLarge => 0.75,
            InstanceType::G4dnXLarge => 0.526,
        };
        Cost::usd(usd)
    }

    /// VM-to-VM link between two instances of this type (Table 6 `B_n`,
    /// `L_n`; "10Gbps for c5.4xlarge" from §4.3).
    pub fn vm_link(self) -> Link {
        match self {
            InstanceType::T2Medium | InstanceType::T2XLarge2 => Link::mbps(120.0, 5e-4),
            InstanceType::C5Large => Link::mbps(225.0, 1.5e-4),
            InstanceType::C5XLarge2 => Link::mbps(600.0, 1.5e-4),
            InstanceType::C5XLarge4 => Link::mbps(1_250.0, 1.5e-4),
            InstanceType::M5a12XLarge => Link::mbps(1_250.0, 1.5e-4),
            InstanceType::G3sXLarge | InstanceType::G4dnXLarge => Link::mbps(1_250.0, 2e-4),
        }
    }

    pub fn gpu(self) -> Option<GpuKind> {
        match self {
            InstanceType::G3sXLarge => Some(GpuKind::M60),
            InstanceType::G4dnXLarge => Some(GpuKind::T4),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_covers_paper_families() {
        assert_eq!(InstanceType::T2Medium.hourly(), Cost::usd(0.0464));
        assert_eq!(InstanceType::C5XLarge4.vcpus(), 16);
        assert_eq!(InstanceType::G3sXLarge.hourly(), Cost::usd(0.75));
        assert_eq!(InstanceType::G3sXLarge.gpu(), Some(GpuKind::M60));
        assert_eq!(InstanceType::G4dnXLarge.gpu(), Some(GpuKind::T4));
        assert_eq!(InstanceType::T2Medium.gpu(), None);
    }

    #[test]
    fn network_matches_table6() {
        let t2 = InstanceType::T2Medium.vm_link();
        assert_eq!(t2.bandwidth_bps, 120e6);
        assert_eq!(t2.latency_s, 5e-4);
        let c5 = InstanceType::C5Large.vm_link();
        assert_eq!(c5.bandwidth_bps, 225e6);
        // c5.4xlarge: "10Gbps" (§4.3)
        assert_eq!(InstanceType::C5XLarge4.vm_link().bandwidth_bps, 1_250e6);
    }

    #[test]
    fn t4_beats_m60_per_dollar_and_speed() {
        let m60 = GpuKind::M60;
        let t4 = GpuKind::T4;
        assert!(t4.effective_flops() > m60.effective_flops());
        assert!(InstanceType::G4dnXLarge.hourly() < InstanceType::G3sXLarge.hourly());
    }

    #[test]
    fn all_names_unique() {
        const ALL: [InstanceType; 8] = [
            InstanceType::T2Medium,
            InstanceType::T2XLarge2,
            InstanceType::C5Large,
            InstanceType::C5XLarge2,
            InstanceType::C5XLarge4,
            InstanceType::M5a12XLarge,
            InstanceType::G3sXLarge,
            InstanceType::G4dnXLarge,
        ];
        let mut names: Vec<&str> = ALL.iter().map(|i| i.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL.len());
    }
}
