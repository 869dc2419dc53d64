//! Lambda function specifications, memory limits, and billing.

use lml_sim::{ByteSize, Cost, SimTime};

/// Lambda per-GB-second price (AWS, as at the paper's evaluation).
pub const PRICE_PER_GB_SECOND: f64 = 1.66667e-5;

/// Memory of the paper's standard worker ([`LambdaSpec::gb3`]) in GB, the
/// unit [`PRICE_PER_GB_SECOND`] bills.
pub const FUNCTION_GB: f64 = 3.008;

/// Errors raised by the FaaS runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum FaasError {
    /// The function's working set exceeds its memory. The paper hits this
    /// when training ResNet50 with batch size 64 (§5.2: "FaaS encounters an
    /// out-of-memory error").
    OutOfMemory { required: ByteSize, limit: ByteSize },
    /// Requested memory outside the service's 128 to 3,008 MB range.
    InvalidMemory { requested_mb: u32 },
}

impl std::fmt::Display for FaasError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaasError::OutOfMemory { required, limit } => {
                write!(f, "function needs {required} but is limited to {limit}")
            }
            FaasError::InvalidMemory { requested_mb } => write!(
                f,
                "a Lambda function has 128 to {} MB, not {requested_mb} MB",
                LambdaSpec::MAX_MEMORY_MB
            ),
        }
    }
}

impl std::error::Error for FaasError {}

/// One Lambda function's resource configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LambdaSpec {
    pub memory_mb: u32,
}

impl LambdaSpec {
    /// The paper-era memory ceiling ("up to 3GB of memory", §2.2).
    const MAX_MEMORY_MB: u32 = 3_008;
    /// Hard execution-time limit ("must finish within 15 minutes").
    pub(crate) const LIFETIME: SimTime = SimTime(900.0);

    /// A function with the given memory; errors outside 128 to 3,008 MB.
    pub fn with_memory_mb(memory_mb: u32) -> Result<Self, FaasError> {
        if !(128..=Self::MAX_MEMORY_MB).contains(&memory_mb) {
            return Err(FaasError::InvalidMemory {
                requested_mb: memory_mb,
            });
        }
        Ok(LambdaSpec { memory_mb })
    }

    /// The paper's standard worker: a 3 GB function.
    pub fn gb3() -> Self {
        LambdaSpec { memory_mb: 3_008 }
    }

    fn memory(&self) -> ByteSize {
        ByteSize::mb(self.memory_mb as f64)
    }

    /// Fractional vCPU share: memory-proportional, 3 GB ≈ 1.8 vCPU and
    /// 1 GB ≈ 0.6 vCPU (Table 2's configurations).
    pub fn vcpus(&self) -> f64 {
        1.8 * self.memory_mb as f64 / 3_008.0
    }

    /// Verify a working set fits this function's memory.
    pub fn check_memory(&self, required: ByteSize) -> Result<(), FaasError> {
        if required > self.memory() {
            Err(FaasError::OutOfMemory {
                required,
                limit: self.memory(),
            })
        } else {
            Ok(())
        }
    }
}

/// GB-second execution meter across a fleet of functions.
#[derive(Debug, Clone, Copy, Default)]
pub struct GbSecondsMeter {
    gb_seconds: f64,
}

impl GbSecondsMeter {
    pub fn new() -> Self {
        GbSecondsMeter::default()
    }

    /// Record `duration` of execution on one function of `spec`.
    pub fn charge(&mut self, spec: LambdaSpec, duration: SimTime) {
        debug_assert!(duration.is_valid());
        self.gb_seconds += spec.memory_mb as f64 / 1_000.0 * duration.as_secs();
    }

    pub fn cost(&self) -> Cost {
        Cost::usd(self.gb_seconds * PRICE_PER_GB_SECOND)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vcpu_scaling_matches_table2() {
        assert!((LambdaSpec::gb3().vcpus() - 1.8).abs() < 1e-12);
        assert!((LambdaSpec { memory_mb: 1_024 }.vcpus() - 0.6127).abs() < 0.02);
    }

    #[test]
    fn memory_bounds_enforced() {
        assert!(LambdaSpec::with_memory_mb(64).is_err());
        assert!(LambdaSpec::with_memory_mb(4_096).is_err());
        assert!(LambdaSpec::with_memory_mb(1_536).is_ok());
    }

    #[test]
    fn oom_detection() {
        let f = LambdaSpec::gb3();
        assert!(f.check_memory(ByteSize::gb(2.9)).is_ok());
        match f.check_memory(ByteSize::gb(3.5)) {
            Err(FaasError::OutOfMemory { required, .. }) => {
                assert_eq!(required, ByteSize::gb(3.5));
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn billing_is_gb_seconds() {
        let mut meter = GbSecondsMeter::new();
        // 10 workers × 3 GB × 100 s = 3008/1000 × 1000 = 3008 GB-s
        for _ in 0..10 {
            meter.charge(LambdaSpec::gb3(), SimTime::secs(100.0));
        }
        assert!((meter.gb_seconds - 3_008.0).abs() < 1e-9);
        let expected = 3_008.0 * PRICE_PER_GB_SECOND;
        assert!((meter.cost().as_usd() - expected).abs() < 1e-9);
    }

    #[test]
    fn lifetime_is_15_minutes() {
        assert_eq!(LambdaSpec::LIFETIME, SimTime::minutes(15.0));
    }
}
