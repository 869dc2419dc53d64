//! Byte quantities.
//!
//! Wire sizes drive every communication-time computation in the simulator.
//! [`ByteSize`] uses decimal MB/GB (as AWS pricing and the paper do).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A number of bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Hash)]
pub struct ByteSize(pub u64);

impl ByteSize {
    pub const ZERO: ByteSize = ByteSize(0);

    pub fn bytes(b: u64) -> Self {
        ByteSize(b)
    }

    pub fn kb(k: f64) -> Self {
        ByteSize((k * 1e3) as u64)
    }

    pub fn mb(m: f64) -> Self {
        ByteSize((m * 1e6) as u64)
    }

    pub fn gb(g: f64) -> Self {
        ByteSize((g * 1e9) as u64)
    }

    pub fn as_bytes(self) -> u64 {
        self.0
    }

    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Size of `n` f64 values on the wire (8 bytes each) — the default model
    /// payload encoding used throughout.
    pub fn of_f64s(n: usize) -> Self {
        ByteSize((n as u64) * 8)
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for ByteSize {
    type Output = ByteSize;
    fn mul(self, k: u64) -> ByteSize {
        ByteSize(self.0 * k)
    }
}

impl Div<u64> for ByteSize {
    type Output = ByteSize;
    fn div(self, k: u64) -> ByteSize {
        ByteSize(self.0 / k)
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        ByteSize(iter.map(|b| b.0).sum())
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if b >= 1e9 {
            write!(f, "{:.2}GB", b / 1e9)
        } else if b >= 1e6 {
            write!(f, "{:.1}MB", b / 1e6)
        } else if b >= 1e3 {
            write!(f, "{:.1}KB", b / 1e3)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(ByteSize::kb(1.0), ByteSize(1_000));
        assert_eq!(ByteSize::mb(12.0), ByteSize(12_000_000));
        assert_eq!(ByteSize::gb(1.5), ByteSize(1_500_000_000));
        assert_eq!(ByteSize::of_f64s(28), ByteSize(224)); // the paper's LR-on-Higgs model size
    }

    #[test]
    fn arithmetic_and_saturation() {
        assert_eq!(ByteSize(5) + ByteSize(3), ByteSize(8));
        assert_eq!(ByteSize(5) - ByteSize(8), ByteSize::ZERO);
        assert_eq!(ByteSize(5) * 2, ByteSize(10));
        assert_eq!(ByteSize(10) / 4, ByteSize(2));
    }

    #[test]
    fn display_units() {
        assert_eq!(ByteSize(224).to_string(), "224B");
        assert_eq!(ByteSize::kb(2.0).to_string(), "2.0KB");
        assert_eq!(ByteSize::mb(89.0).to_string(), "89.0MB");
        assert_eq!(ByteSize::gb(8.0).to_string(), "8.00GB");
    }

    #[test]
    fn sum_iterator() {
        let total: ByteSize = (0..3).map(|_| ByteSize::mb(1.0)).sum();
        assert_eq!(total, ByteSize::mb(3.0));
    }
}
