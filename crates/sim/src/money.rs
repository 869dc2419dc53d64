//! Dollar accounting.
//!
//! The paper's second axis is cost in dollars; [`Cost`] is the newtype all
//! billing flows through (Lambda GB-seconds, EC2 instance-hours, storage
//! requests, cache-node hours).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An amount of money in USD.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Cost(pub f64);

impl Cost {
    pub const ZERO: Cost = Cost(0.0);

    /// Construct from dollars.
    pub const fn usd(d: f64) -> Self {
        Cost(d)
    }

    /// Value in dollars.
    pub const fn as_usd(self) -> f64 {
        self.0
    }
}

impl Add for Cost {
    type Output = Cost;
    fn add(self, rhs: Cost) -> Cost {
        Cost(self.0 + rhs.0)
    }
}

impl AddAssign for Cost {
    fn add_assign(&mut self, rhs: Cost) {
        self.0 += rhs.0;
    }
}

impl Sub for Cost {
    type Output = Cost;
    fn sub(self, rhs: Cost) -> Cost {
        Cost(self.0 - rhs.0)
    }
}

impl Mul<f64> for Cost {
    type Output = Cost;
    fn mul(self, k: f64) -> Cost {
        Cost(self.0 * k)
    }
}

impl Div<Cost> for Cost {
    type Output = f64;
    fn div(self, rhs: Cost) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Cost {
    fn sum<I: Iterator<Item = Cost>>(iter: I) -> Cost {
        // f64's sum identity is -0.0; normalize so an empty sum is ZERO
        // (and doesn't print as "$-0.00").
        Cost(iter.map(|c| c.0).sum::<f64>() + 0.0)
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Exact-zero is a display special case. lml-analyze: allow(float-eq)
        if self.0.abs() < 0.01 && self.0 != 0.0 {
            write!(f, "${:.4}", self.0)
        } else {
            write!(f, "${:.2}", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let c = Cost::usd(1.5) + Cost::usd(0.5);
        assert_eq!(c, Cost::usd(2.0));
        assert_eq!(c * 3.0, Cost::usd(6.0));
        assert_eq!(Cost::usd(4.0) / Cost::usd(2.0), 2.0);
    }

    #[test]
    fn sum_iterator() {
        let total: Cost = (0..4).map(|_| Cost::usd(0.25)).sum();
        assert_eq!(total, Cost::usd(1.0));
    }

    #[test]
    fn display_small_amounts_get_more_digits() {
        assert_eq!(Cost::usd(0.0042).to_string(), "$0.0042");
        assert_eq!(Cost::usd(3.17159).to_string(), "$3.17");
        assert_eq!(Cost::ZERO.to_string(), "$0.00");
    }
}
