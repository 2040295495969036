//! Clock domains and cycle accounting.
//!
//! FLEX runs its PEs at 285 MHz. The SACS memory tables (LCT, LCPT, CST, LSC) sit in a second
//! clock domain at twice that frequency (Sec. 4.3.2); `flex-core`'s SACS model folds that
//! domain into its stall divisor, so the only conversion the estimate needs is PE cycles to
//! time.

use std::ops::{Add, AddAssign};
use std::time::Duration;

/// A number of clock cycles in some domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// The raw cycle count.
    pub fn count(&self) -> u64 {
        self.0
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl std::iter::Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        Cycles(iter.map(|c| c.0).sum())
    }
}

/// A clock domain characterized by its frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockDomain {
    /// Frequency in MHz.
    pub freq_mhz: f64,
}

impl ClockDomain {
    /// The 285 MHz PE clock used in the paper's evaluation.
    pub const FLEX_PE: ClockDomain = ClockDomain { freq_mhz: 285.0 };

    /// Period of one cycle in nanoseconds.
    pub fn period_ns(&self) -> f64 {
        1000.0 / self.freq_mhz
    }

    /// Convert cycles in this domain to wall-clock time.
    pub fn to_duration(&self, cycles: Cycles) -> Duration {
        Duration::from_secs_f64(cycles.0 as f64 * self.period_ns() * 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let a = Cycles(10) + Cycles(5);
        assert_eq!(a, Cycles(15));
        let mut b = Cycles(3);
        b += Cycles(4);
        assert_eq!(b.count(), 7);
        assert_eq!(Cycles(3).max(Cycles(9)), Cycles(9));
        let total: Cycles = [Cycles(1), Cycles(2), Cycles(3)].into_iter().sum();
        assert_eq!(total, Cycles(6));
    }

    #[test]
    fn flex_pe_clock_period() {
        let pe = ClockDomain::FLEX_PE;
        assert!((pe.period_ns() - 3.508).abs() < 0.01);
        let d = pe.to_duration(Cycles(285_000_000));
        assert!((d.as_secs_f64() - 1.0).abs() < 1e-9);
    }
}
