//! FPGA resource accounting (LUTs, FFs, BRAMs, DSPs) against the Alveo U50 budget.
//!
//! Table 2 of the paper reports the consumption of the whole FLEX design for one and two FOP
//! PEs; this module reproduces that accounting and lets the scalability analysis of Sec. 5.4
//! ask "how many PEs fit before BRAM becomes the bound?".

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Mul};

/// A bundle of FPGA resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Resources {
    /// Look-up tables.
    pub luts: u64,
    /// Flip-flops.
    pub ffs: u64,
    /// Block RAMs (36 Kb).
    pub brams: u64,
    /// DSP slices.
    pub dsps: u64,
}

/// The available resources of the AMD Alveo U50 used in the paper (Table 2, "Available").
pub const ALVEO_U50: Resources = Resources {
    luts: 871_680,
    ffs: 1_743_360,
    brams: 1_344,
    dsps: 5_952,
};

/// FLEX resource consumption with a single FOP PE (Table 2, row 1).
pub const FLEX_ONE_PE: Resources = Resources {
    luts: 59_837,
    ffs: 67_326,
    brams: 391,
    dsps: 8,
};

/// FLEX resource consumption with two parallel FOP PEs (Table 2, row 2).
pub const FLEX_TWO_PE: Resources = Resources {
    luts: 86_632,
    ffs: 91_603,
    brams: 738,
    dsps: 12,
};

impl Resources {
    /// Create a resource bundle.
    pub fn new(luts: u64, ffs: u64, brams: u64, dsps: u64) -> Self {
        Self {
            luts,
            ffs,
            brams,
            dsps,
        }
    }

    /// Whether this bundle fits inside `budget`.
    pub fn fits_in(&self, budget: &Resources) -> bool {
        self.luts <= budget.luts
            && self.ffs <= budget.ffs
            && self.brams <= budget.brams
            && self.dsps <= budget.dsps
    }

    /// Utilization of each resource class relative to `budget` (fractions, may exceed 1.0).
    pub fn utilization(&self, budget: &Resources) -> ResourceUtilization {
        let frac = |a: u64, b: u64| {
            if b == 0 {
                f64::INFINITY
            } else {
                a as f64 / b as f64
            }
        };
        ResourceUtilization {
            luts: frac(self.luts, budget.luts),
            ffs: frac(self.ffs, budget.ffs),
            brams: frac(self.brams, budget.brams),
            dsps: frac(self.dsps, budget.dsps),
        }
    }
}

/// Utilization fractions per resource class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResourceUtilization {
    /// LUT utilization.
    pub luts: f64,
    /// FF utilization.
    pub ffs: f64,
    /// BRAM utilization.
    pub brams: f64,
    /// DSP utilization.
    pub dsps: f64,
}

/// A resource class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResourceKind {
    /// Look-up tables.
    Luts,
    /// Flip-flops.
    Ffs,
    /// Block RAMs.
    Brams,
    /// DSP slices.
    Dsps,
}

impl Add for Resources {
    type Output = Resources;
    fn add(self, o: Resources) -> Resources {
        Resources {
            luts: self.luts + o.luts,
            ffs: self.ffs + o.ffs,
            brams: self.brams + o.brams,
            dsps: self.dsps + o.dsps,
        }
    }
}

impl AddAssign for Resources {
    fn add_assign(&mut self, o: Resources) {
        *self = *self + o;
    }
}

impl Mul<u64> for Resources {
    type Output = Resources;
    fn mul(self, n: u64) -> Resources {
        Resources {
            luts: self.luts * n,
            ffs: self.ffs * n,
            brams: self.brams * n,
            dsps: self.dsps * n,
        }
    }
}

/// Incremental cost of adding one more FOP PE beyond the first, derived from the two rows of
/// Table 2. The sorter and controller are shared, which is why the increment is well below the
/// single-PE total ("less than two times increase", Sec. 5.4).
pub fn per_extra_pe() -> Resources {
    Resources {
        luts: FLEX_TWO_PE.luts - FLEX_ONE_PE.luts,
        ffs: FLEX_TWO_PE.ffs - FLEX_ONE_PE.ffs,
        brams: FLEX_TWO_PE.brams - FLEX_ONE_PE.brams,
        dsps: FLEX_TWO_PE.dsps - FLEX_ONE_PE.dsps,
    }
}

/// Estimated resource consumption of a FLEX design with `num_pes` FOP PEs (Table 2 reproduces
/// `num_pes = 1` and `2` exactly; larger counts extrapolate linearly with the per-PE increment).
pub fn flex_resources(num_pes: u64) -> Resources {
    assert!(num_pes >= 1, "at least one FOP PE is required");
    FLEX_ONE_PE + per_extra_pe() * (num_pes - 1)
}

/// The largest number of FOP PEs that fits on a budget, and the resource class that binds.
pub fn max_pes(budget: &Resources) -> (u64, ResourceKind) {
    let mut n = 1;
    while flex_resources(n + 1).fits_in(budget) {
        n += 1;
    }
    // identify the binding class at n+1
    let next = flex_resources(n + 1);
    let binding = [
        (ResourceKind::Luts, next.luts, budget.luts),
        (ResourceKind::Ffs, next.ffs, budget.ffs),
        (ResourceKind::Brams, next.brams, budget.brams),
        (ResourceKind::Dsps, next.dsps, budget.dsps),
    ]
    .into_iter()
    .filter(|(_, used, avail)| used > avail)
    .map(|(k, _, _)| k)
    .next()
    .unwrap_or(ResourceKind::Brams);
    (n, binding)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_rows_fit_the_u50() {
        assert!(FLEX_ONE_PE.fits_in(&ALVEO_U50));
        assert!(FLEX_TWO_PE.fits_in(&ALVEO_U50));
        assert!(!ALVEO_U50.fits_in(&FLEX_ONE_PE));
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // the Table 2 constants ARE the subject here
    fn flex_resources_reproduces_table2() {
        assert_eq!(flex_resources(1), FLEX_ONE_PE);
        assert_eq!(flex_resources(2), FLEX_TWO_PE);
        // "less than two times increase in LUT and FF usage" (Sec. 5.4)
        assert!(FLEX_TWO_PE.luts < 2 * FLEX_ONE_PE.luts);
        assert!(FLEX_TWO_PE.ffs < 2 * FLEX_ONE_PE.ffs);
    }

    #[test]
    fn bram_is_the_scaling_bound() {
        let (n, binding) = max_pes(&ALVEO_U50);
        // with 347 extra BRAMs per PE and 1344 available, BRAM binds first (Sec. 5.4)
        assert_eq!(binding, ResourceKind::Brams);
        assert!(
            (3..=4).contains(&n),
            "U50 should fit 3-4 PEs before BRAM runs out, got {n}"
        );
        assert!(flex_resources(n).fits_in(&ALVEO_U50));
        assert!(!flex_resources(n + 1).fits_in(&ALVEO_U50));
    }

    #[test]
    fn utilization_and_replication() {
        let u = FLEX_TWO_PE.utilization(&ALVEO_U50);
        assert!(u.brams > 0.5 && u.brams < 0.6);
        // a single PE uses 391 of 1,344 BRAMs (about 29%); BRAM is the most used class either way
        let one = FLEX_ONE_PE.utilization(&ALVEO_U50);
        assert!(one.brams > 0.28 && one.brams < 0.30);
        for v in [u, one] {
            assert!(v.brams > v.luts.max(v.ffs).max(v.dsps));
        }
    }

    #[test]
    fn arithmetic_ops() {
        let a = Resources::new(1, 2, 3, 4);
        let b = Resources::new(10, 20, 30, 40);
        assert_eq!(a + b, Resources::new(11, 22, 33, 44));
        let mut c = a;
        c += b;
        assert_eq!(c, Resources::new(11, 22, 33, 44));
        assert_eq!(a * 3, Resources::new(3, 6, 9, 12));
    }
}
