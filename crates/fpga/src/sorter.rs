//! Hardware sorter models.
//!
//! SACS needs the localCells of a region sorted by x before shifting begins (the *Ahead Sorter*
//! of Fig. 4), and the FOP pipeline sorts breakpoints by x. FLEX combines an insertion sorter
//! (cheap, fully pipelined, but O(n) per inserted element when used alone) with a merge sorter
//! (streaming k-way merge) following the Vitis database-library designs cited by the paper
//! (\[1\], \[2\]). The model below captures their throughput so that Fig. 6(g) — pre-sorting is
//! about 10% of FOP runtime — can be reproduced; Table 2's resource numbers, the sorter's
//! included, come from `crate::resources`.

use crate::clock::Cycles;

/// The kind of hardware sorter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SorterKind {
    /// Insertion sorter: a linear array of compare-swap stages. One element accepted per cycle;
    /// the full sorted sequence is available `capacity` cycles after the last insert. Only
    /// practical up to its capacity.
    Insertion,
    /// Merge sorter: streaming 2-way merge tree over pre-sorted chunks.
    Merge,
    /// The FLEX combination: insertion sorter for chunks up to its capacity, merge sorter to
    /// combine chunks (the configuration described in Sec. 4.3.1).
    Combined,
}

/// A hardware sorter model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SorterModel {
    /// The sorter micro-architecture.
    pub kind: SorterKind,
    /// Capacity of the insertion-sorter stage (elements held in the compare-swap array).
    pub insertion_capacity: u64,
}

impl Default for SorterModel {
    fn default() -> Self {
        Self {
            kind: SorterKind::Combined,
            insertion_capacity: 32,
        }
    }
}

impl SorterModel {
    /// Cycles to sort `n` elements.
    pub fn sort_cycles(&self, n: u64) -> Cycles {
        if n <= 1 {
            return Cycles(n);
        }
        match self.kind {
            SorterKind::Insertion => {
                // one element per cycle in, plus a drain of min(n, capacity); sequences longer
                // than the capacity fall back to repeated partial sorts (quadratic-ish penalty)
                if n <= self.insertion_capacity {
                    Cycles(n + n)
                } else {
                    let chunks = n.div_ceil(self.insertion_capacity);
                    Cycles(n + chunks * self.insertion_capacity + chunks * n / 2)
                }
            }
            SorterKind::Merge => {
                // a streaming 2-way merge tree: log2(n) passes at one element per cycle
                let passes = 64 - (n - 1).leading_zeros() as u64;
                Cycles(n * passes)
            }
            SorterKind::Combined => {
                // insertion-sort chunks of `capacity`, then merge the chunks streaming
                let chunk = self.insertion_capacity;
                let chunks = n.div_ceil(chunk);
                let insert = Cycles(n + chunk.min(n));
                if chunks <= 1 {
                    insert
                } else {
                    let merge_passes = 64 - (chunks - 1).leading_zeros() as u64;
                    insert + Cycles(n * merge_passes)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_inputs() {
        let s = SorterModel::default();
        assert_eq!(s.sort_cycles(0), Cycles(0));
        assert_eq!(s.sort_cycles(1), Cycles(1));
    }

    #[test]
    fn combined_beats_insertion_for_large_inputs() {
        let comb = SorterModel {
            kind: SorterKind::Combined,
            insertion_capacity: 32,
        };
        let ins = SorterModel {
            kind: SorterKind::Insertion,
            insertion_capacity: 32,
        };
        let n = 512;
        assert!(comb.sort_cycles(n) < ins.sort_cycles(n));
        // and is no worse than a pure merge sorter for small inputs
        let merge = SorterModel {
            kind: SorterKind::Merge,
            insertion_capacity: 32,
        };
        assert!(comb.sort_cycles(16) <= merge.sort_cycles(16));
    }

    #[test]
    fn cycles_grow_monotonically() {
        for kind in [
            SorterKind::Insertion,
            SorterKind::Merge,
            SorterKind::Combined,
        ] {
            let s = SorterModel {
                kind,
                insertion_capacity: 16,
            };
            let mut prev = Cycles(0);
            for n in [1u64, 2, 8, 16, 17, 64, 200, 1000] {
                let c = s.sort_cycles(n);
                assert!(c >= prev, "{kind:?} not monotone at n={n}");
                prev = c;
            }
        }
    }

    #[test]
    fn merge_sorter_is_n_log_n() {
        let s = SorterModel {
            kind: SorterKind::Merge,
            insertion_capacity: 16,
        };
        assert_eq!(s.sort_cycles(8), Cycles(8 * 3));
        assert_eq!(s.sort_cycles(9), Cycles(9 * 4));
    }
}
