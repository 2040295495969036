//! Operator pipeline models: normal, fine-grained (stream I/O), and multi-granularity.
//!
//! Challenge-2 of the paper: the FOP operators have irregular per-item work, and a *normal*
//! FPGA pipeline — each operator finishing all of its items and parking the intermediate result
//! in RAM before the next operator starts — leaves most operators idle most of the time.
//! FLEX restructures the operators so that those traversing breakpoints in the same direction
//! stream items to each other (*fine-grained* pipelining), while the two bidirectional
//! traversals are chained *coarsely*; the combination is the multi-granularity pipeline of
//! Sec. 3.2. The closed-form cycle models below quantify exactly that difference and drive the
//! Fig. 8 ablation.

use crate::clock::Cycles;

/// Timing characteristics of one pipeline operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperatorSpec {
    /// Human-readable operator name (for reports).
    pub name: &'static str,
    /// Pipeline fill latency: cycles from the first input entering to the first output leaving.
    pub latency: u64,
    /// Initiation interval: cycles between successive items in steady state.
    pub initiation_interval: u64,
    /// Fixed start-up overhead per invocation (control, address generation).
    pub startup: u64,
}

impl OperatorSpec {
    /// Create an operator spec.
    pub const fn new(
        name: &'static str,
        latency: u64,
        initiation_interval: u64,
        startup: u64,
    ) -> Self {
        Self {
            name,
            latency,
            initiation_interval,
            startup,
        }
    }

    /// Cycles for this operator to process `items` in isolation.
    pub fn solo_cycles(&self, items: u64) -> Cycles {
        if items == 0 {
            return Cycles(self.startup);
        }
        Cycles(self.startup + self.latency + self.initiation_interval * items)
    }
}

/// Cycles per intermediate-result element written to and read back from BRAM between operators
/// of a normal pipeline (one write by the producer, one read by the consumer).
pub const MEM_ROUNDTRIP_PER_ITEM: u64 = 2;

/// Normal pipeline (left of Fig. 5): every operator runs to completion over all items, stores
/// its results in RAM, and only then does the next operator start (paying the read-back cost).
pub fn normal_pipeline_cycles(ops: &[OperatorSpec], items: u64) -> Cycles {
    let mut total = Cycles::ZERO;
    for (i, op) in ops.iter().enumerate() {
        total += op.solo_cycles(items);
        if i + 1 < ops.len() {
            total += Cycles(MEM_ROUNDTRIP_PER_ITEM * items);
        }
    }
    total
}

/// Fine-grained (stream I/O) pipeline: operators pass individual items onward as soon as they
/// are produced, so the chain behaves like one deep pipeline — total fill latency plus the
/// slowest operator's initiation interval per item, with no intermediate memory traffic.
pub fn fine_grained_cycles(ops: &[OperatorSpec], items: u64) -> Cycles {
    if ops.is_empty() {
        return Cycles::ZERO;
    }
    let startup: u64 = ops.iter().map(|o| o.startup).sum::<u64>() / ops.len() as u64;
    let fill: u64 = ops.iter().map(|o| o.latency).sum();
    let ii = ops.iter().map(|o| o.initiation_interval).max().unwrap_or(1);
    Cycles(startup + fill + ii * items)
}

/// Multi-granularity pipeline (right of Fig. 5): groups of operators that traverse in the same
/// direction are fine-grained internally; the groups themselves are chained coarsely (a group
/// starts only when its predecessor finished, because a backward traversal cannot consume a
/// forward traversal's output element-by-element).
pub fn multi_granularity_cycles(groups: &[&[OperatorSpec]], items: u64) -> Cycles {
    groups.iter().map(|g| fine_grained_cycles(g, items)).sum()
}

/// The five original FOP breakpoint operators with representative per-item costs
/// (cell shifting is modelled separately by the SACS architecture model in `flex-core`).
pub fn original_fop_operators() -> Vec<OperatorSpec> {
    vec![
        OperatorSpec::new("sort bp", 6, 1, 4),
        OperatorSpec::new("merge bp", 2, 1, 2),
        OperatorSpec::new("sum slopesR", 2, 1, 2),
        OperatorSpec::new("sum slopesL", 2, 1, 2),
        OperatorSpec::new("calculate value", 3, 1, 2),
    ]
}

/// The reorganized operator groups of FLEX: `sort bp` streams into `fwdtraverse`
/// (fwdmerge + sum slopesR + calculate vR), then `bwdtraverse` (bwdmerge + sum slopesL +
/// calculate vL and v) runs as the second coarse stage.
pub fn reorganized_fop_groups() -> (Vec<OperatorSpec>, Vec<OperatorSpec>) {
    (
        vec![
            OperatorSpec::new("sort bp", 6, 1, 4),
            OperatorSpec::new("fwdmerge", 2, 1, 0),
            OperatorSpec::new("sum slopesR", 2, 1, 0),
            OperatorSpec::new("calculate vR", 2, 1, 0),
        ],
        vec![
            OperatorSpec::new("bwdmerge", 2, 1, 0),
            OperatorSpec::new("sum slopesL", 2, 1, 0),
            OperatorSpec::new("calculate vL and v", 3, 1, 0),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_cycles_include_startup_and_latency() {
        let op = OperatorSpec::new("x", 5, 2, 3);
        assert_eq!(op.solo_cycles(0), Cycles(3));
        assert_eq!(op.solo_cycles(10), Cycles(3 + 5 + 20));
    }

    #[test]
    fn fine_grained_beats_normal_for_any_item_count() {
        let ops = original_fop_operators();
        for items in [1u64, 8, 64, 500] {
            let normal = normal_pipeline_cycles(&ops, items);
            let fine = fine_grained_cycles(&ops, items);
            assert!(
                fine < normal,
                "items={items}: fine {fine:?} !< normal {normal:?}"
            );
        }
    }

    #[test]
    fn multi_granularity_sits_between_normal_and_ideal_fine() {
        let (fwd, bwd) = reorganized_fop_groups();
        let all: Vec<OperatorSpec> = fwd.iter().chain(bwd.iter()).copied().collect();
        for items in [16u64, 128, 512] {
            let normal = normal_pipeline_cycles(&original_fop_operators(), items);
            let multi = multi_granularity_cycles(&[&fwd, &bwd], items);
            let ideal = fine_grained_cycles(&all, items);
            assert!(multi < normal, "items={items}");
            assert!(multi >= ideal, "items={items}");
        }
    }

    #[test]
    fn speedup_of_multi_granularity_is_in_the_papers_range() {
        // the paper attributes an additional 1×–2× to multi-granularity pipelining over the
        // normal pipeline for realistic breakpoint counts
        let (fwd, bwd) = reorganized_fop_groups();
        for items in [32u64, 100, 300] {
            let normal = normal_pipeline_cycles(&original_fop_operators(), items).count() as f64;
            let multi = multi_granularity_cycles(&[&fwd, &bwd], items).count() as f64;
            let speedup = normal / multi;
            assert!(
                (1.5..=10.0).contains(&speedup),
                "items={items}: speedup {speedup:.2} outside plausible range"
            );
        }
    }

    #[test]
    fn empty_inputs_are_handled() {
        assert_eq!(fine_grained_cycles(&[], 100), Cycles(0));
        assert_eq!(normal_pipeline_cycles(&[], 100), Cycles(0));
        let ops = original_fop_operators();
        assert!(normal_pipeline_cycles(&ops, 0).count() > 0); // startup still paid
    }
}
