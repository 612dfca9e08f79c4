//! Instruction-mix profiling (Figure 2 of the paper).
//!
//! The paper reports, cumulatively over the SpecJVM98 programs, the
//! fraction of control-transfer instructions (15–20%), memory accesses
//! (25–40%, about 5 percentage points higher in interpreter mode), and
//! the split of transfers between direct branches/calls and indirect
//! jumps (indirect-heavy in interpreter mode). [`InstMix`] collects the
//! same categories from a trace.

use crate::inst::{InstClass, NativeInst};
use crate::sink::TraceSink;
use std::fmt;

/// Per-class instruction counts plus derived mix percentages.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InstMix {
    counts: [u64; InstClass::ALL.len()],
}

impl InstMix {
    /// Creates a zeroed profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count of one instruction class.
    pub fn count(&self, class: InstClass) -> u64 {
        self.counts[class.index()]
    }

    /// Total instructions observed.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Adds another profile into this one (for cumulative, cross-
    /// benchmark mixes as in Figure 2).
    pub fn merge(&mut self, other: &InstMix) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// Fraction (0–1) of instructions in the given class.
    pub fn fraction(&self, class: InstClass) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.count(class) as f64 / t as f64
        }
    }

    /// Fraction of memory-access instructions (loads + stores).
    pub fn memory_fraction(&self) -> f64 {
        self.fraction(InstClass::Load) + self.fraction(InstClass::Store)
    }

    /// Fraction of control-transfer instructions.
    pub fn transfer_fraction(&self) -> f64 {
        InstClass::ALL
            .iter()
            .filter(|c| c.is_transfer())
            .map(|&c| self.fraction(c))
            .sum()
    }

    /// Fraction of indirect transfers (indirect jumps/calls, returns).
    pub fn indirect_fraction(&self) -> f64 {
        InstClass::ALL
            .iter()
            .filter(|c| c.is_indirect())
            .map(|&c| self.fraction(c))
            .sum()
    }

    /// Of all transfers, the share that is indirect (0–1).
    pub fn indirect_share_of_transfers(&self) -> f64 {
        let t = self.transfer_fraction();
        if t == 0.0 {
            0.0
        } else {
            self.indirect_fraction() / t
        }
    }

    /// Produces the summary row used in experiment tables.
    pub fn summary(&self) -> MixSummary {
        MixSummary {
            total: self.total(),
            alu: self.fraction(InstClass::IntAlu)
                + self.fraction(InstClass::IntMul)
                + self.fraction(InstClass::IntDiv)
                + self.fraction(InstClass::FpAlu),
            loads: self.fraction(InstClass::Load),
            stores: self.fraction(InstClass::Store),
            branches: self.fraction(InstClass::CondBranch),
            calls: self.fraction(InstClass::Call) + self.fraction(InstClass::IndirectCall),
            indirect_jumps: self.fraction(InstClass::IndirectJump),
            returns: self.fraction(InstClass::Ret),
            memory: self.memory_fraction(),
            transfers: self.transfer_fraction(),
            indirect: self.indirect_fraction(),
        }
    }
}

impl TraceSink for InstMix {
    fn accept(&mut self, inst: &NativeInst) {
        self.counts[inst.class.index()] += 1;
    }
}

/// Derived instruction-mix percentages for one run (Figure 2 row).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MixSummary {
    /// Total dynamic instruction count.
    pub total: u64,
    /// ALU fraction (integer + fp).
    pub alu: f64,
    /// Load fraction.
    pub loads: f64,
    /// Store fraction.
    pub stores: f64,
    /// Conditional-branch fraction.
    pub branches: f64,
    /// Call fraction (direct + indirect).
    pub calls: f64,
    /// Indirect-jump fraction.
    pub indirect_jumps: f64,
    /// Return fraction.
    pub returns: f64,
    /// Memory fraction (loads + stores).
    pub memory: f64,
    /// Transfer fraction (all control transfers).
    pub transfers: f64,
    /// Indirect-transfer fraction.
    pub indirect: f64,
}

impl fmt::Display for MixSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "total={} alu={:.1}% ld={:.1}% st={:.1}% br={:.1}% call={:.1}% ijmp={:.1}% ret={:.1}%",
            self.total,
            self.alu * 100.0,
            self.loads * 100.0,
            self.stores * 100.0,
            self.branches * 100.0,
            self.calls * 100.0,
            self.indirect_jumps * 100.0,
            self.returns * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Phase;

    fn sample_mix() -> InstMix {
        let mut m = InstMix::new();
        for i in 0..4 {
            m.accept(&NativeInst::alu(i * 4, Phase::Runtime));
        }
        m.accept(&NativeInst::load(0x100, 0x2000_0000, 4, Phase::Runtime));
        m.accept(&NativeInst::store(0x104, 0x2000_0004, 4, Phase::Runtime));
        m.accept(&NativeInst::branch(0x108, 0x100, true, Phase::Runtime));
        m.accept(&NativeInst::indirect_jump(0x10c, 0x200, Phase::Runtime));
        m
    }

    #[test]
    fn fractions_sum_to_one() {
        let m = sample_mix();
        let s: f64 = InstClass::ALL.iter().map(|&c| m.fraction(c)).sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn derived_fractions() {
        let m = sample_mix();
        assert_eq!(m.total(), 8);
        assert!((m.memory_fraction() - 0.25).abs() < 1e-12);
        assert!((m.transfer_fraction() - 0.25).abs() < 1e-12);
        assert!((m.indirect_fraction() - 0.125).abs() < 1e-12);
        assert!((m.indirect_share_of_transfers() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = sample_mix();
        let b = sample_mix();
        a.merge(&b);
        assert_eq!(a.total(), 16);
        assert_eq!(a.count(InstClass::Load), 2);
    }

    #[test]
    fn empty_mix_is_safe() {
        let m = InstMix::new();
        assert_eq!(m.total(), 0);
        assert_eq!(m.fraction(InstClass::Load), 0.0);
        assert_eq!(m.indirect_share_of_transfers(), 0.0);
    }

    #[test]
    fn summary_matches_fractions() {
        let m = sample_mix();
        let s = m.summary();
        assert_eq!(s.total, 8);
        assert!((s.memory - 0.25).abs() < 1e-12);
        assert!(s.to_string().contains("total=8"));
    }
}
