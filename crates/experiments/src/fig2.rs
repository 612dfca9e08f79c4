//! Figure 2 — instruction mix, cumulative over the suite.
//!
//! The paper reports 15–20% control transfers and 25–40% memory
//! accesses in both modes, with the interpreter about 5 percentage
//! points heavier on memory (in-memory operand stack) and much
//! heavier on indirect jumps (`switch` dispatch), while the JIT shows
//! more direct branches and calls.

use crate::pass::{self, Pass};
use crate::runner::Mode;
use crate::table::{pct, Table};
use jrt_trace::InstMix;
use jrt_workloads::Size;

/// Cumulative mixes for the two modes.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// Interpreter-mode cumulative mix.
    pub interp: InstMix,
    /// JIT-mode cumulative mix.
    pub jit: InstMix,
}

impl Fig2 {
    /// Renders the table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Figure 2: instruction mix (cumulative over SpecJVM98 analogs)",
            &["category", "interp", "jit"],
        );
        let s_i = self.interp.summary();
        let s_j = self.jit.summary();
        for (name, a, b) in [
            ("ALU", s_i.alu, s_j.alu),
            ("loads", s_i.loads, s_j.loads),
            ("stores", s_i.stores, s_j.stores),
            ("memory (total)", s_i.memory, s_j.memory),
            ("cond branches", s_i.branches, s_j.branches),
            ("calls", s_i.calls, s_j.calls),
            ("indirect jumps", s_i.indirect_jumps, s_j.indirect_jumps),
            ("returns", s_i.returns, s_j.returns),
            ("transfers (total)", s_i.transfers, s_j.transfers),
            (
                "indirect share of transfers",
                self.interp.indirect_share_of_transfers(),
                self.jit.indirect_share_of_transfers(),
            ),
        ] {
            t.row(vec![name.into(), pct(a), pct(b)]);
        }
        t
    }
}

/// Figure 2's view of the shared pass: per-mode cumulative mixes,
/// merged in suite order.
pub fn view(pass: &Pass) -> Fig2 {
    let merged = |mode| {
        let mut mix = InstMix::new();
        for t in pass.mode(mode) {
            mix.merge(t.mix.as_ref().expect("instruction mix"));
        }
        mix
    };
    Fig2 {
        interp: merged(Mode::Interp),
        jit: merged(Mode::Jit),
    }
}

/// Runs the Figure 2 experiment: the shared pass for it alone.
pub fn run(size: Size) -> Fig2 {
    view(&pass::run(size, &["fig2"]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_shape_matches_paper() {
        let f = run(Size::Tiny);
        // Memory heavier under interpretation.
        assert!(f.interp.memory_fraction() > f.jit.memory_fraction());
        // Both in a plausible band.
        assert!(f.interp.memory_fraction() > 0.30 && f.interp.memory_fraction() < 0.60);
        assert!(f.jit.memory_fraction() > 0.10 && f.jit.memory_fraction() < 0.45);
        // Indirect transfers dominate the interpreter's control flow.
        assert!(f.interp.indirect_share_of_transfers() > f.jit.indirect_share_of_transfers() * 1.5);
        assert_eq!(f.table().len(), 10);
    }
}
