//! Section 6 proposal — generating code directly into the I-cache.
//!
//! The paper's architectural-implications section proposes letting the
//! JIT write generated code straight into a (write-capable, preferably
//! write-back) I-cache: a write-allocate D-cache otherwise fetches the
//! line from memory just to overwrite it, and the freshly written
//! instructions then migrate D-cache → I-cache on first fetch
//! (double-caching). This experiment implements the proposal in the
//! cache model and measures what it saves in JIT mode.

use crate::pass::{self, Pass};
use crate::runner::Mode;
use crate::table::{count, pct, Table};
use jrt_workloads::Size;

/// Baseline-vs-proposal miss counts for one benchmark (JIT mode).
#[derive(Debug, Clone, Copy)]
pub struct ProposalRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Total L1 misses (I + D), conventional caches.
    pub base_misses: u64,
    /// D-cache write misses at baseline (the cost being attacked).
    pub base_write_misses: u64,
    /// Total L1 misses with install-into-I-cache.
    pub prop_misses: u64,
}

impl ProposalRow {
    /// Fraction of all misses removed by the proposal.
    pub fn savings(&self) -> f64 {
        1.0 - self.prop_misses as f64 / self.base_misses.max(1) as f64
    }
}

/// The full proposal study.
#[derive(Debug, Clone)]
pub struct Proposal {
    /// Rows in suite order.
    pub rows: Vec<ProposalRow>,
}

impl Proposal {
    /// Renders the table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Section 6 proposal: JIT installs code directly into the I-cache",
            &[
                "benchmark",
                "base misses (I+D)",
                "base D write-misses",
                "proposal misses",
                "misses removed",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.name.into(),
                count(r.base_misses),
                count(r.base_write_misses),
                count(r.prop_misses),
                pct(r.savings()),
            ]);
        }
        t
    }

    /// Mean savings across the suite.
    pub fn mean_savings(&self) -> f64 {
        self.rows.iter().map(ProposalRow::savings).sum::<f64>() / self.rows.len() as f64
    }
}

/// The proposal study (JIT mode only): a view of the shared pass.
pub fn view(pass: &Pass) -> Proposal {
    Proposal {
        rows: pass
            .mode(Mode::Jit)
            .map(|t| {
                let [i, d] = t.l1().map(|s| *s.stats());
                let [pi, pd] = t.install.expect("install-into-I-cache caches");
                ProposalRow {
                    name: t.name,
                    base_misses: i.misses() + d.misses(),
                    base_write_misses: d.write_misses,
                    prop_misses: pi.misses() + pd.misses(),
                }
            })
            .collect(),
    }
}

/// Runs the proposal study: the shared pass for it alone.
pub fn run(size: Size) -> Proposal {
    view(&pass::run(size, &["proposal"]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proposal_removes_misses_everywhere() {
        let p = run(Size::Tiny);
        for r in &p.rows {
            assert!(
                r.prop_misses < r.base_misses,
                "{}: {} -> {}",
                r.name,
                r.base_misses,
                r.prop_misses
            );
        }
        // Installation write misses are a large target at small inputs,
        // so the proposal should save a double-digit share somewhere.
        assert!(p.mean_savings() > 0.05, "got {}", p.mean_savings());
    }
}
