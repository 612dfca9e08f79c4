//! Section 6 proposal — generating code directly into the I-cache.
//!
//! The paper's architectural-implications section proposes letting the
//! JIT write generated code straight into a (write-capable, preferably
//! write-back) I-cache: a write-allocate D-cache otherwise fetches the
//! line from memory just to overwrite it, and the freshly written
//! instructions then migrate D-cache → I-cache on first fetch
//! (double-caching). This experiment implements the proposal in the
//! cache model and measures what it saves in JIT mode.

use crate::caches::{self, CachePass, Points};
use crate::jobs;
use crate::runner::Mode;
use crate::table::{count, pct, Table};
use crate::tape;
use jrt_cache::{CacheConfig, SplitCaches};
use jrt_workloads::{suite, Size};

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

/// The cache points the proposal's baseline reads off the shared pass.
pub fn points() -> Points {
    Points::paper_l1()
}

/// The proposal study (JIT mode only) off the shared pass: the
/// baseline is a view of it; the install-into-I-cache variant, which
/// no sweep models, replays each JIT tape (one job per benchmark).
pub fn view(pass: &CachePass, size: Size) -> Proposal {
    let prop = jobs::par_map(&jobs::prebuild(suite(), size), |w| {
        let mut caches = SplitCaches::paper_l1().with_install_into_icache();
        tape::replay(w, Mode::Jit, &mut caches);
        caches.icache().stats().misses() + caches.dcache().stats().misses()
    });
    Proposal {
        rows: pass
            .mode(Mode::Jit)
            .zip(prop)
            .map(|(t, prop_misses)| {
                let i = t.icache(CacheConfig::paper_l1_inst()).stats();
                let d = t.dcache(CacheConfig::paper_l1_data()).stats();
                ProposalRow {
                    name: t.name,
                    base_misses: i.misses() + d.misses(),
                    base_write_misses: d.write_misses,
                    prop_misses,
                }
            })
            .collect(),
    }
}

/// Runs the proposal study: the shared pass over its points, plus
/// the variant's replays.
pub fn run(size: Size) -> Proposal {
    view(&caches::sweep(size, &points()), size)
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
