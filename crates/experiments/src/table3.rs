//! Table 3 — L1 cache references and misses per benchmark and mode.
//!
//! The paper's configuration: 64 KB caches, 32-byte lines, 2-way
//! I-cache, 4-way D-cache. Headline observations: interpreter I-cache
//! hit rates above 99.9% (the `switch` body fits in cache); the JIT's
//! I-cache behaves worse (method footprints); the JIT's D-cache sees
//! far fewer references (registers replace the operand stack) but
//! *more* misses (code generation/installation write misses).

use crate::pass::{self, Pass};
use crate::runner::Mode;
use crate::table::{count, pct, Table};
use jrt_cache::CacheStats;
use jrt_workloads::Size;

/// One benchmark × mode row.
#[derive(Debug, Clone, Copy)]
pub struct Table3Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Execution mode.
    pub mode: Mode,
    /// I-cache statistics.
    pub icache: CacheStats,
    /// D-cache statistics.
    pub dcache: CacheStats,
}

/// The full Table 3 result.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// Rows: per benchmark, interp then jit.
    pub rows: Vec<Table3Row>,
}

impl Table3 {
    /// Renders the table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Table 3: cache performance (64K/32B, I 2-way, D 4-way)",
            &[
                "benchmark",
                "mode",
                "I-refs",
                "I-misses",
                "I-miss%",
                "D-refs",
                "D-misses",
                "D-miss%",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.name.into(),
                r.mode.label().into(),
                count(r.icache.refs()),
                count(r.icache.misses()),
                pct(r.icache.miss_rate()),
                count(r.dcache.refs()),
                count(r.dcache.misses()),
                pct(r.dcache.miss_rate()),
            ]);
        }
        t
    }

    /// Finds a row.
    pub fn get(&self, name: &str, mode: Mode) -> Option<&Table3Row> {
        self.rows.iter().find(|r| r.name == name && r.mode == mode)
    }
}

/// Table 3's view of the shared pass: one row per stock tape.
pub fn view(pass: &Pass) -> Table3 {
    Table3 {
        rows: pass
            .stock()
            .map(|t| {
                let [i, d] = t.l1();
                Table3Row {
                    name: t.name,
                    mode: t.mode,
                    icache: *i.stats(),
                    dcache: *d.stats(),
                }
            })
            .collect(),
    }
}

/// Runs the Table 3 experiment: the shared pass for it alone.
pub fn run(size: Size) -> Table3 {
    view(&pass::run(size, &["table3"]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jrt_workloads::suite;

    #[test]
    fn cache_shape_matches_paper() {
        let t = run(Size::Tiny);
        assert_eq!(t.rows.len(), 14);
        for spec in suite() {
            let i = t.get(spec.name, Mode::Interp).unwrap();
            let j = t.get(spec.name, Mode::Jit).unwrap();
            // JIT D-refs are a fraction of interpreter D-refs
            // (paper band 10%-80% at s1; at Tiny the translator's own
            // data traffic keeps the ratio near the top).
            let dref_ratio = j.dcache.refs() as f64 / i.dcache.refs() as f64;
            assert!(
                dref_ratio < 1.0,
                "{}: JIT D-refs should shrink, ratio {dref_ratio}",
                spec.name
            );
            // Interpreter I-cache locality is excellent.
            assert!(
                i.icache.miss_rate() < 0.01,
                "{}: interp I-miss {}",
                spec.name,
                i.icache.miss_rate()
            );
            // JIT D-miss *rate* exceeds interp's (fewer refs, write
            // misses from installation).
            assert!(
                j.dcache.miss_rate() > i.dcache.miss_rate(),
                "{}: jit D-miss-rate {} vs interp {}",
                spec.name,
                j.dcache.miss_rate(),
                i.dcache.miss_rate()
            );
        }
    }
}
