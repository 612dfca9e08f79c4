//! Figure 3 — percentage of data-cache misses that are writes.
//!
//! Direct-mapped 64 KB cache, 32-byte lines. The paper finds that in
//! JIT mode 50–90% of data misses are writes (code generation and
//! installation), far more than in interpreter mode.

use crate::caches::{self, CachePass, Points};
use crate::runner::Mode;
use crate::table::{pct, Table};
use jrt_cache::CacheConfig;
use jrt_workloads::Size;

/// One benchmark × mode measurement.
#[derive(Debug, Clone, Copy)]
pub struct Fig3Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Execution mode.
    pub mode: Mode,
    /// Fraction of D-cache misses that are write misses.
    pub write_fraction: f64,
}

/// The full Figure 3 result.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// Rows per benchmark and mode.
    pub rows: Vec<Fig3Row>,
}

impl Fig3 {
    /// Renders the table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Figure 3: share of data misses that are writes (64K DM, 32B lines)",
            &["benchmark", "interp", "jit"],
        );
        for spec_rows in self.rows.chunks(2) {
            t.row(vec![
                spec_rows[0].name.into(),
                pct(spec_rows[0].write_fraction),
                pct(spec_rows[1].write_fraction),
            ]);
        }
        t
    }

    /// Mean write fraction for a mode.
    pub fn mean(&self, mode: Mode) -> f64 {
        let v: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.mode == mode)
            .map(|r| r.write_fraction)
            .collect();
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The cache points Figure 3 reads off the shared pass.
pub fn points() -> Points {
    Points {
        icache: Vec::new(),
        dcache: vec![CacheConfig::paper_write_study()],
    }
}

/// Figure 3's view of the shared pass: one row per tape.
pub fn view(pass: &CachePass) -> Fig3 {
    Fig3 {
        rows: pass
            .tapes
            .iter()
            .map(|t| Fig3Row {
                name: t.name,
                mode: t.mode,
                write_fraction: t
                    .dcache(CacheConfig::paper_write_study())
                    .stats()
                    .write_miss_fraction(),
            })
            .collect(),
    }
}

/// Runs the Figure 3 experiment: the shared pass over its points.
pub fn run(size: Size) -> Fig3 {
    view(&caches::sweep(size, &points()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jit_write_misses_dominate() {
        let f = run(Size::Tiny);
        let ji = f.mean(Mode::Jit);
        let ii = f.mean(Mode::Interp);
        assert!(ji > ii, "jit {ji} should exceed interp {ii}");
        assert!(ji > 0.35, "paper band is 50-90%, got {ji}");
    }
}
