//! Figure 5 — cache misses within the translate portion of JIT
//! execution.
//!
//! The paper isolates the translator: its I-cache misses are ~30% of
//! all I-misses (less for `jack`/`mtrt`), its D-cache misses are
//! 40–80% of all D-misses, and ~60% of the translate-portion misses
//! are writes (code generation/installation).

use crate::pass::{self, Pass};
use crate::runner::Mode;
use crate::table::{pct, Table};
use jrt_cache::CacheConfig;
use jrt_workloads::Size;

/// One benchmark's translate-portion shares.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Translate share of all I-cache misses.
    pub i_share: f64,
    /// Translate share of all D-cache misses.
    pub d_share: f64,
    /// Write fraction of the translate portion's D-misses.
    pub write_share_in_translate: f64,
    /// I-cache miss rate inside translate.
    pub i_rate_translate: f64,
    /// I-cache miss rate outside translate.
    pub i_rate_rest: f64,
}

/// The full Figure 5 result.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// Rows in suite order.
    pub rows: Vec<Fig5Row>,
}

impl Fig5 {
    /// Renders the table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Figure 5: misses within the translate portion (JIT mode, 64K caches)",
            &[
                "benchmark",
                "I-miss share",
                "D-miss share",
                "writes in xlate D-misses",
                "I-rate xlate",
                "I-rate rest",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.name.into(),
                pct(r.i_share),
                pct(r.d_share),
                pct(r.write_share_in_translate),
                pct(r.i_rate_translate),
                pct(r.i_rate_rest),
            ]);
        }
        t
    }
}

/// Figure 5's view of the shared pass: one row per JIT tape.
pub fn view(pass: &Pass) -> Fig5 {
    Fig5 {
        rows: pass
            .mode(Mode::Jit)
            .map(|t| {
                let i = t.icache(CacheConfig::paper_l1_inst());
                let d = t.dcache(CacheConfig::paper_l1_data());
                Fig5Row {
                    name: t.name,
                    i_share: i.translate_stats().misses() as f64 / i.stats().misses().max(1) as f64,
                    d_share: d.translate_stats().misses() as f64 / d.stats().misses().max(1) as f64,
                    write_share_in_translate: d.translate_stats().write_miss_fraction(),
                    i_rate_translate: i.translate_stats().miss_rate(),
                    i_rate_rest: i.rest_stats().miss_rate(),
                }
            })
            .collect(),
    }
}

/// Runs the Figure 5 experiment: the shared pass for it alone.
pub fn run(size: Size) -> Fig5 {
    view(&pass::run(size, &["fig5"]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translate_dominated_by_write_misses() {
        let f = run(Size::Tiny);
        for r in &f.rows {
            // Code installation makes translate D-misses mostly writes.
            assert!(
                r.write_share_in_translate > 0.5,
                "{}: {}",
                r.name,
                r.write_share_in_translate
            );
            // The translator contributes a real share of all D misses.
            assert!(r.d_share > 0.1, "{}: {}", r.name, r.d_share);
        }
        // Translation-heavy benchmarks contribute a large share; at
        // Tiny the app footprints are cache-resident so even mpeg's
        // share is high — the S1 report shows the ordering.
    }
}
