//! Figure 7 — effect of associativity (8 KB caches, 32-byte lines,
//! 1/2/4/8-way).
//!
//! The paper: higher associativity reduces misses, with the largest
//! step from direct-mapped to 2-way.

use crate::pass::{self, Pass, TapeResult};
use crate::runner::Mode;
use crate::table::{pct, Table};
use jrt_cache::{CacheConfig, CacheStats, SweepResult};
use jrt_workloads::Size;

/// Associativities swept.
pub const ASSOCS: [u32; 4] = [1, 2, 4, 8];

/// Aggregated miss rates per swept cache point for one mode: a row of
/// Figure 7 (per associativity) or of Figure 8 (per line size).
#[derive(Debug, Clone, Copy)]
pub struct Fig7Row {
    /// Execution mode.
    pub mode: Mode,
    /// I-cache miss rate per swept point (suite aggregate).
    pub i_miss: [f64; 4],
    /// D-cache miss rate per swept point.
    pub d_miss: [f64; 4],
}

/// The full Figure 7 result.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// One row per mode.
    pub rows: Vec<Fig7Row>,
}

impl Fig7 {
    /// Renders the table.
    pub fn table(&self) -> Table {
        sweep_table(
            "Figure 7: associativity sweep (8K, 32B lines), suite aggregate",
            &["mode", "cache", "1-way", "2-way", "4-way", "8-way"],
            &self.rows,
        )
    }
}

/// Renders sweep rows: an I and a D line per mode, one column per
/// swept point.
pub(crate) fn sweep_table(title: &str, headers: &[&str], rows: &[Fig7Row]) -> Table {
    let mut t = Table::new(title, headers);
    for r in rows {
        for (cache, miss) in [("I", &r.i_miss), ("D", &r.d_miss)] {
            let mut row = vec![r.mode.label().into(), cache.into()];
            row.extend(miss.iter().map(|&m| pct(m)));
            t.row(row);
        }
    }
    t
}

/// The rows of Figures 7 and 8 off the shared pass: per mode, the
/// suite aggregate miss rate at each of the four `points` (the same
/// points on both sides).
pub(crate) fn sweep_rows(pass: &Pass, points: &[CacheConfig]) -> Vec<Fig7Row> {
    let rates = |mode, side: fn(&TapeResult, CacheConfig) -> &SweepResult| {
        std::array::from_fn(|k| {
            let mut total = CacheStats::default();
            for t in pass.mode(mode) {
                total.merge(side(t, points[k]).stats());
            }
            total.miss_rate()
        })
    };
    Mode::BOTH
        .iter()
        .map(|&mode| Fig7Row {
            mode,
            i_miss: rates(mode, TapeResult::icache),
            d_miss: rates(mode, TapeResult::dcache),
        })
        .collect()
}

/// Figure 7's view of the shared pass.
pub fn view(pass: &Pass) -> Fig7 {
    Fig7 {
        rows: sweep_rows(pass, &ASSOCS.map(CacheConfig::paper_assoc_sweep)),
    }
}

/// Runs the Figure 7 experiment: the shared pass for it alone.
pub fn run(size: Size) -> Fig7 {
    view(&pass::run(size, &["fig7"]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn associativity_monotonically_helps() {
        let f = run(Size::Tiny);
        for r in &f.rows {
            for (k, &ways) in ASSOCS.iter().enumerate().skip(1) {
                assert!(
                    r.d_miss[k] <= r.d_miss[k - 1] * 1.05,
                    "{:?} D {}-way {} vs {}",
                    r.mode,
                    ways,
                    r.d_miss[k],
                    r.d_miss[k - 1]
                );
                assert!(r.i_miss[k] <= r.i_miss[k - 1] * 1.05);
            }
            // Largest step: 1-way -> 2-way.
            let step1 = r.d_miss[0] - r.d_miss[1];
            let step2 = r.d_miss[1] - r.d_miss[2];
            assert!(step1 >= step2 * 0.8, "{:?}: {} vs {}", r.mode, step1, step2);
        }
    }
}
