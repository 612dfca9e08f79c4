//! Figure 7 — effect of associativity (8 KB caches, 32-byte lines,
//! 1/2/4/8-way).
//!
//! The paper: higher associativity reduces misses, with the largest
//! step from direct-mapped to 2-way.

use crate::jobs::{self, Workload};
use crate::runner::Mode;
use crate::table::{pct, Table};
use crate::tape;
use jrt_cache::{CacheConfig, SplitSweep};
use jrt_workloads::{suite, Size};

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

/// One benchmark × mode job: a single stack-distance pass over the
/// decoded stream yields exact counts for all four points, returning
/// `(i_refs, d_refs, i_misses, d_misses)` per point.
fn run_one(w: &Workload, mode: Mode, points: &[CacheConfig; 4]) -> [(u64, u64, u64, u64); 4] {
    let mut sweep = SplitSweep::new(points, points);
    tape::for_each_block(w, mode, |b| sweep.consume_block(b));
    let mut out = [(0, 0, 0, 0); 4];
    for (k, (i, d)) in sweep
        .icache()
        .results()
        .iter()
        .zip(sweep.dcache().results())
        .enumerate()
    {
        out[k] = (
            i.stats().refs(),
            d.stats().refs(),
            i.stats().misses(),
            d.stats().misses(),
        );
    }
    out
}

/// The driver of Figures 7 and 8: one job per benchmark × mode, each
/// sweeping the four `points` in one pass, with the suite aggregate
/// folded mode-major after collection.
pub(crate) fn sweep_rows(size: Size, points: [CacheConfig; 4]) -> Vec<Fig7Row> {
    let work = jobs::cross(&jobs::prebuild(suite(), size), &Mode::BOTH);
    let counts = jobs::par_map(&work, |(w, mode)| run_one(w, *mode, &points));
    Mode::BOTH
        .iter()
        .map(|&mode| {
            let mut refs = [(0u64, 0u64); 4]; // (i_refs, d_refs)
            let mut misses = [(0u64, 0u64); 4];
            for ((_, m), per_point) in work.iter().zip(&counts) {
                if *m != mode {
                    continue;
                }
                for (k, &(ir, dr, im, dm)) in per_point.iter().enumerate() {
                    refs[k].0 += ir;
                    refs[k].1 += dr;
                    misses[k].0 += im;
                    misses[k].1 += dm;
                }
            }
            let mut i_miss = [0.0; 4];
            let mut d_miss = [0.0; 4];
            for k in 0..4 {
                i_miss[k] = misses[k].0 as f64 / refs[k].0.max(1) as f64;
                d_miss[k] = misses[k].1 as f64 / refs[k].1.max(1) as f64;
            }
            Fig7Row {
                mode,
                i_miss,
                d_miss,
            }
        })
        .collect()
}

/// Runs the Figure 7 experiment over the four [`ASSOCS`].
pub fn run(size: Size) -> Fig7 {
    Fig7 {
        rows: sweep_rows(size, ASSOCS.map(CacheConfig::paper_assoc_sweep)),
    }
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
