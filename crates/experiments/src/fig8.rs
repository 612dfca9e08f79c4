//! Figure 8 — effect of line size (8 KB direct-mapped, 16–128 bytes).
//!
//! The paper: larger lines monotonically help the I-cache; the D-cache
//! differs by mode — interpreted code prefers small (16 B) lines
//! (short methods, 1.8-byte bytecodes give little spatial locality
//! beyond a method), while JIT mode does best at 32–64 B (object and
//! array sizes).

use crate::fig7::{sweep_rows, sweep_table, Fig7Row};
use crate::pass::{self, Pass};
use crate::runner::Mode;
use crate::table::Table;
use jrt_cache::CacheConfig;
use jrt_workloads::Size;

/// Line sizes swept.
pub const LINES: [u32; 4] = [16, 32, 64, 128];

/// The full Figure 8 result.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// One row per mode; the swept points are the [`LINES`].
    pub rows: Vec<Fig7Row>,
}

impl Fig8 {
    /// Renders the table.
    pub fn table(&self) -> Table {
        sweep_table(
            "Figure 8: line-size sweep (8K direct-mapped), suite aggregate",
            &["mode", "cache", "16B", "32B", "64B", "128B"],
            &self.rows,
        )
    }

    /// Row accessor.
    pub fn get(&self, mode: Mode) -> &Fig7Row {
        self.rows
            .iter()
            .find(|r| r.mode == mode)
            .expect("mode present")
    }

    /// The best (lowest-miss) D-cache line size for `mode`.
    pub fn best_d_line(&self, mode: Mode) -> u32 {
        let r = self.get(mode);
        let mut best = 0;
        for k in 1..4 {
            if r.d_miss[k] < r.d_miss[best] {
                best = k;
            }
        }
        LINES[best]
    }
}

/// Figure 8's view of the shared pass.
pub fn view(pass: &Pass) -> Fig8 {
    Fig8 {
        rows: sweep_rows(pass, &LINES.map(CacheConfig::paper_line_sweep)),
    }
}

/// Runs the Figure 8 experiment: the shared pass for it alone.
pub fn run(size: Size) -> Fig8 {
    view(&pass::run(size, &["fig8"]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_size_preferences_differ_by_mode() {
        let f = run(Size::Tiny);
        for r in &f.rows {
            // I-cache: larger lines help monotonically.
            for k in 1..4 {
                assert!(
                    r.i_miss[k] <= r.i_miss[k - 1] * 1.05,
                    "{:?}: I {} vs {}",
                    r.mode,
                    r.i_miss[k],
                    r.i_miss[k - 1]
                );
            }
        }
        // Growing D-cache lines pays off less for interpreted code
        // than for JIT code (the paper's small-method/bytecode-size
        // argument); the exact best-line points appear in the s1
        // report.
        let gain = |r: &Fig7Row| r.d_miss[0] / r.d_miss[3].max(1e-12);
        let interp_gain = gain(f.get(Mode::Interp));
        let jit_gain = gain(f.get(Mode::Jit));
        assert!(
            interp_gain < jit_gain * 1.2,
            "interp 16B/128B gain {interp_gain} vs jit {jit_gain}"
        );
    }
}
