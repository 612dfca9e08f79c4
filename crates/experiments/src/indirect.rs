//! The paper's recommendation, quantified: a predictor tailored for
//! indirect branches under interpretation.
//!
//! Table 2's conclusion is that JIT mode is fine with conventional
//! predictors while interpreted mode needs an indirect-branch
//! predictor (the paper cites target-cache style designs). This
//! experiment compares Gshare with the plain BTB — Table 2's Gshare
//! column — against Gshare with a path-history target cache of the
//! same entry count, in both modes, and reports the misprediction
//! reduction.

use crate::pass::{self, Pass};
use crate::runner::Mode;
use crate::table::{pct, Table};
use jrt_workloads::Size;

/// BTB-vs-target-cache rates for one benchmark × mode.
#[derive(Debug, Clone, Copy)]
pub struct IndirectRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Execution mode.
    pub mode: Mode,
    /// Overall misprediction with the plain BTB.
    pub btb_rate: f64,
    /// Overall misprediction with the target cache.
    pub tc_rate: f64,
    /// Indirect-only misprediction with the plain BTB.
    pub btb_indirect: f64,
    /// Indirect-only misprediction with the target cache.
    pub tc_indirect: f64,
}

/// The full study.
#[derive(Debug, Clone)]
pub struct Indirect {
    /// Rows: per benchmark, interp then jit.
    pub rows: Vec<IndirectRow>,
}

impl Indirect {
    /// Renders the table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Indirect-branch predictor study (Gshare directions; 1K-entry target structures)",
            &[
                "benchmark",
                "mode",
                "overall (BTB)",
                "overall (target cache)",
                "indirect (BTB)",
                "indirect (target cache)",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.name.into(),
                r.mode.label().into(),
                pct(r.btb_rate),
                pct(r.tc_rate),
                pct(r.btb_indirect),
                pct(r.tc_indirect),
            ]);
        }
        t
    }

    /// Mean overall misprediction for a mode under each scheme.
    pub fn means(&self, mode: Mode) -> (f64, f64) {
        let v: Vec<&IndirectRow> = self.rows.iter().filter(|r| r.mode == mode).collect();
        let n = v.len() as f64;
        (
            v.iter().map(|r| r.btb_rate).sum::<f64>() / n,
            v.iter().map(|r| r.tc_rate).sum::<f64>() / n,
        )
    }
}

/// The study's view of the shared pass: one row per stock tape.
pub fn view(pass: &Pass) -> Indirect {
    Indirect {
        rows: pass
            .stock()
            .map(|t| {
                let [_, _, btb, _] = t.predictors.expect("Table 2's predictors");
                let tc = t.target_cache.expect("target cache");
                IndirectRow {
                    name: t.name,
                    mode: t.mode,
                    btb_rate: btb.overall_rate(),
                    tc_rate: tc.overall_rate(),
                    btb_indirect: btb.indirect_rate(),
                    tc_indirect: tc.indirect_rate(),
                }
            })
            .collect(),
    }
}

/// Runs the study: the shared pass for it alone.
pub fn run(size: Size) -> Indirect {
    view(&pass::run(size, &["indirect"]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_cache_rescues_the_interpreter() {
        let f = run(Size::Tiny);
        let (btb_i, tc_i) = f.means(Mode::Interp);
        // The tailored predictor removes a substantial share of the
        // interpreter's mispredictions…
        assert!(
            tc_i < btb_i * 0.85,
            "interp: target cache {tc_i} vs BTB {btb_i}"
        );
        // …while JIT mode barely cares (its indirects are rare).
        let (btb_j, tc_j) = f.means(Mode::Jit);
        assert!((btb_j - tc_j).abs() < 0.05, "jit: {btb_j} vs {tc_j}");
    }
}
