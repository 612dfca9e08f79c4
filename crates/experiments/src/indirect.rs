//! The paper's recommendation, quantified: a predictor tailored for
//! indirect branches under interpretation.
//!
//! Table 2's conclusion is that JIT mode is fine with conventional
//! predictors while interpreted mode needs an indirect-branch
//! predictor (the paper cites target-cache style designs). This
//! experiment runs both modes with the plain BTB and with a
//! path-history target cache of the same entry count, and reports the
//! misprediction reduction.

use crate::jobs::{self, Workload};
use crate::runner::Mode;
use crate::table::{pct, Table};
use crate::tape;
use jrt_bpred::{BranchEval, DirectionPredictor, Gshare};
use jrt_workloads::{suite, Size};

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

fn run_one(w: &Workload, mode: Mode) -> IndirectRow {
    // Two evaluators, not one shared one: with the target cache the
    // BTB never sees indirect jumps, so its state diverges.
    let gshare = || DirectionPredictor::Gshare(Gshare::paper());
    let mut evals = vec![
        BranchEval::new(gshare()),
        BranchEval::new(gshare()).with_target_cache(),
    ];
    tape::replay(w, mode, &mut evals);
    IndirectRow {
        name: w.spec.name,
        mode,
        btb_rate: evals[0].stats().overall_rate(),
        tc_rate: evals[1].stats().overall_rate(),
        btb_indirect: evals[0].stats().indirect_rate(),
        tc_indirect: evals[1].stats().indirect_rate(),
    }
}

/// Runs the study, one job per benchmark × mode.
pub fn run(size: Size) -> Indirect {
    let work = jobs::cross(&jobs::prebuild(suite(), size), &Mode::BOTH);
    Indirect {
        rows: jobs::par_map(&work, |(w, mode)| run_one(w, *mode)),
    }
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
