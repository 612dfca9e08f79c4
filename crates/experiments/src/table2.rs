//! Table 2 — branch misprediction rates for four predictors.
//!
//! The paper evaluates a simple 2-bit predictor, a one-level BHT,
//! Gshare (5-bit history), and GAp, each with a 1K-entry BTB, and
//! finds the interpreter's misprediction rate far worse (Gshare
//! accuracy 65–87% interp vs. 80–92% JIT) because of its indirect
//! dispatch jumps.

use crate::jobs::{self, Workload};
use crate::runner::Mode;
use crate::table::{pct, Table};
use crate::tape;
use jrt_bpred::{BranchEval, DirectionPredictor};
use jrt_workloads::{suite, Size};

/// Misprediction rates (0–1) for the four predictors.
#[derive(Debug, Clone, Copy)]
pub struct PredictorRates {
    /// Single shared 2-bit counter.
    pub two_bit: f64,
    /// One-level 2K-entry BHT.
    pub bht: f64,
    /// Gshare, 2K entries, 5-bit global history.
    pub gshare: f64,
    /// GAp two-level.
    pub gap: f64,
}

/// One benchmark × mode row.
#[derive(Debug, Clone, Copy)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Execution mode.
    pub mode: Mode,
    /// Rates for the four predictors.
    pub rates: PredictorRates,
}

/// The full Table 2 result.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Rows: per benchmark, interp then jit.
    pub rows: Vec<Table2Row>,
}

impl Table2 {
    /// Renders the table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Table 2: branch misprediction rates",
            &["benchmark", "mode", "2bit", "bht", "gshare", "gap"],
        );
        for r in &self.rows {
            t.row(vec![
                r.name.into(),
                r.mode.label().into(),
                pct(r.rates.two_bit),
                pct(r.rates.bht),
                pct(r.rates.gshare),
                pct(r.rates.gap),
            ]);
        }
        t
    }

    /// Mean Gshare misprediction rate for a mode.
    pub fn mean_gshare(&self, mode: Mode) -> f64 {
        let sel: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.mode == mode)
            .map(|r| r.rates.gshare)
            .collect();
        sel.iter().sum::<f64>() / sel.len() as f64
    }
}

fn run_one(w: &Workload, mode: Mode) -> Table2Row {
    // One BTB and return stack serve all four predictors.
    let mut eval = BranchEval::shared(DirectionPredictor::paper_set());
    tape::replay(w, mode, &mut eval);
    let s = eval.all_stats();
    Table2Row {
        name: w.spec.name,
        mode,
        rates: PredictorRates {
            two_bit: s[0].overall_rate(),
            bht: s[1].overall_rate(),
            gshare: s[2].overall_rate(),
            gap: s[3].overall_rate(),
        },
    }
}

/// Runs the Table 2 experiment, one job per benchmark × mode.
pub fn run(size: Size) -> Table2 {
    let work = jobs::cross(&jobs::prebuild(suite(), size), &Mode::BOTH);
    Table2 {
        rows: jobs::par_map(&work, |(w, mode)| run_one(w, *mode)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpreter_mispredicts_more() {
        let t = run(Size::Tiny);
        assert_eq!(t.rows.len(), 14);
        let gi = t.mean_gshare(Mode::Interp);
        let gj = t.mean_gshare(Mode::Jit);
        assert!(gi > gj, "interp {gi} should exceed jit {gj}");
        // Paper band: interp accuracy 65-87%, jit 80-92% for gshare.
        assert!(gi > 0.08, "interp gshare miss rate too low: {gi}");
        // Tiny runs are cold-miss dominated; the S1 report lands in
        // the paper's band.
        assert!(gj < 0.35, "jit gshare miss rate too high: {gj}");
        // In JIT mode, PC-indexed prediction beats the shared 2-bit
        // counter. (Under interpretation every bytecode-level branch
        // funnels through a few handler PCs, so PC indexing degrades
        // toward global behaviour — an interpreter artifact the paper's
        // "tailor the predictor to the interpreter" conclusion points
        // at.)
        let mean = |mode: Mode, f: fn(&PredictorRates) -> f64| {
            let v: Vec<f64> = t
                .rows
                .iter()
                .filter(|r| r.mode == mode)
                .map(|r| f(&r.rates))
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(
            mean(Mode::Jit, |r| r.bht) <= mean(Mode::Jit, |r| r.two_bit) + 0.02,
            "jit: bht should beat 2bit on average"
        );
        assert!(
            mean(Mode::Jit, |r| r.gshare) <= mean(Mode::Jit, |r| r.bht) + 0.02,
            "jit: gshare should be competitive with bht"
        );
    }
}
