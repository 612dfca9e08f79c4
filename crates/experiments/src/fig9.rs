//! Figures 9 & 10 — instruction-level parallelism vs. issue width.
//!
//! The paper runs both modes through a cycle-accurate superscalar
//! simulator at issue widths 1–8. Findings: interpreter IPC is higher
//! (better locality, short dependence chains) but its scaling flattens
//! at wide issue because the dispatch jump's target misprediction
//! starves the front end; the JIT scales more evenly. Figure 10 plots
//! the same runs as execution time normalized to width 1.

use crate::pass::{self, Pass};
use crate::runner::Mode;
use crate::table::Table;
use jrt_ilp::PipelineReport;
use jrt_workloads::Size;

/// Issue widths swept.
pub const WIDTHS: [u32; 4] = [1, 2, 4, 8];

/// Reports per width for one benchmark × mode.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Execution mode.
    pub mode: Mode,
    /// Pipeline reports at widths 1, 2, 4, 8.
    pub reports: [PipelineReport; 4],
}

impl Fig9Row {
    /// IPC at each width.
    pub fn ipc(&self) -> [f64; 4] {
        [
            self.reports[0].ipc(),
            self.reports[1].ipc(),
            self.reports[2].ipc(),
            self.reports[3].ipc(),
        ]
    }

    /// Execution time normalized to width 1 (Figure 10).
    pub fn normalized_time(&self) -> [f64; 4] {
        let base = self.reports[0].cycles as f64;
        [
            1.0,
            self.reports[1].cycles as f64 / base,
            self.reports[2].cycles as f64 / base,
            self.reports[3].cycles as f64 / base,
        ]
    }

    /// IPC improvement from width 1 to width 8.
    pub fn scaling(&self) -> f64 {
        self.reports[3].ipc() / self.reports[0].ipc()
    }
}

/// The full Figures 9/10 result.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// Rows: per benchmark, interp then jit.
    pub rows: Vec<Fig9Row>,
}

impl Fig9 {
    /// Renders the IPC table (Figure 9).
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Figure 9: IPC vs issue width",
            &[
                "benchmark",
                "mode",
                "w=1",
                "w=2",
                "w=4",
                "w=8",
                "scale(8/1)",
            ],
        );
        for r in &self.rows {
            let ipc = r.ipc();
            t.row(vec![
                r.name.into(),
                r.mode.label().into(),
                format!("{:.2}", ipc[0]),
                format!("{:.2}", ipc[1]),
                format!("{:.2}", ipc[2]),
                format!("{:.2}", ipc[3]),
                format!("{:.2}x", r.scaling()),
            ]);
        }
        t
    }

    /// Renders the normalized-time table (Figure 10).
    pub fn table_fig10(&self) -> Table {
        let mut t = Table::new(
            "Figure 10: execution time normalized to 1-issue",
            &["benchmark", "mode", "w=1", "w=2", "w=4", "w=8"],
        );
        for r in &self.rows {
            let n = r.normalized_time();
            t.row(vec![
                r.name.into(),
                r.mode.label().into(),
                format!("{:.2}", n[0]),
                format!("{:.2}", n[1]),
                format!("{:.2}", n[2]),
                format!("{:.2}", n[3]),
            ]);
        }
        t
    }

    /// Mean IPC at a width index for a mode.
    pub fn mean_ipc(&self, mode: Mode, width_idx: usize) -> f64 {
        let v: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.mode == mode)
            .map(|r| r.reports[width_idx].ipc())
            .collect();
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Figures 9/10's view of the shared pass: one row per stock tape.
pub fn view(pass: &Pass) -> Fig9 {
    Fig9 {
        rows: pass
            .stock()
            .map(|t| Fig9Row {
                name: t.name,
                mode: t.mode,
                reports: WIDTHS.map(|w| *t.ilp(w)),
            })
            .collect(),
    }
}

/// Runs the Figures 9/10 experiment: the shared pass for it alone.
pub fn run(size: Size) -> Fig9 {
    view(&pass::run(size, &["fig9"]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ilp_shape_matches_paper() {
        let f = run(Size::Tiny);
        // Wider machines never hurt: no width takes more cycles than
        // the one before it (tests/ilp_equivalence.rs checks every
        // width 1-8 on the folding tapes too).
        for r in &f.rows {
            for k in 1..4 {
                assert!(
                    r.reports[k].cycles <= r.reports[k - 1].cycles,
                    "{} {:?}: w{} takes {} cycles, w{} {}",
                    r.name,
                    r.mode,
                    WIDTHS[k],
                    r.reports[k].cycles,
                    WIDTHS[k - 1],
                    r.reports[k - 1].cycles
                );
            }
        }
        // Interpreter IPC is at least competitive at narrow width.
        let i1 = f.mean_ipc(Mode::Interp, 0);
        let j1 = f.mean_ipc(Mode::Jit, 0);
        assert!(i1 > j1 * 0.9, "interp w1 {i1} vs jit w1 {j1}");
        // On the execution-dominated benchmarks (where translation
        // doesn't throttle the JIT trace), the JIT scales better to
        // wide issue — the interpreter's dispatch-jump mispredictions
        // flatten its curve, exactly the paper's mechanism.
        for name in ["compress", "mpeg"] {
            let i = f
                .rows
                .iter()
                .find(|r| r.name == name && r.mode == Mode::Interp)
                .unwrap();
            let j = f
                .rows
                .iter()
                .find(|r| r.name == name && r.mode == Mode::Jit)
                .unwrap();
            assert!(
                j.reports[3].ipc() > i.reports[3].ipc() * 0.98,
                "{name}: jit w8 IPC {} vs interp {}",
                j.reports[3].ipc(),
                i.reports[3].ipc()
            );
            // The mechanism: interpreter control mispredicts more.
            assert!(
                i.reports[3].mispredict_rate() > j.reports[3].mispredict_rate(),
                "{name}: interp mispredict {} vs jit {}",
                i.reports[3].mispredict_rate(),
                j.reports[3].mispredict_rate()
            );
        }
    }
}
