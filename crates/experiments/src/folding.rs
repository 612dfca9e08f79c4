//! Section 4.4's suggested interpreter improvement: instruction
//! folding.
//!
//! The paper observes that at wide issue the interpreter bottlenecks
//! on fetching the next bytecode (the switch jump's target
//! misprediction) and suggests that "an interpreter code that
//! identifies these sequences of bytecodes" — picoJava-style folding
//! of 2–4 simple bytecodes under one dispatch — "can mitigate the
//! effect of inaccurate target prediction and scale better". This
//! experiment implements folding in the interpreter and measures
//! instruction count and IPC at issue widths 1–8.

use crate::jobs::{self, Workload};
use crate::runner::Mode;
use crate::table::{count, pct, Table};
use crate::tape;
use jrt_ilp::{Pipeline, PipelineConfig};
use jrt_workloads::{suite, Size};

/// Folding-vs-baseline interpreter measurements for one benchmark.
#[derive(Debug, Clone, Copy)]
pub struct FoldingRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Baseline interpreter instructions.
    pub base_insts: u64,
    /// Folding interpreter instructions.
    pub fold_insts: u64,
    /// Baseline IPC at widths 1 and 8.
    pub base_ipc: [f64; 2],
    /// Folding IPC at widths 1 and 8.
    pub fold_ipc: [f64; 2],
}

impl FoldingRow {
    /// Fraction of native instructions removed by folding.
    pub fn inst_savings(&self) -> f64 {
        1.0 - self.fold_insts as f64 / self.base_insts as f64
    }

    /// Wide-issue (w=8) speedup in cycles: (base insts / base IPC) /
    /// (fold insts / fold IPC).
    pub fn w8_speedup(&self) -> f64 {
        (self.base_insts as f64 / self.base_ipc[1]) / (self.fold_insts as f64 / self.fold_ipc[1])
    }
}

/// The full folding study.
#[derive(Debug, Clone)]
pub struct Folding {
    /// Rows in suite order.
    pub rows: Vec<FoldingRow>,
}

impl Folding {
    /// Renders the table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Interpreter folding (picoJava-style, runs of <=4 simple bytecodes)",
            &[
                "benchmark",
                "insts (base)",
                "insts (folded)",
                "insts saved",
                "IPC w8 base",
                "IPC w8 folded",
                "w8 speedup",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.name.into(),
                count(r.base_insts),
                count(r.fold_insts),
                pct(r.inst_savings()),
                format!("{:.2}", r.base_ipc[1]),
                format!("{:.2}", r.fold_ipc[1]),
                format!("{:.2}x", r.w8_speedup()),
            ]);
        }
        t
    }

    /// Mean wide-issue speedup.
    pub fn mean_w8_speedup(&self) -> f64 {
        self.rows.iter().map(FoldingRow::w8_speedup).sum::<f64>() / self.rows.len() as f64
    }
}

fn measure(w: &Workload, folding: bool) -> (u64, [f64; 2]) {
    // The folding interpreter emits a genuinely different stream, so
    // it has its own tape-cache key.
    let entry = if folding {
        tape::recorded_folding(w)
    } else {
        tape::recorded(w, Mode::Interp)
    };
    let mut pipes = vec![
        Pipeline::new(PipelineConfig::paper(1)),
        Pipeline::new(PipelineConfig::paper(8)),
    ];
    entry.tape.replay(&mut pipes);
    (
        entry.summary.counts.total(),
        [pipes[0].report().ipc(), pipes[1].report().ipc()],
    )
}

/// Runs the folding study (interpreter mode only), one job per
/// benchmark × {baseline, folding}, paired back up in suite order.
pub fn run(size: Size) -> Folding {
    let work = jobs::cross(&jobs::prebuild(suite(), size), &[false, true]);
    let measured = jobs::par_map(&work, |(w, folding)| measure(w, *folding));
    let rows = work
        .chunks(2)
        .zip(measured.chunks(2))
        .map(|(pair, m)| {
            let (base_insts, base_ipc) = m[0];
            let (fold_insts, fold_ipc) = m[1];
            FoldingRow {
                name: pair[0].0.spec.name,
                base_insts,
                fold_insts,
                base_ipc,
                fold_ipc,
            }
        })
        .collect();
    Folding { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jrt_trace::CountingSink;
    use jrt_vm::{Vm, VmConfig};
    use jrt_workloads::compress;

    #[test]
    fn folding_preserves_results() {
        let p = compress::program(Size::Tiny);
        let r = Vm::new(&p, VmConfig::interpreter().with_folding())
            .run(&mut CountingSink::new())
            .unwrap();
        assert_eq!(r.exit_value, Some(compress::expected(Size::Tiny)));
    }

    #[test]
    fn folding_saves_instructions_and_cycles() {
        let f = run(Size::Tiny);
        for r in &f.rows {
            assert!(
                r.inst_savings() > 0.05,
                "{}: saved only {}",
                r.name,
                r.inst_savings()
            );
            assert!(
                r.w8_speedup() > 1.0,
                "{}: w8 speedup {}",
                r.name,
                r.w8_speedup()
            );
        }
        assert!(f.mean_w8_speedup() > 1.1, "got {}", f.mean_w8_speedup());
    }
}
