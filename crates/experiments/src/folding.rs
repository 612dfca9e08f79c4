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

use crate::pass::{self, Pass};
use crate::runner::Mode;
use crate::table::{count, pct, Table};
use jrt_workloads::Size;

/// The issue width the study compares at.
pub const WIDTH: u32 = 8;

/// Folding-vs-baseline interpreter measurements for one benchmark.
#[derive(Debug, Clone, Copy)]
pub struct FoldingRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Baseline interpreter instructions.
    pub base_insts: u64,
    /// Folding interpreter instructions.
    pub fold_insts: u64,
    /// Baseline IPC at width 8.
    pub base_ipc_w8: f64,
    /// Folding IPC at width 8.
    pub fold_ipc_w8: f64,
}

impl FoldingRow {
    /// Fraction of native instructions removed by folding.
    pub fn inst_savings(&self) -> f64 {
        1.0 - self.fold_insts as f64 / self.base_insts as f64
    }

    /// Wide-issue (w=8) speedup in cycles: (base insts / base IPC) /
    /// (fold insts / fold IPC).
    pub fn w8_speedup(&self) -> f64 {
        (self.base_insts as f64 / self.base_ipc_w8) / (self.fold_insts as f64 / self.fold_ipc_w8)
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
                format!("{:.2}", r.base_ipc_w8),
                format!("{:.2}", r.fold_ipc_w8),
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

/// The folding study (interpreter mode only), a view of the shared
/// pass: the 8-issue pipeline over the stock and the folding
/// interpreter's tapes.
pub fn view(pass: &Pass) -> Folding {
    Folding {
        rows: pass
            .mode(Mode::Interp)
            .zip(pass.mode(Mode::Folding))
            .map(|(base, fold)| FoldingRow {
                name: base.name,
                base_insts: base.ilp(WIDTH).instructions,
                fold_insts: fold.ilp(WIDTH).instructions,
                base_ipc_w8: base.ilp(WIDTH).ipc(),
                fold_ipc_w8: fold.ilp(WIDTH).ipc(),
            })
            .collect(),
    }
}

/// Runs the folding study: the shared pass for it alone.
pub fn run(size: Size) -> Folding {
    view(&pass::run(size, &["folding"]))
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
