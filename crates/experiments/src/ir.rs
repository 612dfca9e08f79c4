//! The register-IR tier study: stack vs register dispatch and memory
//! traffic.
//!
//! Sections 4.2–4.4 of the paper trace the interpreter's
//! architectural troubles to two structural sources: the per-bytecode
//! indirect dispatch jump (mispredicted targets, serialized fetch)
//! and the in-memory operand stack (extra data references). The
//! register-IR tier attacks both at once — `jrt-ir` lowers each
//! method's stack bytecode to a register IR (constant folding,
//! redundant-load elimination, superinstruction fusion), the IR
//! interpreter dispatches at most once per bytecode with operands in
//! registers, and the IR-backed JIT installs denser code because
//! fused pcs generate nothing. This experiment measures both engines
//! against their stack counterparts: dispatch counts, native
//! instructions, data references and misses at the paper's L1 D-cache,
//! and installed code bytes.

use crate::jobs;
use crate::pass::{self, Pass};
use crate::runner::Mode;
use crate::table::{count, pct, Table};
use crate::tape::{self, RunSummary};
use jrt_cache::{CacheConfig, CacheStats};
use jrt_workloads::{suite, Size};

/// One engine family's measurements for one benchmark (stack engines
/// or IR engines).
#[derive(Debug, Clone, Copy)]
pub struct IrMeasure {
    /// Interpreter-mode native instructions.
    pub insts: u64,
    /// Executed bytecodes (identical across engines by construction).
    pub bytecodes: u64,
    /// Handler dispatches in interpreter mode (stack: one per
    /// bytecode; IR: one per unfused IR instruction).
    pub dispatches: u64,
    /// Interpreter-mode data references at the paper's L1 point.
    pub drefs: u64,
    /// Interpreter-mode data misses at the paper's L1 point.
    pub dmisses: u64,
    /// Code bytes the (IR-backed) JIT ever installed.
    pub code_bytes: u64,
}

/// Stack-vs-IR measurements for one benchmark.
#[derive(Debug, Clone, Copy)]
pub struct IrRow {
    /// Benchmark name.
    pub name: &'static str,
    /// The stack engines (interpreter + JIT).
    pub base: IrMeasure,
    /// The register-IR engines (IR interpreter + IR-backed JIT).
    pub ir: IrMeasure,
}

impl IrRow {
    /// Fraction of interpreter dispatches removed by fusion/elision.
    pub fn dispatch_savings(&self) -> f64 {
        1.0 - self.ir.dispatches as f64 / self.base.dispatches as f64
    }

    /// Fraction of interpreter native instructions removed.
    pub fn inst_savings(&self) -> f64 {
        1.0 - self.ir.insts as f64 / self.base.insts as f64
    }

    /// Fraction of interpreter data references removed.
    pub fn dref_savings(&self) -> f64 {
        1.0 - self.ir.drefs as f64 / self.base.drefs as f64
    }

    /// Fraction of installed code bytes removed by the IR translator.
    pub fn code_savings(&self) -> f64 {
        1.0 - self.ir.code_bytes as f64 / self.base.code_bytes as f64
    }
}

/// The full register-IR study.
#[derive(Debug, Clone)]
pub struct IrStudy {
    /// Rows in suite order.
    pub rows: Vec<IrRow>,
}

impl IrStudy {
    /// Dispatch/instruction contrast table (interpreter modes).
    pub fn dispatch_table(&self) -> Table {
        let mut t = Table::new(
            "Register-IR interpreter vs stack interpreter",
            &[
                "benchmark",
                "bytecodes",
                "dispatches (stack)",
                "dispatches (IR)",
                "dispatches saved",
                "insts (stack)",
                "insts (IR)",
                "insts saved",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.name.into(),
                count(r.base.bytecodes),
                count(r.base.dispatches),
                count(r.ir.dispatches),
                pct(r.dispatch_savings()),
                count(r.base.insts),
                count(r.ir.insts),
                pct(r.inst_savings()),
            ]);
        }
        t
    }

    /// Memory-traffic contrast table (one-pass cache sweep at the
    /// paper's L1 point, plus installed code bytes from the JIT
    /// modes).
    pub fn traffic_table(&self) -> Table {
        let mut t = Table::new(
            "Register-IR memory traffic (paper L1 D-cache) and code density",
            &[
                "benchmark",
                "D-refs (stack)",
                "D-refs (IR)",
                "D-refs saved",
                "D-misses (stack)",
                "D-misses (IR)",
                "code bytes (jit)",
                "code bytes (ir-jit)",
                "code saved",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.name.into(),
                count(r.base.drefs),
                count(r.ir.drefs),
                pct(r.dref_savings()),
                count(r.base.dmisses),
                count(r.ir.dmisses),
                count(r.base.code_bytes),
                count(r.ir.code_bytes),
                pct(r.code_savings()),
            ]);
        }
        t
    }

    /// Mean over a per-row fraction.
    fn mean(&self, f: impl Fn(&IrRow) -> f64) -> f64 {
        self.rows.iter().map(f).sum::<f64>() / self.rows.len() as f64
    }

    /// Mean dispatch reduction.
    pub fn mean_dispatch_savings(&self) -> f64 {
        self.mean(IrRow::dispatch_savings)
    }

    /// Mean native-instruction reduction.
    pub fn mean_inst_savings(&self) -> f64 {
        self.mean(IrRow::inst_savings)
    }

    /// Mean data-reference reduction.
    pub fn mean_dref_savings(&self) -> f64 {
        self.mean(IrRow::dref_savings)
    }

    /// Mean code-byte reduction.
    pub fn mean_code_savings(&self) -> f64 {
        self.mean(IrRow::code_savings)
    }
}

/// One engine family's measure: its interpreter run, its JIT run (only
/// the installed code bytes are read) and the interpreter's D-cache
/// statistics.
fn measure(interp: &RunSummary, jit: &RunSummary, d: &CacheStats, ir: bool) -> IrMeasure {
    let counters = &interp.result.counters;
    IrMeasure {
        insts: interp.counts.total(),
        bytecodes: counters.bytecodes,
        // The stack interpreter dispatches exactly once per bytecode.
        dispatches: if ir {
            counters.ir_dispatches
        } else {
            counters.bytecodes
        },
        drefs: d.refs(),
        dmisses: d.misses(),
        code_bytes: jit.result.counters.code_ever_bytes,
    }
}

/// The register-IR study off the shared pass, one job per benchmark:
/// each family's D point is a view of its interpreter's stream, the
/// stock one's the front end's L1 D-cache (Table 3's) and the IR one's
/// a sweep of that one point, and its counts and code bytes come from
/// the run summaries. The IR-backed JIT, which no consumer reads, runs
/// count-only.
pub fn view(pass: &Pass, size: Size) -> IrStudy {
    let loads = jobs::prebuild(suite(), size);
    let tapes = pass.mode(Mode::Interp).zip(pass.mode(Mode::IrInterp));
    let work: Vec<_> = loads.iter().zip(tapes).collect();
    let rows = jobs::par_map(&work, |&(w, (base, ir))| {
        let summary = |mode| tape::summary(w, mode);
        IrRow {
            name: w.spec.name,
            base: measure(
                &summary(Mode::Interp),
                &summary(Mode::Jit),
                base.l1()[1].stats(),
                false,
            ),
            ir: measure(
                &summary(Mode::IrInterp),
                &summary(Mode::IrJit),
                ir.dcache(CacheConfig::paper_l1_data()).stats(),
                true,
            ),
        }
    });
    IrStudy { rows }
}

/// Runs the register-IR study: the shared pass for it alone, plus
/// count-only runs of both JITs.
pub fn run(size: Size) -> IrStudy {
    view(&pass::run(size, &["regir"]), size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jrt_trace::CountingSink;
    use jrt_vm::{Vm, VmConfig};
    use jrt_workloads::compress;

    #[test]
    fn ir_engines_preserve_results() {
        let p = compress::program(Size::Tiny);
        for cfg in [VmConfig::ir_interp(), VmConfig::ir_jit()] {
            let r = Vm::new(&p, cfg).run(&mut CountingSink::new()).unwrap();
            assert_eq!(r.exit_value, Some(compress::expected(Size::Tiny)));
        }
    }

    #[test]
    fn ir_tier_saves_dispatches_instructions_and_traffic() {
        let s = run(Size::Tiny);
        for r in &s.rows {
            assert_eq!(
                r.base.bytecodes, r.ir.bytecodes,
                "{}: engines must execute identical bytecode",
                r.name
            );
            assert!(
                r.ir.dispatches <= r.base.bytecodes,
                "{}: IR dispatched {} times for {} bytecodes",
                r.name,
                r.ir.dispatches,
                r.base.bytecodes
            );
            assert!(
                r.dispatch_savings() > 0.0,
                "{}: fusion saved no dispatches",
                r.name
            );
            assert!(
                r.inst_savings() > 0.0,
                "{}: IR interpreter emitted more instructions",
                r.name
            );
            assert!(
                r.dref_savings() > 0.0,
                "{}: register operands saved no data traffic",
                r.name
            );
            assert!(
                r.ir.code_bytes <= r.base.code_bytes,
                "{}: IR-backed JIT installed more code",
                r.name
            );
        }
        assert!(
            s.mean_dispatch_savings() > 0.1,
            "got {}",
            s.mean_dispatch_savings()
        );
    }
}
