//! Table 1 — memory footprint of the interpreter vs. the JIT.
//!
//! The paper measures the JIT's resident memory at 10–33% above the
//! interpreter's, the delta being the code cache and translator
//! buffers, and notes the overhead is proportionally larger for
//! applications with small dynamic memory use (like `db`).

use crate::jobs::{self, Workload};
use crate::runner::Mode;
use crate::table::{count, pct, Table};
use crate::tape;
use jrt_vm::Footprint;
use jrt_workloads::{suite, Size};

/// One benchmark's footprint comparison.
#[derive(Debug, Clone, Copy)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Interpreter footprint.
    pub interp: Footprint,
    /// JIT footprint.
    pub jit: Footprint,
}

impl Table1Row {
    /// JIT overhead over the interpreter.
    pub fn overhead(&self) -> f64 {
        self.jit.total() as f64 / self.interp.total() as f64 - 1.0
    }
}

/// The full Table 1 result.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Rows in suite order.
    pub rows: Vec<Table1Row>,
}

impl Table1 {
    /// Renders the table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Table 1: memory footprint (bytes)",
            &[
                "benchmark",
                "interp",
                "jit",
                "code-cache (live)",
                "code ever translated",
                "translator",
                "jit-overhead",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.name.into(),
                count(r.interp.total()),
                count(r.jit.total()),
                count(r.jit.code_cache_bytes),
                count(r.jit.code_ever_bytes),
                count(r.jit.translator_bytes),
                pct(r.overhead()),
            ]);
        }
        t
    }
}

fn run_one(w: &Workload) -> Table1Row {
    // Footprints ride along on the run summaries (the shared pass's
    // runs in a full report); no dedicated runs needed.
    Table1Row {
        name: w.spec.name,
        interp: tape::summary(w, Mode::Interp).result.footprint,
        jit: tape::summary(w, Mode::Jit).result.footprint,
    }
}

/// Runs the Table 1 experiment, one job per benchmark.
pub fn run(size: Size) -> Table1 {
    let loads = jobs::prebuild(suite(), size);
    Table1 {
        rows: jobs::par_map(&loads, run_one),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jit_overhead_in_paper_band() {
        let t = run(Size::Tiny);
        assert_eq!(t.rows.len(), 7);
        for r in &t.rows {
            assert!(r.overhead() > 0.0, "{}: JIT must cost extra memory", r.name);
            assert!(
                r.overhead() < 0.60,
                "{}: overhead {} should stay near the paper's 10-33% band",
                r.name,
                r.overhead()
            );
            assert_eq!(r.interp.code_cache_bytes, 0);
            assert!(r.jit.code_cache_bytes > 0);
            // Unbounded default cache: live occupancy equals the
            // append-only figure; bounded caches may fall below it.
            assert!(r.jit.code_cache_bytes <= r.jit.code_ever_bytes);
        }
    }
}
