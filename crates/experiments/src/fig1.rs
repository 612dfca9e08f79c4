//! Figure 1 — when (or whether) to translate.
//!
//! For each benchmark: the JIT's execution time split into translation
//! and execution of translated code, the `opt` oracle's normalized
//! time, and the interpreter-to-JIT ratio. The paper's findings:
//! translation dominates for `hello`/`db`, execution dominates for
//! `compress`/`jack`; `opt` saves at best 10–15%; the JIT clearly
//! outperforms interpretation.

use crate::jobs::{self, Workload};
use crate::runner::Mode;
use crate::table::{pct, Table};
use crate::tape;
use jrt_trace::Phase;
use jrt_workloads::{suite_with_hello, Size};

/// One benchmark's Figure 1 bar.
#[derive(Debug, Clone)]
pub struct Fig1Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Total JIT-mode instructions (≈ cycles in the Fig. 1 cost model).
    pub jit_total: u64,
    /// Instructions spent translating.
    pub translate: u64,
    /// `opt` total instructions.
    pub opt_total: u64,
    /// Interpreter total instructions.
    pub interp_total: u64,
}

impl Fig1Row {
    /// Fraction of JIT time spent translating.
    pub fn translate_frac(&self) -> f64 {
        self.translate as f64 / self.jit_total as f64
    }

    /// `opt` time normalized to JIT (= 1.0).
    pub fn opt_norm(&self) -> f64 {
        self.opt_total as f64 / self.jit_total as f64
    }

    /// Interpreter time normalized to JIT (the ratio printed on top
    /// of the paper's bars).
    pub fn interp_ratio(&self) -> f64 {
        self.interp_total as f64 / self.jit_total as f64
    }

    /// Savings of `opt` over the naive first-invocation heuristic.
    pub fn opt_savings(&self) -> f64 {
        1.0 - self.opt_norm()
    }
}

/// The full Figure 1 result.
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// Rows in suite order (hello first, as in the paper).
    pub rows: Vec<Fig1Row>,
}

impl Fig1 {
    /// Renders the table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Figure 1: normalized execution (JIT = 1.0)",
            &[
                "benchmark",
                "jit:translate",
                "jit:execute",
                "opt",
                "opt-savings",
                "interp/jit",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.name.into(),
                pct(r.translate_frac()),
                pct(1.0 - r.translate_frac()),
                format!("{:.3}", r.opt_norm()),
                pct(r.opt_savings()),
                format!("{:.2}x", r.interp_ratio()),
            ]);
        }
        t
    }

    /// Best saving achieved by the oracle across benchmarks.
    pub fn best_savings(&self) -> f64 {
        self.rows
            .iter()
            .map(Fig1Row::opt_savings)
            .fold(0.0, f64::max)
    }
}

fn run_one(w: &Workload) -> Fig1Row {
    // Interp and jit come from the tape cache, shared with every other
    // driver. Nothing replays the opt stream, so it runs count-only,
    // under the memoized oracle derived from their cached profiles.
    let interp = tape::recorded(w, Mode::Interp);
    let jit = tape::recorded(w, Mode::Jit);
    let opt = tape::summary(w, Mode::Opt);

    Fig1Row {
        name: w.spec.name,
        jit_total: jit.summary.counts.total(),
        translate: jit.summary.counts.phase(Phase::Translate),
        opt_total: opt.counts.total(),
        interp_total: interp.summary.counts.total(),
    }
}

/// Runs the Figure 1 experiment at the given size. One job per
/// benchmark (the oracle run consumes the other two runs' profiles,
/// so the three modes of one benchmark stay on one worker).
pub fn run(size: Size) -> Fig1 {
    let loads = jobs::prebuild(suite_with_hello(), size);
    Fig1 {
        rows: jobs::par_map(&loads, run_one),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_suite_reproduces_the_shape() {
        let f = run(Size::Tiny);
        assert_eq!(f.rows.len(), 8);
        let by_name = |n: &str| f.rows.iter().find(|r| r.name == n).unwrap();

        // JIT beats the interpreter on the execution-dominated
        // benchmarks even at Tiny scale. (Translation-heavy programs
        // need the s1 inputs for the JIT to amortize — exactly the
        // paper's point; EXPERIMENTS.md shows interp/jit > 1 for all
        // but `hello` at s1.)
        for r in f
            .rows
            .iter()
            .filter(|r| ["compress", "mpeg", "mtrt", "jack"].contains(&r.name))
        {
            assert!(r.interp_ratio() > 1.0, "{}: {}", r.name, r.interp_ratio());
        }
        // hello is translation-dominated; compress/mpeg are
        // execution-dominated.
        assert!(by_name("hello").translate_frac() > 0.4);
        assert!(by_name("compress").translate_frac() < by_name("hello").translate_frac());
        assert!(by_name("mpeg").translate_frac() < 0.4);
        // The oracle never loses by much and wins somewhere.
        for r in &f.rows {
            assert!(r.opt_norm() < 1.10, "{}: {}", r.name, r.opt_norm());
        }
        // At Tiny the run-once library is small, so the oracle's
        // headroom is modest; the S1 report shows the 10-15% band.
        assert!(f.best_savings() > 0.015, "got {}", f.best_savings());
        // Table renders a row per benchmark.
        assert_eq!(f.table().len(), 8);
    }
}
