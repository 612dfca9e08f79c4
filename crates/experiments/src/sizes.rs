//! Input-size sweep — the paper's s1 → s10 observation.
//!
//! Section 2: "We have also investigated the effect of larger
//! datasets, s10 and s100. The increased method reuse resulted in
//! expected results such as increased code locality, reduced time
//! spent in compilation vs execution, etc. but all major conclusions
//! from the experiments stay valid." This experiment runs three
//! representative benchmarks at three scales and shows the
//! translation share of JIT time falling as inputs grow.
//!
//! Like the paper's sweep, it needs only two counts per run, so every
//! point is a count-only [`tape::summary`]: no consumer reads an S1 or
//! S10 stream.

use crate::jobs;
use crate::runner::Mode;
use crate::table::{pct, Table};
use crate::tape;
use jrt_trace::Phase;
use jrt_workloads::{suite, Size, Spec};

/// Translate share at each size for one benchmark.
#[derive(Debug, Clone, Copy)]
pub struct SizesRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Translate share of JIT instructions at Tiny / S1 / S10.
    pub translate_share: [f64; 3],
    /// Interpreter-to-JIT instruction ratio at each size.
    pub interp_ratio: [f64; 3],
}

/// The full size sweep.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// One row per representative benchmark.
    pub rows: Vec<SizesRow>,
}

impl Sizes {
    /// Renders the table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Input-size sweep: translate share of JIT time (method reuse grows with input)",
            &[
                "benchmark",
                "xlate% tiny",
                "xlate% s1",
                "xlate% s10",
                "interp/jit s1",
                "interp/jit s10",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.name.into(),
                pct(r.translate_share[0]),
                pct(r.translate_share[1]),
                pct(r.translate_share[2]),
                format!("{:.2}x", r.interp_ratio[1]),
                format!("{:.2}x", r.interp_ratio[2]),
            ]);
        }
        t
    }
}

const SIZES: [Size; 3] = [Size::Tiny, Size::S1, Size::S10];

/// Runs the size sweep on three representative benchmarks
/// (translation-heavy `db`/`javac`, execution-heavy `compress`),
/// one job per benchmark × size × mode, so the two long runs of one
/// point can land on different workers. Programs come from the
/// program memo, and a point some other driver already ran (the s1
/// points of a `run_all s1`) costs no VM run.
pub fn run() -> Sizes {
    // `suite()` lists them in this order, the table's row order.
    let specs: Vec<Spec> = suite()
        .into_iter()
        .filter(|s| ["compress", "db", "javac"].contains(&s.name))
        .collect();
    let work = jobs::cross(&jobs::cross(&specs, &SIZES), &Mode::BOTH);
    let runs = jobs::par_map(&work, |((spec, size), mode)| {
        tape::summary(&tape::workload(spec, *size), *mode)
    });
    let rows = specs
        .iter()
        .zip(runs.chunks(2 * SIZES.len()))
        .map(|(spec, runs)| {
            // `runs` holds the interp then the JIT run of each size.
            let interp = |k: usize| &runs[2 * k].counts;
            let jit = |k: usize| &runs[2 * k + 1].counts;
            SizesRow {
                name: spec.name,
                translate_share: std::array::from_fn(|k| {
                    jit(k).phase(Phase::Translate) as f64 / jit(k).total() as f64
                }),
                interp_ratio: std::array::from_fn(|k| {
                    interp(k).total() as f64 / jit(k).total() as f64
                }),
            }
        })
        .collect();
    Sizes { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "runs S10 inputs; exercised by `run_all --filter sizes`"]
    fn translate_share_falls_with_input_size() {
        let s = run();
        for r in &s.rows {
            assert!(
                r.translate_share[2] < r.translate_share[1],
                "{}: s10 {} should be below s1 {}",
                r.name,
                r.translate_share[2],
                r.translate_share[1]
            );
            // The JIT's advantage grows with reuse.
            assert!(r.interp_ratio[2] >= r.interp_ratio[1] * 0.95, "{}", r.name);
        }
    }
}
