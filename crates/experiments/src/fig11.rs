//! Figure 11 — synchronization: access cases and lock-scheme costs.
//!
//! (i) Classifies every `monitorenter` into the paper's four cases:
//! (a) unlocked, (b) shallow recursion, (c) deep recursion,
//! (d) contended — finding (a) and (b) dominate, with (a) alone above
//! 80%. (ii) Compares the JDK 1.1.6 monitor cache against thin locks
//! (≈2× faster overall) and the paper's 1-bit variant.

use crate::jobs;
use crate::runner::Mode;
use crate::table::{count, pct, Table};
use crate::tape;
use jrt_sync::{SyncCase, SyncStats};
use jrt_vm::SyncKind;
use jrt_workloads::{suite, Size};

/// Case mix for one benchmark.
#[derive(Debug, Clone, Copy)]
pub struct CaseRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Sync statistics (canonical classification).
    pub stats: SyncStats,
}

/// Cost comparison for one scheme, suite aggregate.
#[derive(Debug, Clone, Copy)]
pub struct SchemeRow {
    /// Monitor scheme.
    pub scheme: SyncKind,
    /// Total modelled lock cycles over the suite.
    pub total_cycles: u64,
    /// Mean cycles per synchronization operation.
    pub cycles_per_op: f64,
    /// Header bits required per object.
    pub header_bits: u32,
}

/// The full Figure 11 result.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// (i) per-benchmark case mixes.
    pub cases: Vec<CaseRow>,
    /// (ii) per-scheme costs.
    pub schemes: Vec<SchemeRow>,
}

impl Fig11 {
    /// Renders the case-mix table.
    pub fn case_table(&self) -> Table {
        let mut t = Table::new(
            "Figure 11(i): monitorenter case mix",
            &[
                "benchmark",
                "enters",
                "(a) unlocked",
                "(b) shallow-rec",
                "(c) deep-rec",
                "(d) contended",
            ],
        );
        for r in &self.cases {
            t.row(vec![
                r.name.into(),
                count(r.stats.enters()),
                pct(r.stats.case_fraction(SyncCase::Unlocked)),
                pct(r.stats.case_fraction(SyncCase::ShallowRecursive)),
                pct(r.stats.case_fraction(SyncCase::DeepRecursive)),
                pct(r.stats.case_fraction(SyncCase::Contended)),
            ]);
        }
        t
    }

    /// Renders the scheme-cost table.
    pub fn scheme_table(&self) -> Table {
        let fat = self.scheme(SyncKind::MonitorCache).total_cycles as f64;
        let mut t = Table::new(
            "Figure 11(ii): lock-scheme cost (suite aggregate)",
            &[
                "scheme",
                "header bits",
                "lock cycles",
                "cycles/op",
                "speedup vs monitor-cache",
            ],
        );
        for r in &self.schemes {
            t.row(vec![
                match r.scheme {
                    SyncKind::MonitorCache => "monitor-cache (JDK 1.1.6)".into(),
                    SyncKind::ThinLock => "thin locks (24-bit)".into(),
                    SyncKind::OneBit => "1-bit locks".into(),
                },
                r.header_bits.to_string(),
                count(r.total_cycles),
                format!("{:.1}", r.cycles_per_op),
                format!("{:.2}x", fat / r.total_cycles as f64),
            ]);
        }
        t
    }

    /// Scheme accessor.
    pub fn scheme(&self, kind: SyncKind) -> &SchemeRow {
        self.schemes
            .iter()
            .find(|r| r.scheme == kind)
            .expect("scheme present")
    }

    /// Suite-wide fraction of enters in case (a).
    pub fn case_a_fraction(&self) -> f64 {
        let total: u64 = self.cases.iter().map(|r| r.stats.enters()).sum();
        let a: u64 = self.cases.iter().map(|r| r.stats.case_counts[0]).sum();
        a as f64 / total.max(1) as f64
    }

    /// Speedup of thin locks over the monitor cache.
    pub fn thin_speedup(&self) -> f64 {
        self.scheme(SyncKind::MonitorCache).total_cycles as f64
            / self.scheme(SyncKind::ThinLock).total_cycles as f64
    }
}

fn header_bits(kind: SyncKind) -> u32 {
    match kind {
        SyncKind::MonitorCache => 0,
        SyncKind::ThinLock => 24,
        SyncKind::OneBit => 1,
    }
}

/// Runs the Figure 11 experiment: one cost job per scheme ×
/// benchmark, folded kind-major, each the run summary of the JIT under
/// that scheme (the stock JIT runs the monitor cache). The
/// per-benchmark case mixes reuse the thin-lock rows of that same
/// cross-product (the case classification is canonical across
/// schemes), so no benchmark runs twice.
pub fn run(size: Size) -> Fig11 {
    let loads = jobs::prebuild(suite(), size);
    let work = jobs::cross(&SyncKind::ALL, &loads);
    let stats = jobs::par_map(&work, |(kind, w)| {
        let mode = match kind {
            SyncKind::MonitorCache => Mode::Jit,
            SyncKind::ThinLock => Mode::ThinLock,
            SyncKind::OneBit => Mode::OneBit,
        };
        tape::summary(w, mode).result.sync_stats
    });
    let cases = work
        .iter()
        .zip(&stats)
        .filter(|((kind, _), _)| *kind == SyncKind::ThinLock)
        .map(|((_, w), s)| CaseRow {
            name: w.spec.name,
            stats: *s,
        })
        .collect();
    let schemes = SyncKind::ALL
        .iter()
        .map(|&kind| {
            let mut total = 0u64;
            let mut ops = 0u64;
            for ((k, _), s) in work.iter().zip(&stats) {
                if *k != kind {
                    continue;
                }
                total += s.total_cycles;
                ops += s.enters() + s.exits;
            }
            SchemeRow {
                scheme: kind,
                total_cycles: total,
                cycles_per_op: total as f64 / ops.max(1) as f64,
                header_bits: header_bits(kind),
            }
        })
        .collect();
    Fig11 { cases, schemes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_shape_matches_paper() {
        let f = run(Size::Tiny);
        // Case (a) covers >80% of accesses (the 1-bit motivation).
        assert!(f.case_a_fraction() > 0.8, "got {}", f.case_a_fraction());
        // Thin locks are about twice as fast as the monitor cache.
        let s = f.thin_speedup();
        assert!(s > 1.8, "thin-lock speedup {s}");
        // The 1-bit variant captures most of the benefit with 1 bit.
        let one = f.scheme(SyncKind::OneBit);
        let fat = f.scheme(SyncKind::MonitorCache);
        assert!(one.total_cycles < fat.total_cycles);
        assert_eq!(one.header_bits, 1);
        // mtrt (multithreaded) shows contention.
        let mtrt = f.cases.iter().find(|r| r.name == "mtrt").unwrap();
        assert!(mtrt.stats.enters() > 0);
    }
}
