//! Figure 4 — average miss rates vs. a C-like execution.
//!
//! The paper compares SpecJVM98 under both JVM modes against SPECint
//! and C++ programs. We have no 1990s C binaries, so the C-like
//! comparator is an **AOT proxy**: the same programs' JIT-mode traces
//! with the translation and class-loading phases removed — i.e., the
//! execution of compiled code alone, which is what an ahead-of-time
//! compiled C program of the same algorithm would run. The paper's
//! shape: the interpreter has the best locality on both caches; JIT
//! I-cache behaviour is close to compiled code; JIT D-cache is the
//! worst of all (write misses).

use crate::pass::{self, Pass};
use crate::runner::Mode;
use crate::table::{pct, Table};
use jrt_cache::CacheConfig;
use jrt_workloads::Size;

/// Average miss rates for one execution style.
#[derive(Debug, Clone, Copy)]
pub struct Fig4Row {
    /// Style label.
    pub label: &'static str,
    /// Mean I-cache miss rate over the suite.
    pub i_miss: f64,
    /// Mean D-cache miss rate over the suite.
    pub d_miss: f64,
}

/// The full Figure 4 result.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// interp / jit / C-like rows.
    pub rows: Vec<Fig4Row>,
}

impl Fig4 {
    /// Renders the table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Figure 4: average miss rates (64K/32B; C-like = AOT proxy)",
            &["execution", "I-miss", "D-miss"],
        );
        for r in &self.rows {
            t.row(vec![r.label.into(), pct(r.i_miss), pct(r.d_miss)]);
        }
        t
    }

    /// Row accessor.
    pub fn get(&self, label: &str) -> Option<&Fig4Row> {
        self.rows.iter().find(|r| r.label == label)
    }
}

/// Figure 4's view of the shared pass.
pub fn view(pass: &Pass) -> Fig4 {
    let (icfg, dcfg) = (CacheConfig::paper_l1_inst(), CacheConfig::paper_l1_data());
    let rates = |mode| {
        pass.mode(mode)
            .map(|t| {
                let (i, d) = (t.icache(icfg), t.dcache(dcfg));
                (i.stats().miss_rate(), d.stats().miss_rate())
            })
            .collect()
    };
    let c_like = pass
        .mode(Mode::Jit)
        .map(|t| {
            let [i, d] = t.app_phase.expect("app-phase sweep");
            (i.miss_rate(), d.miss_rate())
        })
        .collect();
    // Suite means, summed in suite order.
    let row = |label, rates: Vec<(f64, f64)>| {
        let n = rates.len() as f64;
        let (i, d) = rates
            .iter()
            .fold((0.0, 0.0), |(i, d), (ri, rd)| (i + ri, d + rd));
        Fig4Row {
            label,
            i_miss: i / n,
            d_miss: d / n,
        }
    };
    Fig4 {
        rows: vec![
            row("interp", rates(Mode::Interp)),
            row("jit", rates(Mode::Jit)),
            row("c-like", c_like),
        ],
    }
}

/// Runs the Figure 4 experiment: the shared pass for it alone.
pub fn run(size: Size) -> Fig4 {
    view(&pass::run(size, &["fig4"]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interp_locality_is_best_jit_dcache_worst() {
        let f = run(Size::Tiny);
        let interp = f.get("interp").unwrap();
        let jit = f.get("jit").unwrap();
        let c = f.get("c-like").unwrap();
        // Interpreter beats both on the I-cache.
        assert!(interp.i_miss < jit.i_miss);
        assert!(interp.i_miss < c.i_miss);
        // JIT D-cache is the worst of the three (write misses).
        assert!(jit.d_miss >= c.d_miss);
        assert!(jit.d_miss > interp.d_miss);
        assert_eq!(f.table().len(), 3);
    }
}
