//! Per-method cost profiles (`I_i`, `T_i`, `E_i`, `n_i`, backedges).
//!
//! Section 3 of the paper reasons about a per-method crossover point
//! `N_i = T_i / (I_i − E_i)`: translate a method iff it will be
//! invoked more than `N_i` times. The VM always collects exactly
//! those quantities, and the oracle policy
//! ([`OracleDecisions`](crate::OracleDecisions)) is derived from two
//! profile tables (one interpreter run, one JIT run). The tiered
//! policy ([`JitPolicy::Tiered`](crate::JitPolicy::Tiered))
//! additionally consumes backedge counts, the classic HotSpot-style
//! hotness signal for loop-dominated methods whose invocation counts
//! stay low.

use jrt_bytecode::MethodId;
use std::collections::HashMap;

/// Cost profile of one method.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MethodProfile {
    /// Number of invocations (`n_i`).
    pub invocations: u64,
    /// Number of backward branches taken while executing the method
    /// (loop-trip hotness; feeds the tiered policy).
    pub backedges: u64,
    /// Cycles spent interpreting this method's bytecodes (sum over
    /// invocations; divide by `invocations` for `I_i`).
    pub interp_cycles: u64,
    /// Cycles spent translating the method (`T_i`; accumulates across
    /// re-translations after eviction or tier upgrades).
    pub translate_cycles: u64,
    /// Cycles spent executing the translated code (sum; divide for
    /// `E_i`).
    pub native_cycles: u64,
}

impl MethodProfile {
    /// Mean interpret cycles per invocation (`I_i`).
    pub fn interp_per_invocation(&self) -> f64 {
        self.interp_cycles as f64 / self.invocations.max(1) as f64
    }

    /// Mean translated-code cycles per invocation (`E_i`).
    pub fn native_per_invocation(&self) -> f64 {
        self.native_cycles as f64 / self.invocations.max(1) as f64
    }

    /// The crossover invocation count `N_i`, if translation can ever
    /// pay off (`I_i > E_i`).
    pub fn crossover(&self) -> Option<f64> {
        let i = self.interp_per_invocation();
        let e = self.native_per_invocation();
        (i > e).then(|| self.translate_cycles as f64 / (i - e))
    }
}

/// Profiles for all methods touched by a run.
#[derive(Debug, Clone, Default)]
pub struct ProfileTable {
    methods: HashMap<MethodId, MethodProfile>,
}

impl ProfileTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments a method's invocation count.
    pub fn record_invocation(&mut self, method: MethodId) {
        self.methods.entry(method).or_default().invocations += 1;
    }

    /// Mutable access, creating the entry if needed.
    pub fn get_mut(&mut self, method: MethodId) -> &mut MethodProfile {
        self.methods.entry(method).or_default()
    }

    /// The profile for `method`, if it ever ran.
    pub fn get(&self, method: MethodId) -> Option<&MethodProfile> {
        self.methods.get(&method)
    }

    /// Iterates over `(method, profile)`.
    pub fn iter(&self) -> impl Iterator<Item = (MethodId, &MethodProfile)> {
        self.methods.iter().map(|(k, v)| (*k, v))
    }

    /// Number of profiled methods.
    pub fn len(&self) -> usize {
        self.methods.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.methods.is_empty()
    }

    /// Sum of a component over all methods, for Figure 1 style
    /// breakdowns: `f` picks the component.
    pub fn total(&self, f: impl Fn(&MethodProfile) -> u64) -> u64 {
        self.methods.values().map(f).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jrt_bytecode::ClassId;

    fn mid(i: u32) -> MethodId {
        MethodId {
            class: ClassId(0),
            index: i,
        }
    }

    #[test]
    fn crossover_math() {
        let p = MethodProfile {
            invocations: 10,
            interp_cycles: 1000, // I = 100
            translate_cycles: 400,
            native_cycles: 200, // E = 20
            ..MethodProfile::default()
        };
        let n = p.crossover().expect("profitable");
        assert!((n - 5.0).abs() < 1e-9); // 400 / 80
    }

    #[test]
    fn crossover_none_when_exec_slower() {
        let p = MethodProfile {
            invocations: 10,
            interp_cycles: 100,
            translate_cycles: 400,
            native_cycles: 200,
            ..MethodProfile::default()
        };
        assert!(p.crossover().is_none());
    }

    #[test]
    fn totals() {
        let mut t = ProfileTable::new();
        t.get_mut(mid(0)).translate_cycles = 10;
        t.get_mut(mid(1)).translate_cycles = 32;
        assert_eq!(t.total(|p| p.translate_cycles), 42);
        assert_eq!(t.len(), 2);
    }
}
