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

use jrt_bytecode::{ClassId, MethodId};

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
///
/// Indexed densely by [`MethodId`] (class, then method slot): every
/// engine charges each executed bytecode to its method, so the lookup
/// must cost an index, not a hash.
#[derive(Debug, Clone, Default)]
pub struct ProfileTable {
    /// `classes[class][slot]`; `None` for a method that never ran.
    classes: Vec<Vec<Option<MethodProfile>>>,
}

impl ProfileTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments a method's invocation count.
    #[inline]
    pub fn record_invocation(&mut self, method: MethodId) {
        self.get_mut(method).invocations += 1;
    }

    /// Mutable access, creating the entry if needed. Inlined across
    /// crates: the VM charges every bytecode it steps to a profile, so
    /// only the lookup of an existing entry is inlined.
    #[inline]
    pub fn get_mut(&mut self, method: MethodId) -> &mut MethodProfile {
        let (class, slot) = (method.class.0 as usize, method.index as usize);
        if self.get(method).is_none() {
            self.insert(class, slot);
        }
        self.classes[class][slot]
            .as_mut()
            .expect("present or just inserted")
    }

    /// Makes room for, and creates, the entry at `classes[class][slot]`.
    #[cold]
    #[inline(never)]
    fn insert(&mut self, class: usize, slot: usize) {
        if class >= self.classes.len() {
            self.classes.resize_with(class + 1, Vec::new);
        }
        let row = &mut self.classes[class];
        if slot >= row.len() {
            row.resize(slot + 1, None);
        }
        row[slot] = Some(MethodProfile::default());
    }

    /// The profile for `method`, if it ever ran.
    #[inline]
    pub fn get(&self, method: MethodId) -> Option<&MethodProfile> {
        self.classes
            .get(method.class.0 as usize)?
            .get(method.index as usize)?
            .as_ref()
    }

    /// Iterates over `(method, profile)` in ascending [`MethodId`]
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (MethodId, &MethodProfile)> {
        self.classes.iter().enumerate().flat_map(|(class, row)| {
            row.iter().enumerate().filter_map(move |(index, p)| {
                let method = MethodId {
                    class: ClassId(class as u32),
                    index: index as u32,
                };
                p.as_ref().map(|p| (method, p))
            })
        })
    }

    /// Number of profiled methods.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// Sum of a component over all methods, for Figure 1 style
    /// breakdowns: `f` picks the component.
    pub fn total(&self, f: impl Fn(&MethodProfile) -> u64) -> u64 {
        self.iter().map(|(_, p)| f(p)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn iterates_in_method_id_order_and_counts_each_method_once() {
        let mut t = ProfileTable::new();
        let late = MethodId {
            class: ClassId(3),
            index: 1,
        };
        t.record_invocation(late);
        t.record_invocation(mid(4));
        t.get_mut(mid(4)).backedges += 2;
        t.get_mut(mid(0));
        assert_eq!(t.len(), 3);
        let order: Vec<MethodId> = t.iter().map(|(m, _)| m).collect();
        assert_eq!(order, vec![mid(0), mid(4), late]);
        assert_eq!(t.get(mid(4)).unwrap().invocations, 1);
        assert_eq!(t.get(mid(4)).unwrap().backedges, 2);
        assert!(t.get(mid(1)).is_none(), "a gap slot never ran");
        assert!(t.get(mid(9)).is_none());
    }
}
