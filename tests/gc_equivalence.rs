//! The GC-equivalence test layer: collection schedules must be
//! semantically invisible.
//!
//! The generational collector moves objects, rewrites addresses, and
//! interleaves collections at allocation-driven points that differ
//! per engine (the JIT reaches an allocation site after different
//! bytecode counts than the interpreter reaches it). The handle
//! indirection plus the reachable-only heap digest are supposed to
//! make all of that unobservable. This suite holds the collector to
//! that bar three ways:
//!
//! * every workload (the SpecJVM98 analogs *and* the allocation-heavy
//!   GC suite) across all eleven fuzz engine configurations × three
//!   GC configurations produces byte-equal [`Observables`];
//! * generated fuzz-corpus programs get the same treatment;
//! * a `forall!` property test proves the remembered set never misses
//!   a tenured→nursery edge, cross-checked against a full-heap scan.
//!
//! [`Observables`]: javart::vm::Observables

use javart::fuzz::coverage::Coverage;
use javart::fuzz::{engine_configs, gen_case, lower, GcSabotage, Oracle};
use javart::trace::NullSink;
use javart::vm::{GcConfig, Handle, Heap, Value, Vm};
use javart::workloads::{gc_suite, stream, suite_with_hello, Size};
use jrt_testkit::forall;

/// The three collector configurations under test: GC effectively
/// disabled (legacy mark-sweep below its threshold), the default
/// generational geometry, and the forced-collection tiny nursery.
fn gc_configs() -> [(&'static str, GcConfig); 3] {
    [
        ("legacy", GcConfig::Legacy),
        ("gen", GcConfig::generational()),
        ("tiny", GcConfig::tiny_nursery()),
    ]
}

/// Every workload, every engine, every GC config: observables must be
/// byte-equal to the interpreter-under-legacy reference.
#[test]
fn workloads_observe_identically_under_every_gc_config() {
    let specs: Vec<_> = suite_with_hello().into_iter().chain(gc_suite()).collect();
    for spec in specs {
        let program = (spec.build)(Size::Tiny);
        let mut reference = None;
        for (gc_label, gc) in gc_configs() {
            for (label, mut cfg) in engine_configs() {
                cfg.max_bytecodes = u64::MAX;
                cfg = cfg.with_gc(gc);
                let run = Vm::new(&program, cfg).run_observed(&mut NullSink);
                match &reference {
                    None => reference = Some(run.observables),
                    Some(want) => assert_eq!(
                        &run.observables, want,
                        "{}/{label}/{gc_label} diverged from interp/legacy",
                        spec.name
                    ),
                }
            }
        }
    }
}

/// The GC workloads must actually exercise the collector under the
/// tiny nursery — a vacuous equivalence pass proves nothing.
#[test]
fn gc_suite_exercises_collector_on_every_engine() {
    for spec in gc_suite() {
        let program = (spec.build)(Size::Tiny);
        for (label, mut cfg) in engine_configs() {
            cfg.max_bytecodes = u64::MAX;
            cfg = cfg.with_gc(GcConfig::tiny_nursery());
            let run = Vm::new(&program, cfg).run_observed(&mut NullSink);
            assert!(
                run.counters.gc_minor > 0,
                "{}/{label}: no minor collection under the tiny nursery",
                spec.name
            );
            assert!(
                run.counters.gc_barrier_insts > 0,
                "{}/{label}: no write-barrier traffic",
                spec.name
            );
        }
    }
}

/// Generated fuzz programs — the adversarial input space — under the
/// same engine × GC matrix. Each corpus seed contributes its round-0
/// prefix, exactly as `fuzz` would generate it.
#[test]
fn fuzz_corpus_observes_identically_under_every_gc_config() {
    // Seeds from tests/corpus/*.case.
    let seeds: [u64; 10] = [
        0xDEC0DE99, 0xBADCA11, 0xC0FFEE, 0x7157ED5, 0xE71C701, 0xFEEDFACE, 0xC0FFEE11, 0xF0E60042,
        0x1A2B0007, 0x5EED0001,
    ];
    let cov = Coverage::new();
    for seed in seeds {
        for index in 0..8u64 {
            let spec = gen_case(seed, index, &cov);
            let program = match lower(&spec) {
                Ok(p) => p,
                Err(_) => continue,
            };
            let mut reference = None;
            for (gc_label, gc) in gc_configs() {
                for (label, cfg) in engine_configs() {
                    let run = Vm::new(&program, cfg.with_gc(gc)).run_observed(&mut NullSink);
                    match &reference {
                        None => reference = Some(run.observables),
                        Some(want) => assert_eq!(
                            &run.observables, want,
                            "seed {seed:#x} case {index}: {label}/{gc_label} diverged",
                        ),
                    }
                }
            }
        }
    }
}

/// A single silently dropped write barrier is an observable bug, and
/// the GC differential catches it: under
/// [`VmConfig::gc_sabotage_drop_barrier`](javart::vm::VmConfig), the
/// `stream` workload's very first remembered-set enrollment guards a
/// kept array that the next minor collection then wrongly reclaims.
/// This pins the (engine, drop) pair the CI must-fail job uses —
/// whether a given drop diverges depends on whether any later store
/// re-enrolls the container before the collection, so the pair is
/// empirical, not universal.
#[test]
fn a_single_dropped_write_barrier_is_detected() {
    let program = stream::program(Size::Tiny);
    let clean = Oracle::Gc(None).run(&program).base;
    assert!(
        clean.divergent.is_empty(),
        "unsabotaged GC matrix diverged: {:?}",
        clean.divergent
    );
    let sabotaged = Oracle::Gc(Some(GcSabotage {
        mode: "jit",
        drop: 0,
    }))
    .run(&program)
    .base;
    assert!(
        sabotaged.divergent.contains(&"jit"),
        "dropping stream's first remset enrollment on jit must diverge; got {:?}",
        sabotaged.divergent
    );
}

/// The remembered-set sufficiency property: after an arbitrary
/// sequence of allocations and reference stores on a generational
/// heap, every tenured container holding a nursery reference is
/// enrolled in the remembered set. Cross-checked against a full scan
/// of every handle the test ever allocated (generational mode never
/// recycles handles, so the list is exhaustive).
#[test]
fn remembered_set_never_misses_an_old_to_young_edge() {
    forall!(cases = 64, seed = 0x6C5E7, |rng| {
        let mut heap = Heap::with_config(GcConfig::tiny_nursery());
        let mut objects: Vec<(Handle, usize)> = Vec::new(); // (handle, nfields)
        let mut ref_arrays: Vec<(Handle, i32)> = Vec::new(); // (handle, len)
        let nops = rng.u64_in(10..120);

        for _ in 0..nops {
            match rng.u64_in(0..6) {
                // Small object: nursery while it fits.
                0 | 1 => {
                    let nfields = rng.u64_in(1..8) as usize;
                    let h = heap
                        .alloc_object(javart::bytecode::ClassId(0), nfields)
                        .expect("alloc");
                    objects.push((h, nfields));
                }
                // Large int array: overflows the 2 KiB nursery fast,
                // forcing pretenured (old) containers into existence.
                2 => {
                    let len = rng.u64_in(64..200) as i32;
                    heap.alloc_array(javart::bytecode::ArrayKind::Int, len)
                        .expect("alloc");
                }
                // Ref array, occasionally large enough to pretenure.
                3 => {
                    let len = rng.u64_in(1..100) as i32;
                    let h = heap
                        .alloc_array(javart::bytecode::ArrayKind::Ref, len)
                        .expect("alloc");
                    ref_arrays.push((h, len));
                }
                // Object field store: random source → random target.
                4 => {
                    if !objects.is_empty() {
                        let &(c, nf) = rng.choose(&objects);
                        let &(t, _) = rng.choose(&objects);
                        let idx = rng.u64_in(0..nf as u64) as usize;
                        heap.set_field(c, idx, Value::Ref(t)).expect("set_field");
                    }
                }
                // Ref-array element store.
                _ => {
                    if !ref_arrays.is_empty() && !objects.is_empty() {
                        let &(c, len) = rng.choose(&ref_arrays);
                        let &(t, _) = rng.choose(&objects);
                        let idx = rng.u64_in(0..len as u64) as i32;
                        heap.array_set(c, idx, Value::Ref(t).to_raw())
                            .expect("array_set");
                    }
                }
            }
        }

        // Full-heap scan: every old→young edge must be remembered.
        let remset = heap.remset().to_vec();
        let containers = objects
            .iter()
            .map(|&(h, _)| h)
            .chain(ref_arrays.iter().map(|&(h, _)| h));
        for c in containers {
            if heap.is_nursery(c) {
                continue; // young containers need no barrier
            }
            let holds_young = heap.refs_in(c).iter().any(|&r| heap.is_nursery(r));
            if holds_young {
                assert!(
                    remset.contains(&c),
                    "tenured container {c} holds a nursery ref but is not remembered"
                );
            }
        }
        // Soundness of the set itself: only live tenured handles.
        for &c in &remset {
            assert!(
                !heap.is_nursery(c),
                "remembered container {c} is a nursery object"
            );
        }
    });
}
