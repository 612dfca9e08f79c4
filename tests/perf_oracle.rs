//! The performance oracle's cost-model invariants, property-tested
//! over generated programs, plus the seeded-fault self-test proving
//! the oracle detects, attributes, and shrinks a perf regression.

use javart::fuzz::{
    fuzz_with, gen_spec, lower, run_perf_case, Coverage, Oracle, Sabotage, MATRIX_LABELS,
    SIZED_LABEL,
};
use jrt_testkit::forall;

/// Every cost-model invariant holds on 256 generated cases across the
/// full engine matrix (plus the derived capacity-sized engine).
#[test]
fn cost_invariants_hold_on_generated_cases() {
    let cov = Coverage::new();
    forall!(cases = 256, seed = 0x9E4F_0001, |rng| {
        let spec = gen_spec(rng, &cov);
        let program = lower(&spec).expect("generated spec must lower");
        let pc = run_perf_case(&program, None);
        assert!(
            pc.base.divergent.is_empty(),
            "observable divergence: {:?}",
            pc.base.divergent
        );
        assert!(
            pc.violations.is_empty(),
            "cost-model violations:\n{}",
            pc.violations
                .iter()
                .map(|v| format!("  {} / {}: {}", v.label, v.invariant, v.detail))
                .collect::<Vec<_>>()
                .join("\n")
        );
    });
}

/// A corrupted cost vector on any engine is detected and attributed to
/// that engine, for every matrix label.
#[test]
fn seeded_fault_detected_on_every_label() {
    let cov = Coverage::new();
    let mut rng = jrt_testkit::Rng::for_case(0x9E4F_0002, 0);
    let spec = gen_spec(&mut rng, &cov);
    let program = lower(&spec).expect("generated spec must lower");
    assert!(run_perf_case(&program, None).violations.is_empty());
    for label in MATRIX_LABELS {
        let pc = run_perf_case(&program, Some(&Sabotage { mode: label }));
        assert!(
            pc.violations.iter().any(|v| v.label == label),
            "{label}: seeded fault not attributed; got {:?}",
            pc.violations
                .iter()
                .map(|v| (v.label, v.invariant))
                .collect::<Vec<_>>()
        );
    }
}

/// End-to-end seeded fault through [`Oracle::Perf`]: the report carries
/// the violations, names the invariant, and the shrunken reproducer
/// still violates under the same sabotage.
#[test]
fn seeded_fault_shrinks_to_minimal_reproducer() {
    let sabotage = Sabotage { mode: "tiered" };
    let report = fuzz_with(0x9E4F_0003, 4, 2, Oracle::Perf(Some(sabotage)));
    let perf = report.perf.as_ref().expect("perf section present");
    assert!(!perf.violations.is_empty(), "seeded fault went undetected");
    assert!(
        perf.violations
            .iter()
            .any(|v| v.label == "tiered" && v.invariant == "translate-attribution"),
        "expected a tiered translate-attribution violation: {:?}",
        perf.violations
            .iter()
            .map(|v| (v.label, v.invariant))
            .collect::<Vec<_>>()
    );
    for v in &perf.violations {
        assert!(
            v.minimized.size() <= v.original_size,
            "shrink grew the reproducer: {} -> {}",
            v.original_size,
            v.minimized.size()
        );
        assert!(
            Oracle::Perf(Some(sabotage)).violates(&v.minimized),
            "minimized reproducer no longer violates"
        );
    }
    // The render names the violation with replay coordinates.
    let text = report.render(0x9E4F_0003);
    assert!(text.contains("perf violation at case"), "{text}");
    assert!(text.contains("tiered: translate-attribution"), "{text}");
}

/// The perf report is byte-identical at any `--jobs` count, and its
/// totals section is populated for every engine, including the derived
/// capacity-sized one.
#[test]
fn perf_report_deterministic_and_totaled() {
    let a = fuzz_with(0x9E4F_0004, 64, 1, Oracle::Perf(None));
    let b = fuzz_with(0x9E4F_0004, 64, 8, Oracle::Perf(None));
    assert_eq!(a.render(0x9E4F_0004), b.render(0x9E4F_0004));
    assert!(a.divergences.is_empty());
    let perf = a.perf.as_ref().expect("perf section present");
    assert!(perf.violations.is_empty());
    let totals = &perf.totals;
    let get = |label: &str| {
        &totals
            .iter()
            .find(|(l, _)| *l == label)
            .unwrap_or_else(|| panic!("missing totals for {label}"))
            .1
    };
    // Interpreters execute but never translate; JIT engines translate;
    // the pathological bounded caches churn; the sized cache matches
    // the unbounded JIT exactly.
    assert!(get("interp").bytecodes > 0);
    assert_eq!(get("interp").translate_insts, 0);
    assert!(get("jit").translate_insts > 0);
    assert!(get("cc-lru").code_evictions > 0);
    assert_eq!(get(SIZED_LABEL), get("jit"));
    // 64 cases exercise the whole matrix: every engine saw work.
    for (label, c) in totals {
        assert!(c.bytecodes > 0, "{label}: no executed work in totals");
        assert!(c.icache_misses > 0, "{label}: cache sweep not wired");
    }
}
