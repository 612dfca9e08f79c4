//! Differential fuzzing smoke tests: a fixed-seed run through the
//! full engine matrix must finish inside the `cargo test` budget with
//! zero divergences and a *complete* coverage map, the report must be
//! byte-identical at any thread count, and a seeded fault must be
//! caught and shrunk (the harness's own self-test).

use javart::fuzz::{fuzz, gen_case, lower, Coverage, Oracle, Sabotage};

/// The CI smoke seed (also the `fuzz_run` default).
const SMOKE_SEED: u64 = 0x5EED_0001;

#[test]
fn smoke_256_cases_no_divergence_full_coverage() {
    let report = fuzz(SMOKE_SEED, 256, 4, None);
    assert!(
        report.divergences.is_empty(),
        "engines diverged:\n{}",
        report.render(SMOKE_SEED)
    );
    assert_eq!(report.coverage.cases, 256);
    assert!(
        report.coverage.is_full(),
        "coverage incomplete; missing opcodes {:?}, missing transitions {:?}",
        report.coverage.uncovered_opcodes(),
        report.coverage.missing_transitions()
    );
    // The generator also has to reach the runtime fault paths (null
    // deref, raw division, out-of-bounds): faults are observables too.
    assert!(
        report.coverage.error_outcomes > 0,
        "no case exercised a deterministic runtime fault"
    );
}

#[test]
fn report_is_identical_at_any_jobs_count() {
    let sequential = fuzz(SMOKE_SEED, 48, 1, None).render(SMOKE_SEED);
    let parallel = fuzz(SMOKE_SEED, 48, 4, None).render(SMOKE_SEED);
    assert_eq!(sequential, parallel);
}

/// Satellite 3's self-test: no real divergence survived the matrix,
/// so this proves the oracle *would* catch one — a seeded corruption
/// of the JIT's observables is detected on every case, attributed to
/// the sabotaged engine only, and shrunk to a minimal reproducer that
/// still diverges.
#[test]
fn seeded_divergence_is_detected_and_shrunk() {
    let sabotage = Sabotage { mode: "jit" };
    let report = fuzz(SMOKE_SEED, 4, 2, Some(sabotage));
    assert_eq!(
        report.divergences.len(),
        4,
        "sabotaged engine not flagged on every case"
    );
    for d in &report.divergences {
        assert_eq!(d.modes, vec!["jit"], "divergence misattributed");
        // The reproducer is genuinely minimal-ish: shrinking emptied
        // every method body, and it still reproduces.
        assert_eq!(d.minimized.size(), 0, "shrinker left dead statements");
        assert!(lower(&d.minimized).is_ok(), "minimized spec must verify");
        assert!(
            Oracle::Diff(Some(sabotage)).diverges(&d.minimized),
            "minimized spec no longer reproduces"
        );
        assert!(
            !Oracle::Diff(None).diverges(&d.minimized),
            "minimized spec diverges even without the seeded fault"
        );
    }
}

#[test]
fn cases_replay_individually_from_seed_and_index() {
    // Round 0 cases are generated from an empty coverage snapshot, so
    // `gen_case` with `Coverage::new()` reproduces them exactly.
    let report = fuzz(SMOKE_SEED, 8, 2, None);
    assert!(report.divergences.is_empty());
    let empty = Coverage::new();
    for case in 0..8 {
        let spec = gen_case(SMOKE_SEED, case, &empty);
        let respec = gen_case(SMOKE_SEED, case, &empty);
        assert_eq!(spec, respec, "case {case} generation not reproducible");
        assert!(
            !Oracle::Diff(None).diverges(&spec),
            "case {case} diverges on replay but not in the run"
        );
    }
}
