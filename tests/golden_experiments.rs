//! Golden-snapshot test for the full experiment suite.
//!
//! `tests/golden/experiments_tiny.md` is the committed output of
//! `run_all` at `Tiny` scale. Regenerating it must be byte-identical
//! — at one worker (the sequential path) and at several worker
//! counts — which pins down both the experiment results themselves
//! and the parallel scheduler's canonical-order merge (DESIGN.md §5.4:
//! reports are bit-identical at any worker count). The report must
//! also pass the checks `run_all` exits 1 on, and its GC rows must
//! show real collector work: a golden full of zeros would pin nothing.
//! Each cache section run alone — whose shared cache pass then sweeps
//! only that section's points — must reproduce its golden section.

use javart::experiments::report::{self, Report};
use javart::experiments::{gc_study, jobs};
use javart::workloads::Size;

const GOLDEN: &str = include_str!("golden/experiments_tiny.md");

/// A named condition on a report.
type Check = (&'static str, fn(&Report) -> bool);

/// What every tiny report must satisfy beyond its bytes.
const CHECKS: [Check; 3] = [
    ("Report::check (scale exactness, gc equivalence)", |r| {
        r.check().is_ok()
    }),
    ("gc: minor collections on every row", |r| {
        r.gc.as_ref()
            .is_some_and(|g| g.rows.iter().all(|row| row.minors > 0))
    }),
    ("gc: write-barrier traffic on every row", |r| {
        r.gc.as_ref()
            .is_some_and(|g| g.rows.iter().all(|row| row.barrier_insts > 0))
    }),
];

#[test]
fn run_all_tiny_is_byte_identical_at_any_worker_count() {
    for workers in [1, 2, 8] {
        jobs::set_jobs(workers);
        let r = report::run_all(Size::Tiny);
        for (name, holds) in CHECKS {
            assert!(holds(&r), "{name} failed with {workers} worker(s)");
        }
        let md = r.to_markdown();
        assert!(
            md == GOLDEN,
            "run_all(Tiny) with {workers} worker(s) diverged from \
             tests/golden/experiments_tiny.md (lengths: got {}, golden {}); \
             first differing byte at offset {:?}",
            md.len(),
            GOLDEN.len(),
            md.bytes().zip(GOLDEN.bytes()).position(|(a, b)| a != b),
        );
        if workers == 1 {
            check_fails_on_a_broken_section(&r);
        }
    }
    jobs::set_jobs(0);
}

/// The must-fail half of `Report::check`: a seeded missed write
/// barrier and a diverged scale shard each fail it, naming their
/// section.
fn check_fails_on_a_broken_section(clean: &Report) {
    let mut sabotaged = clean.clone();
    sabotaged.gc = Some(gc_study::run_sabotaged(Size::Tiny, Some(0)));
    let err = sabotaged
        .check()
        .expect_err("missed barrier passed the check");
    assert!(
        err.starts_with("gc: "),
        "check named the wrong section: {err}"
    );

    let mut diverged = clean.clone();
    let scale = diverged.scale.as_mut().expect("scale section");
    scale.rows[0].shards[1].exact = false;
    let err = diverged
        .check()
        .expect_err("diverged shard passed the check");
    assert!(
        err.starts_with("scale: "),
        "check named the wrong section: {err}"
    );
}

/// The sections that read the shared cache pass, with the start of
/// their golden headings.
const CACHE_SECTIONS: [(&str, &str); 7] = [
    ("table3", "## Table 3 "),
    ("fig3", "## Figure 3 "),
    ("fig4", "## Figure 4 "),
    ("fig5", "## Figure 5 "),
    ("fig7", "## Figure 7 "),
    ("fig8", "## Figure 8 "),
    ("proposal", "## Section 6 proposal "),
];

#[test]
fn cache_sections_alone_match_their_golden_sections() {
    let header = &GOLDEN[..=GOLDEN.find("\n## ").expect("a section heading")];
    for (section, heading) in CACHE_SECTIONS {
        let start = GOLDEN.find(heading).expect(heading);
        let end = GOLDEN[start..]
            .find("\n## ")
            .map_or(GOLDEN.len(), |k| start + k + 1);
        let want = format!("{header}{}", &GOLDEN[start..end]);
        let md = report::run_filtered(Size::Tiny, Some(section), None).to_markdown();
        assert!(
            md == want,
            "run_filtered(Tiny, {section}) diverged from its section of \
             tests/golden/experiments_tiny.md (lengths: got {}, golden {}); \
             first differing byte at offset {:?}",
            md.len(),
            want.len(),
            md.bytes().zip(want.bytes()).position(|(a, b)| a != b),
        );
    }
}
