//! Replays every corpus case file through the full engine matrix with
//! the performance oracle on.
//!
//! Each `tests/corpus/*.case` file pins a `(seed, cases)` pair that
//! once mattered — the CI smoke seed plus seeds kept for the engine
//! behaviors they exercise (eviction thrash, tier promotion,
//! dispatch-heavy interpretation, call-dense translation). Replay must
//! stay divergence-free *and* cost-model-clean, the merged coverage
//! across the corpus must remain complete, and each file's `floor` /
//! `ceil` lines pin golden bounds on per-engine cost totals — floors
//! catch a regression that silently stops exercising a perf-sensitive
//! shape (an eviction path that no longer churns, a tier that no
//! longer promotes), ceilings pin optimization wins that must not
//! erode (register-IR fusion dispatching well under one dispatch per
//! bytecode, the IR translator's code density) — even while semantics
//! stay equivalent.

use javart::fuzz::{fuzz_with, Coverage, Oracle};
use std::path::{Path, PathBuf};

/// One golden bound on a cost total: `floor` lines require
/// `totals[label].metric >= value`, `ceil` lines require `<= value`.
#[derive(Debug)]
struct Bound {
    label: String,
    metric: String,
    value: u64,
}

/// One parsed corpus entry.
#[derive(Debug)]
struct CorpusCase {
    path: PathBuf,
    seed: u64,
    cases: u64,
    floors: Vec<Bound>,
    ceils: Vec<Bound>,
}

fn parse_u64(s: &str) -> u64 {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).expect("bad hex in corpus file")
    } else {
        s.parse().expect("bad number in corpus file")
    }
}

fn parse_case(path: &Path) -> CorpusCase {
    let text = std::fs::read_to_string(path).expect("unreadable corpus file");
    let mut seed = None;
    let mut cases = None;
    let mut floors = Vec::new();
    let mut ceils = Vec::new();
    let parse_bound = |kind: &str, rest: &str, line: &str| {
        let (target, value) = rest
            .trim()
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("{}: bad {kind} line: {line}", path.display()));
        let (label, metric) = target
            .split_once('.')
            .unwrap_or_else(|| panic!("{}: {kind} needs label.metric: {line}", path.display()));
        Bound {
            label: label.to_string(),
            metric: metric.to_string(),
            value: parse_u64(value.trim()),
        }
    };
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match line.split_once(' ') {
            Some(("seed", v)) => seed = Some(parse_u64(v.trim())),
            Some(("cases", v)) => cases = Some(parse_u64(v.trim())),
            Some(("floor", rest)) => floors.push(parse_bound("floor", rest, line)),
            Some(("ceil", rest)) => ceils.push(parse_bound("ceil", rest, line)),
            _ => panic!("{}: unparsable line: {line}", path.display()),
        }
    }
    CorpusCase {
        path: path.to_owned(),
        seed: seed.unwrap_or_else(|| panic!("{}: missing seed", path.display())),
        cases: cases.unwrap_or_else(|| panic!("{}: missing cases", path.display())),
        floors,
        ceils,
    }
}

fn load_corpus() -> Vec<CorpusCase> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("tests/corpus missing")
        .map(|e| e.expect("read_dir").path())
        .filter(|p| p.extension().is_some_and(|e| e == "case"))
        .collect();
    paths.sort();
    paths.iter().map(|p| parse_case(p)).collect()
}

fn merge(into: &mut Coverage, from: &Coverage) {
    into.record_opcodes(&from.opcodes);
    for (k, n) in &from.transitions {
        *into.transitions.entry(k.clone()).or_insert(0) += n;
    }
    for (k, n) in &from.verifier_errors {
        *into.verifier_errors.entry(k.clone()).or_insert(0) += n;
    }
    into.cases += from.cases;
    into.error_outcomes += from.error_outcomes;
    into.divergences += from.divergences;
}

#[test]
fn corpus_replays_clean_with_full_merged_coverage_and_cost_floors() {
    let corpus = load_corpus();
    assert!(corpus.len() >= 8, "corpus unexpectedly small: {corpus:?}");
    assert!(
        corpus.iter().any(|c| !c.floors.is_empty()),
        "no corpus file pins cost floors"
    );
    let mut merged = Coverage::new();
    for case in &corpus {
        let report = fuzz_with(case.seed, case.cases, 2, Oracle::Perf(None));
        assert!(
            report.divergences.is_empty(),
            "{} diverged:\n{}",
            case.path.display(),
            report.render(case.seed)
        );
        let perf = report.perf.as_ref().expect("perf oracle ran");
        assert!(
            perf.violations.is_empty(),
            "{} violated cost invariants:\n{}",
            case.path.display(),
            report.render(case.seed)
        );
        assert_eq!(report.coverage.cases, case.cases);
        let measure = |bound: &Bound, kind: &str| {
            let (_, totals) = perf
                .totals
                .iter()
                .find(|(l, _)| *l == bound.label)
                .unwrap_or_else(|| {
                    panic!(
                        "{}: unknown {kind} label {}",
                        case.path.display(),
                        bound.label
                    )
                });
            totals.get(&bound.metric).unwrap_or_else(|| {
                panic!(
                    "{}: unknown {kind} metric {}",
                    case.path.display(),
                    bound.metric
                )
            })
        };
        for floor in &case.floors {
            let measured = measure(floor, "floor");
            assert!(
                measured >= floor.value,
                "{}: {}.{} fell below its golden floor: {} < {}",
                case.path.display(),
                floor.label,
                floor.metric,
                measured,
                floor.value
            );
        }
        for ceil in &case.ceils {
            let measured = measure(ceil, "ceil");
            assert!(
                measured <= ceil.value,
                "{}: {}.{} rose above its golden ceiling: {} > {}",
                case.path.display(),
                ceil.label,
                ceil.metric,
                measured,
                ceil.value
            );
        }
        merge(&mut merged, &report.coverage);
    }
    assert!(
        merged.is_full(),
        "merged corpus coverage incomplete; missing opcodes {:?}, transitions {:?}",
        merged.uncovered_opcodes(),
        merged.missing_transitions()
    );
}
