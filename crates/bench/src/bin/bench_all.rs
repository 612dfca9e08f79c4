//! Runs both bench suites and writes `BENCH_experiments.json` — one
//! JSON line per benchmark (suite, name, per-sample ns, median ns,
//! steady-state verdict), plus one `_suite_total` rollup line per
//! suite (sum of the suite's medians), so a single grep tracks
//! whole-suite drift.
//!
//! Usage: `bench_all [filter] [output-path] [--check-against FILE [FACTOR]]`.
//! `JRT_BENCH_SAMPLES` sets the sample count (default 5).
//!
//! `--check-against` compares every measured bench to the same
//! `(suite, bench)` line in a baseline JSON file. Only *steady-state*
//! windows gate: a steady bench fails (exit 1) when its steady median
//! exceeds FACTOR × the baseline's steady median (default 2.0 —
//! generous so shared-runner noise doesn't flake, while real
//! regressions trip). A bench that never reached steady state is
//! annotated as warm-up drift and never fails the gate.
//!
//! Exit status: 0 when the report was written and passed any check;
//! 1 when a steady bench regressed past its baseline (the report is
//! still written); 2 on a usage error, an unreadable or empty
//! baseline, a filter that matches no bench, or an unwritable report.
//! Usage errors and baseline problems are found before any bench runs.

use jrt_bench::check::{check, parse_baseline};
use jrt_bench::{bench_paper, bench_simulators};
use jrt_testkit::bench::{BenchResult, Harness};
use jrt_testkit::stats::LatencyHistogram;
use std::process::exit;

const HELP: &str = "\
usage: bench_all [filter] [output-path] [--check-against FILE [FACTOR]]
Runs the paper and simulators bench suites and writes one JSON line
per benchmark plus a _suite_total rollup per suite (default:
BENCH_experiments.json). JRT_BENCH_SAMPLES sets the sample count
(default 5).
  --check-against FILE [FACTOR]  after measuring, fail (exit 1) if any
                                 steady-state bench's steady median
                                 exceeds FACTOR x the steady median
                                 recorded for it in FILE (default
                                 factor: 2.0). Benches that did not
                                 reach steady state are annotated as
                                 warm-up drift, not failed. FACTOR, if
                                 given, must directly follow FILE.

Exit status: 0 when the report was written (and passed the check); 1
when a steady bench regressed (the report is still written); 2 on a
usage error, an unreadable or empty baseline, a filter that matches no
bench, or an unwritable report. Usage errors and baseline problems are
reported before any bench runs.";

/// Reports a usage error and exits with status 2.
fn usage(msg: &str) -> ! {
    eprintln!("bench_all: {msg} (see --help)");
    exit(2);
}

/// Appends the per-suite rollup lines: median sums under the
/// `_suite_total` pseudo-bench. The rollup is always marked steady so
/// the whole-suite gate stays armed; its steady median sums the
/// members' steady medians.
fn add_rollups(results: &mut Vec<BenchResult>) {
    let suites: Vec<String> = {
        let mut s: Vec<String> = results.iter().map(|r| r.suite.clone()).collect();
        s.dedup();
        s
    };
    for suite in suites {
        let in_suite: Vec<&BenchResult> = results.iter().filter(|r| r.suite == suite).collect();
        let total: u128 = in_suite.iter().map(|r| r.median_ns).sum();
        let steady_total: u128 = in_suite.iter().map(|r| r.steady_median_ns).sum();
        let rollup = BenchResult {
            suite: suite.clone(),
            name: "_suite_total".into(),
            iters: in_suite.len() as u64,
            samples_ns: vec![total],
            median_ns: total,
            steady_state: true,
            warmup_iters: 0,
            steady_median_ns: steady_total,
        };
        println!("{}", rollup.to_json());
        results.push(rollup);
    }
}

/// Logs each suite's per-sample spread (p50/p99/p999 across every
/// sample of every bench) — the quick read on how noisy this runner
/// was, on the same quantile helper the serve study reports with.
fn log_sample_spread(results: &[BenchResult]) {
    let mut suites: Vec<&str> = results.iter().map(|r| r.suite.as_str()).collect();
    suites.dedup();
    for suite in suites {
        let mut hist = LatencyHistogram::new();
        for r in results.iter().filter(|r| r.suite == suite) {
            for &s in &r.samples_ns {
                hist.record(u64::try_from(s).unwrap_or(u64::MAX));
            }
        }
        if let Some(q) = hist.quantiles() {
            eprintln!(
                "[bench_all] {suite} sample spread: p50 {} ns, p99 {} ns, p999 {} ns over {} samples",
                q.p50,
                q.p99,
                q.p999,
                hist.len()
            );
        }
    }
}

fn main() {
    let mut positional = Vec::new();
    let mut check_against = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{HELP}");
                return;
            }
            "--check-against" => {
                let path = args
                    .next()
                    .unwrap_or_else(|| usage("--check-against needs a baseline path"));
                let factor = match args.next_if(|a| !a.starts_with('-')) {
                    None => 2.0,
                    Some(f) => f
                        .parse::<f64>()
                        .ok()
                        .filter(|x| x.is_finite() && *x > 0.0)
                        .unwrap_or_else(|| {
                            usage(&format!("FACTOR must be a positive number, got {f:?}"))
                        }),
                };
                check_against = Some((path, factor));
            }
            flag if flag.starts_with('-') => usage(&format!("unknown flag {flag:?}")),
            _ => positional.push(arg),
        }
    }
    let mut positional = positional.into_iter();
    let filter = positional.next();
    let out = positional
        .next()
        .unwrap_or_else(|| "BENCH_experiments.json".into());
    if let Some(extra) = positional.next() {
        usage(&format!("unexpected argument {extra:?}"));
    }
    // The baseline is read before any bench runs: a bad path must not
    // cost a full measurement pass.
    let baseline = check_against.map(|(path, factor)| {
        let entries = match std::fs::read_to_string(&path) {
            Ok(text) => parse_baseline(&text),
            Err(e) => {
                eprintln!("bench_all: reading baseline {path}: {e}");
                exit(2);
            }
        };
        if entries.is_empty() {
            eprintln!("bench_all: baseline {path} holds no bench results");
            exit(2);
        }
        (path, entries, factor)
    });

    let mut results = Vec::new();
    for (suite, run) in [
        ("paper", bench_paper as fn(&mut Harness)),
        ("simulators", bench_simulators),
    ] {
        let mut h = Harness::new(suite).with_filter(filter.clone());
        run(&mut h);
        results.extend(h.into_results());
    }

    if results.is_empty() {
        eprintln!(
            "bench_all: filter {:?} matched no benchmarks; nothing written",
            filter.as_deref().unwrap_or("")
        );
        exit(2);
    }
    log_sample_spread(&results);
    add_rollups(&mut results);
    let lines: Vec<String> = results.iter().map(|r| r.to_json()).collect();
    if let Err(e) = std::fs::write(&out, lines.join("\n") + "\n") {
        eprintln!("bench_all: writing {out}: {e}");
        exit(2);
    }
    eprintln!("[bench_all] wrote {} results to {out}", results.len());

    if let Some((path, baseline, factor)) = baseline {
        // Rollups are only comparable between full runs; under a
        // filter the partial sum can never *exceed* the full baseline,
        // so including them is safe and full runs still get checked.
        let report = check(&results, &baseline, factor);
        for line in report
            .passes
            .iter()
            .chain(&report.annotations)
            .chain(&report.regressions)
        {
            eprintln!("[bench_all] {line}");
        }
        eprintln!(
            "[bench_all] checked {} benches against {path}: {} regression(s), {} warm-up annotation(s)",
            report.compared,
            report.regressions.len(),
            report.annotations.len()
        );
        if !report.ok() {
            exit(1);
        }
    }
}
