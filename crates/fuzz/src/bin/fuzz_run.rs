//! Differential fuzzing driver.
//!
//! ```text
//! fuzz_run [--seed N|0xN] [--cases N] [--jobs N] [--out FILE]
//!          [--require-full-coverage] [--sabotage MODE]
//!          [--perf] [--perf-sabotage MODE]
//!          [--gc] [--gc-sabotage MODE:N]
//! ```
//!
//! Prints the deterministic coverage report (same bytes at any
//! `--jobs` count) and exits nonzero on any divergence, or — with
//! `--require-full-coverage` — when the opcode/transition map is not
//! fully exercised. `--perf` turns the performance oracle on: every
//! case also collects per-engine cost vectors under the one-pass cache
//! sweep, checks the cost-model invariants, appends per-engine cost
//! totals to the report, and exits nonzero on any violation.
//! `--perf-sabotage MODE` (implies `--perf`) corrupts that engine's
//! cost vector per case — the harness self-test. `--gc` runs the
//! matrix under the forcing tiny nursery instead (every engine
//! collecting, observables still compared); `--gc-sabotage MODE:N`
//! (implies `--gc`) drops that engine's `N`-th remembered-set
//! enrollment — a real injected collector bug the differential must
//! catch. `JRT_FUZZ_SEED` / `JRT_FUZZ_CASES` override the defaults;
//! explicit flags override the environment.

use jrt_fuzz::{fuzz_with, GcSabotage, Oracle, Sabotage, MATRIX_LABELS};

fn parse_u64(s: &str) -> u64 {
    let parsed = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    parsed.unwrap_or_else(|_| {
        eprintln!("fuzz_run: not a number: {s}");
        std::process::exit(2);
    })
}

/// The matrix label `mode` names; exits 2 on an unknown one.
fn matrix_label(mode: &str) -> &'static str {
    MATRIX_LABELS
        .into_iter()
        .find(|l| *l == mode)
        .unwrap_or_else(|| {
            eprintln!(
                "fuzz_run: unknown mode {mode}; matrix: {}",
                MATRIX_LABELS.join(" ")
            );
            std::process::exit(2);
        })
}

fn main() {
    let mut seed = 0x5EED_0001_u64;
    let mut cases = 256u64;
    let mut jobs = 1usize;
    let mut out: Option<String> = None;
    let mut require_full = false;
    let mut sabotage: Option<Sabotage> = None;
    let mut perf = false;
    let mut perf_sabotage: Option<Sabotage> = None;
    let mut gc = false;
    let mut gc_sabotage: Option<GcSabotage> = None;

    // Environment first; explicit flags below override it.
    (cases, seed) = jrt_testkit::effective_cases_seed(cases, seed);

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("fuzz_run: {name} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--seed" => seed = parse_u64(&value("--seed")),
            "--cases" => cases = parse_u64(&value("--cases")),
            "--jobs" => {
                jobs = parse_u64(&value("--jobs")) as usize;
                if jobs == 0 {
                    eprintln!("fuzz_run: --jobs expects a positive integer");
                    std::process::exit(2);
                }
            }
            "--out" => out = Some(value("--out")),
            "--require-full-coverage" => require_full = true,
            "--sabotage" => {
                let mode = matrix_label(&value("--sabotage"));
                sabotage = Some(Sabotage { mode });
            }
            "--perf" => perf = true,
            "--perf-sabotage" => {
                let mode = matrix_label(&value("--perf-sabotage"));
                perf = true;
                perf_sabotage = Some(Sabotage { mode });
            }
            "--gc" => gc = true,
            "--gc-sabotage" => {
                let spec = value("--gc-sabotage");
                let Some((mode, n)) = spec.split_once(':') else {
                    eprintln!("fuzz_run: --gc-sabotage wants MODE:N (e.g. jit:0)");
                    std::process::exit(2);
                };
                gc = true;
                gc_sabotage = Some(GcSabotage {
                    mode: matrix_label(mode),
                    drop: parse_u64(n),
                });
            }
            other => {
                eprintln!("fuzz_run: unknown argument {other}");
                std::process::exit(2);
            }
        }
    }

    if perf && sabotage.is_some() {
        eprintln!("fuzz_run: --sabotage and --perf are mutually exclusive");
        std::process::exit(2);
    }
    if gc && (perf || sabotage.is_some()) {
        eprintln!("fuzz_run: --gc excludes --perf and --sabotage");
        std::process::exit(2);
    }
    let oracle = if gc {
        Oracle::Gc(gc_sabotage)
    } else if perf {
        Oracle::Perf(perf_sabotage)
    } else {
        Oracle::Diff(sabotage)
    };
    let report = fuzz_with(seed, cases, jobs, oracle);
    let text = report.render(seed);
    print!("{text}");
    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("fuzz_run: writing {path}: {e}");
            std::process::exit(2);
        }
    }
    if !report.divergences.is_empty() {
        eprintln!("fuzz_run: {} divergence(s)", report.divergences.len());
        std::process::exit(1);
    }
    if let Some(p) = &report.perf {
        if !p.violations.is_empty() {
            eprintln!("fuzz_run: {} perf violation(s)", p.violations.len());
            std::process::exit(1);
        }
    }
    if require_full && !report.coverage.is_full() {
        eprintln!(
            "fuzz_run: coverage incomplete; missing opcodes: {:?}; missing transitions: {:?}",
            report.coverage.uncovered_opcodes(),
            report.coverage.missing_transitions()
        );
        std::process::exit(1);
    }
}
