//! Parallel experiment scheduler.
//!
//! Every experiment in this crate is trace-driven and embarrassingly
//! parallel: the unit of work is one `(experiment, workload, mode)`
//! simulation with its own thread-local sinks (caches, predictors,
//! pipelines), so the full cross-product fans out over a work-queue
//! of OS threads and merges back **in canonical job order**. That
//! ordering rule is what keeps `EXPERIMENTS.md` bit-identical across
//! worker counts (DESIGN.md §5.4): workers may finish in any order,
//! but results are collected into the slot of the job that produced
//! them, and every aggregation (instruction-mix merges, miss-count
//! sums, float averages) runs over the collected vector in job order
//! — exactly the order the sequential loops used.
//!
//! Worker count: the `JRT_JOBS` environment variable if set (a
//! process-wide [`set_jobs`] override wins over it), otherwise
//! [`std::thread::available_parallelism`]. A count of 1 runs jobs
//! inline on the calling thread — that *is* the sequential path.
//! `run_all` and the examples read their arguments through
//! [`cli_args`], which refuses a `JRT_JOBS` that is not a positive
//! integer, as it refuses such a `--jobs`.
//!
//! # Examples
//!
//! ```
//! use jrt_experiments::jobs;
//!
//! let squares = jobs::par_map(&[1u64, 2, 3, 4], |&n| n * n);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use jrt_bytecode::Program;
use jrt_workloads::{Size, Spec};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Process-wide worker-count override; 0 means "not set".
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker count for every subsequent [`par_map`] in
/// this process (stronger than `JRT_JOBS`). Pass 0 to clear.
pub fn set_jobs(n: usize) {
    JOBS_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The worker count the scheduler will use: [`set_jobs`] override,
/// then `JRT_JOBS`, then [`std::thread::available_parallelism`]. A
/// `JRT_JOBS` that is not a positive integer counts as unset here;
/// [`cli_args`] refuses it before any job runs.
pub fn worker_count() -> usize {
    let forced = JOBS_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Ok(Some(n)) = env_jobs() {
        return n;
    }
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The worker count `JRT_JOBS` sets: `None` when it is unset, and an
/// error naming the variable when it is set to anything but a
/// positive integer.
fn env_jobs() -> Result<Option<usize>, String> {
    let Some(value) = std::env::var_os("JRT_JOBS") else {
        return Ok(None);
    };
    match value.to_str().map(str::parse::<usize>) {
        Some(Ok(n)) if n > 0 => Ok(Some(n)),
        _ => Err(format!(
            "JRT_JOBS expects a positive integer, got {value:?}"
        )),
    }
}

/// Returns the process arguments (program name skipped) with
/// `--jobs N` / `--jobs=N` consumed into [`set_jobs`]. `run_all` and
/// the examples call this instead of touching `std::env::args` so
/// every one of them understands the same jobs flag. A `--jobs` or a
/// `JRT_JOBS` that is not a positive integer ends the process with
/// status 2 and a message naming it.
pub fn cli_args() -> Vec<String> {
    if let Err(e) = env_jobs() {
        eprintln!("{e}");
        std::process::exit(2);
    }
    let mut out = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--jobs" {
            let n = args
                .next()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| {
                    eprintln!("--jobs expects a positive integer");
                    std::process::exit(2);
                });
            set_jobs(n);
        } else if let Some(v) = arg.strip_prefix("--jobs=") {
            match v.parse::<usize>() {
                Ok(n) if n > 0 => set_jobs(n),
                _ => {
                    eprintln!("--jobs expects a positive integer");
                    std::process::exit(2);
                }
            }
        } else {
            out.push(arg);
        }
    }
    out
}

/// Maps `f` over `items` on a work-queue of [`worker_count`] threads
/// ([`jrt_testkit::par_map`]), returning results **in input order**
/// regardless of which worker ran which item or when it finished.
///
/// With one worker (or one item) this degenerates to a plain
/// sequential `map` on the calling thread. A panic in any job
/// propagates to the caller after the scope joins.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    jrt_testkit::par_map(items, worker_count(), f)
}

/// A benchmark with its program built once and shared immutably
/// across every job that simulates it (`Program` is `Sync`; each
/// worker runs its own `Vm` against the shared instance).
#[derive(Debug, Clone)]
pub struct Workload {
    /// The benchmark descriptor.
    pub spec: Spec,
    /// The assembled program, shared across jobs.
    pub program: Arc<Program>,
    /// The size it was built at.
    pub size: Size,
}

impl Workload {
    /// Asserts `result` carries this workload's expected checksum.
    pub fn check(&self, result: &jrt_vm::RunResult) {
        assert_eq!(
            result.exit_value,
            Some((self.spec.expected)(self.size)),
            "{} checksum mismatch in {} mode",
            self.spec.name,
            result.mode
        );
    }
}

/// Builds every program of `specs` at `size` — itself in parallel —
/// and wraps them for job fan-out. Programs come from the
/// [`crate::tape`] memo, so across the seventeen drivers of a
/// `run_all` each benchmark is assembled exactly once.
pub fn prebuild(specs: Vec<Spec>, size: Size) -> Vec<Workload> {
    par_map(&specs, |spec| crate::tape::workload(spec, size))
}

/// The canonical-order cross-product `a × b` (`a`-major, matching the
/// nested `for` loops the sequential drivers used).
pub fn cross<A: Clone, B: Clone>(a: &[A], b: &[B]) -> Vec<(A, B)> {
    let mut out = Vec::with_capacity(a.len() * b.len());
    for x in a {
        for y in b {
            out.push((x.clone(), y.clone()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Mode;
    use crate::tape;
    use jrt_trace::CountingSink;
    use jrt_workloads::hello;
    use std::sync::Mutex;

    /// `set_jobs` is process-global; tests that touch it serialize
    /// here so the harness's own parallelism can't interleave them.
    static GLOBAL_JOBS: Mutex<()> = Mutex::new(());

    fn jobs_lock() -> std::sync::MutexGuard<'static, ()> {
        GLOBAL_JOBS.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn par_map_preserves_input_order() {
        let _g = jobs_lock();
        for forced in [1, 2, 8] {
            set_jobs(forced);
            let out = par_map(&(0..100u64).collect::<Vec<_>>(), |&n| n * 2);
            assert_eq!(out, (0..100).map(|n| n * 2).collect::<Vec<_>>());
        }
        set_jobs(0);
    }

    #[test]
    fn par_map_runs_every_item_exactly_once() {
        let _g = jobs_lock();
        set_jobs(4);
        let hits = AtomicUsize::new(0);
        let out = par_map(&[5u32; 37], |&v| {
            hits.fetch_add(1, Ordering::Relaxed);
            v
        });
        set_jobs(0);
        assert_eq!(out.len(), 37);
        assert_eq!(hits.load(Ordering::Relaxed), 37);
    }

    #[test]
    fn cross_is_a_major() {
        let c = cross(&['a', 'b'], &[1, 2]);
        assert_eq!(c, vec![('a', 1), ('a', 2), ('b', 1), ('b', 2)]);
    }

    #[test]
    fn worker_count_override_wins() {
        let _g = jobs_lock();
        set_jobs(3);
        assert_eq!(worker_count(), 3);
        set_jobs(0);
        assert!(worker_count() >= 1);
    }

    #[test]
    fn shared_program_runs_identically_across_workers() {
        let loads = prebuild(
            vec![Spec {
                name: "hello",
                build: hello::program,
                expected: hello::expected,
                multithreaded: false,
            }],
            Size::Tiny,
        );
        let jobs = cross(&loads, &Mode::BOTH);
        let _g = jobs_lock();
        set_jobs(2);
        let totals = par_map(&jobs, |(w, mode)| {
            let mut sink = CountingSink::new();
            tape::run(w, tape::config(w, *mode), &mut sink);
            sink.total()
        });
        set_jobs(0);
        assert_eq!(totals.len(), 2);
        assert!(totals.iter().all(|&t| t > 0));
    }
}
