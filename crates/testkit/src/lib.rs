//! Self-contained test and bench substrate.
//!
//! The workspace builds with **no network access and no external
//! crates**, so the usual `proptest`/`criterion` stack is replaced by
//! this crate:
//!
//! * [`Rng`] — a seeded SplitMix64 generator with the handful of
//!   drawing helpers the property suites need;
//! * [`forall!`] — a fixed-seed property-test harness: runs a body
//!   over N deterministic cases and, on failure, reports the case
//!   index and per-case seed so the failure replays exactly;
//! * [`minimize`] / [`run_forall_shrink`] — greedy shrinking: when a
//!   checked property fails, the counterexample is reduced through
//!   caller-supplied candidate mutations until no candidate still
//!   fails, and the *minimized* value is what the panic reports;
//! * [`mod@bench`] — a median-of-N wall-clock timer emitting JSON lines,
//!   wired as a `cargo bench`-compatible harness (`harness = false`).
//! * [`par_map`] — an order-preserving work-queue map over scoped
//!   threads, shared by the experiment scheduler and the fuzz loop.
//!
//! Everything is deterministic: the same seed always produces the
//! same cases, so a failure reported by CI replays locally bit-for-bit.
//!
//! # Environment overrides
//!
//! Every harness entry point re-reads its `cases`/`seed` arguments
//! through two environment variables, so a corpus case reported by
//! the fuzzer (or CI) replays without editing code:
//!
//! * `JRT_FUZZ_SEED` — overrides the seed (decimal or `0x`-hex);
//! * `JRT_FUZZ_CASES` — overrides the case count.
//!
//! E.g. `JRT_FUZZ_SEED=0x5EED JRT_FUZZ_CASES=1 cargo test -q fuzz`.
//!
//! # Examples
//!
//! ```
//! use jrt_testkit::forall;
//!
//! forall!(cases = 32, seed = 0x5EED, |rng| {
//!     let a = rng.i32();
//!     let b = rng.i32();
//!     assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
//! });
//! ```
//!
//! Shrinking form — `gen` draws a value, `shrink` proposes smaller
//! variants, `check` returns whether the property holds:
//!
//! ```
//! use jrt_testkit::forall;
//!
//! forall!(
//!     cases = 16,
//!     seed = 0xD1FF,
//!     gen = |rng| rng.vec(0..8, |r| r.i32_in(-100..100)),
//!     shrink = |v: &Vec<i32>| {
//!         (0..v.len())
//!             .map(|i| {
//!                 let mut s = v.clone();
//!                 s.remove(i);
//!                 s
//!             })
//!             .collect()
//!     },
//!     check = |v: &Vec<i32>| v.iter().map(|x| i64::from(*x)).sum::<i64>() < 1_000
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod stats;

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A seeded SplitMix64 pseudo-random generator.
///
/// SplitMix64 passes BigCrush, needs only one `u64` of state, and is
/// trivially splittable: [`Rng::for_case`] derives an independent
/// stream per property-test case so cases never share state and any
/// single case replays in isolation.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// Derives the independent per-case generator used by [`forall!`]
    /// for case `case` of a run seeded with `seed`.
    pub fn for_case(seed: u64, case: u64) -> Self {
        // Mix the case index through one SplitMix64 round so streams
        // for adjacent cases are uncorrelated.
        let mut r = Rng::new(seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    /// Next raw 64-bit value (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `u32`.
    pub fn u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `i32` over the full range.
    pub fn i32(&mut self) -> i32 {
        self.u32() as i32
    }

    /// Uniform `u8`.
    pub fn u8(&mut self) -> u8 {
        (self.next_u64() >> 56) as u8
    }

    /// Uniform `bool`.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Uniform `u64` in `[range.start, range.end)`. Uses the
    /// widening-multiply trick; the range must be non-empty.
    pub fn u64_in(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        let span = range.end - range.start;
        let wide = (self.next_u64() as u128).wrapping_mul(span as u128);
        range.start + (wide >> 64) as u64
    }

    /// Uniform `usize` in `[range.start, range.end)`.
    pub fn usize_in(&mut self, range: Range<usize>) -> usize {
        self.u64_in(range.start as u64..range.end as u64) as usize
    }

    /// Uniform `i32` in `[range.start, range.end)`.
    pub fn i32_in(&mut self, range: Range<i32>) -> i32 {
        let span = (range.end as i64 - range.start as i64) as u64;
        assert!(span > 0, "empty range");
        (range.start as i64 + self.u64_in(0..span) as i64) as i32
    }

    /// A vector with a length drawn from `len`, filled by `f`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut f: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        let n = self.usize_in(len);
        (0..n).map(|_| f(self)).collect()
    }

    /// A uniformly chosen element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.usize_in(0..items.len())]
    }
}

/// Parses an env var as `u64`, accepting decimal or `0x`-hex.
///
/// # Panics
///
/// Panics when the variable is set but unparsable — a silently
/// ignored override would fake a successful replay.
fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    match parse_u64(raw.trim()) {
        Some(v) => Some(v),
        None => panic!("{name} must be a decimal or 0x-hex integer, got {raw:?}"),
    }
}

/// Decimal or `0x`-hex.
fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// The `(cases, seed)` a harness should actually run: the caller's
/// values unless `JRT_FUZZ_CASES` / `JRT_FUZZ_SEED` override them
/// (see the crate docs).
pub fn effective_cases_seed(cases: u64, seed: u64) -> (u64, u64) {
    (
        env_u64("JRT_FUZZ_CASES").unwrap_or(cases),
        env_u64("JRT_FUZZ_SEED").unwrap_or(seed),
    )
}

/// Runs `body` over `cases` deterministic cases. On panic, re-raises
/// with the case index and per-case seed attached so the exact case
/// replays via [`Rng::for_case`]. The [`forall!`] macro is sugar over
/// this. `cases`/`seed` are subject to the `JRT_FUZZ_*` env
/// overrides (crate docs).
pub fn run_forall(cases: u64, seed: u64, mut body: impl FnMut(&mut Rng)) {
    let (cases, seed) = effective_cases_seed(cases, seed);
    for case in 0..cases {
        let mut rng = Rng::for_case(seed, case);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(payload) = result {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!(
                "property failed at case {case}/{cases} \
                 (replay with Rng::for_case({seed:#x}, {case})): {msg}"
            );
        }
    }
}

/// Greedy counterexample minimization.
///
/// Starting from `initial` (which must satisfy `fails`), repeatedly
/// asks `candidates` for smaller variants and adopts the first one
/// that still fails, until a full candidate pass yields nothing (a
/// local minimum) or an iteration bound is hit. Deterministic: the
/// result depends only on the inputs and the candidate order.
pub fn minimize<T: Clone>(
    initial: T,
    mut fails: impl FnMut(&T) -> bool,
    mut candidates: impl FnMut(&T) -> Vec<T>,
) -> T {
    let mut current = initial;
    // The bound guards against oscillating candidate sets; real
    // shrink sequences terminate long before it.
    for _ in 0..1_000 {
        let mut advanced = false;
        for cand in candidates(&current) {
            if fails(&cand) {
                current = cand;
                advanced = true;
                break;
            }
        }
        if !advanced {
            break;
        }
    }
    current
}

/// Shrinking property harness: `gen` draws a value per case, `check`
/// decides the property, and on failure the counterexample is
/// [`minimize`]d through `shrink` before the panic reports it (with
/// the case index and per-case seed, like [`run_forall`]).
/// `cases`/`seed` are subject to the `JRT_FUZZ_*` env overrides.
pub fn run_forall_shrink<T: Clone + std::fmt::Debug>(
    cases: u64,
    seed: u64,
    mut gen: impl FnMut(&mut Rng) -> T,
    mut shrink: impl FnMut(&T) -> Vec<T>,
    mut check: impl FnMut(&T) -> bool,
) {
    let (cases, seed) = effective_cases_seed(cases, seed);
    for case in 0..cases {
        let mut rng = Rng::for_case(seed, case);
        let value = gen(&mut rng);
        if check(&value) {
            continue;
        }
        let minimized = minimize(value, |v| !check(v), &mut shrink);
        panic!(
            "property failed at case {case}/{cases} \
             (replay with Rng::for_case({seed:#x}, {case})); \
             minimized counterexample: {minimized:?}"
        );
    }
}

/// Maps `f` over `items` on a work-queue of `workers` threads,
/// returning results **in input order** regardless of which worker
/// ran which item or when it finished.
///
/// With one worker (or one item) this degenerates to a plain
/// sequential `map` on the calling thread. A panic in any job
/// propagates to the caller after the scope joins.
///
/// ```
/// let squares = jrt_testkit::par_map(&[1u64, 2, 3, 4], 2, |&n| n * n);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = f(item);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every job ran")
        })
        .collect()
}

/// Fixed-seed property-test harness.
///
/// `forall!(cases = N, seed = S, |rng| { ... })` runs the body over
/// `N` deterministic cases; `rng` is a fresh per-case [`Rng`]. Any
/// panic/assert failure is re-reported with the failing case index.
///
/// The shrinking form
/// `forall!(cases = N, seed = S, gen = .., shrink = .., check = ..)`
/// is sugar over [`run_forall_shrink`]: failures are minimized
/// through the `shrink` candidates before being reported.
///
/// Both forms honor the `JRT_FUZZ_SEED` / `JRT_FUZZ_CASES` env
/// overrides (crate docs).
#[macro_export]
macro_rules! forall {
    (cases = $cases:expr, seed = $seed:expr, |$rng:ident| $body:block) => {
        $crate::run_forall($cases, $seed, |$rng: &mut $crate::Rng| $body)
    };
    (cases = $cases:expr, seed = $seed:expr,
     gen = $gen:expr, shrink = $shrink:expr, check = $check:expr) => {
        $crate::run_forall_shrink($cases, $seed, $gen, $shrink, $check)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_matches_reference_vector() {
        // Reference values for seed 1234567 from the canonical
        // SplitMix64 implementation (Steele et al.).
        let mut r = Rng::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            let v = r.u64_in(10..20);
            assert!((10..20).contains(&v));
            let w = r.i32_in(-5..5);
            assert!((-5..5).contains(&w));
            let n = r.vec(1..4, Rng::bool).len();
            assert!((1..4).contains(&n));
        }
    }

    #[test]
    fn cases_are_independent_and_replayable() {
        let mut seen = Vec::new();
        run_forall(8, 99, |rng| seen.push(rng.next_u64()));
        assert_eq!(seen.len(), 8);
        // No duplicate streams across cases.
        let mut uniq = seen.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 8);
        // Each case replays in isolation.
        assert_eq!(Rng::for_case(99, 3).next_u64(), seen[3]);
    }

    #[test]
    fn env_override_parses_decimal_and_hex() {
        assert_eq!(parse_u64("123"), Some(123));
        assert_eq!(parse_u64("0x7B"), Some(0x7B));
        assert_eq!(parse_u64("0XfF"), Some(255));
        assert_eq!(parse_u64("nope"), None);
        // With neither JRT_FUZZ_* variable set, the caller's values
        // pass through untouched.
        assert_eq!(effective_cases_seed(7, 0xABC), (7, 0xABC));
    }

    #[test]
    fn minimize_reaches_a_local_minimum() {
        // Failing = "sum >= 10"; dropping any element is a candidate.
        let fails = |v: &Vec<i32>| v.iter().sum::<i32>() >= 10;
        let cands = |v: &Vec<i32>| {
            (0..v.len())
                .map(|i| {
                    let mut s = v.clone();
                    s.remove(i);
                    s
                })
                .collect()
        };
        let min = minimize(vec![1, 9, 2, 8], fails, cands);
        // 9 + 8 >= 10 and no single removal keeps the sum >= 10
        // after both small elements go: greedy lands on a 2-element
        // local minimum.
        assert!(min.iter().sum::<i32>() >= 10);
        assert!(min.len() <= 2, "{min:?}");
    }

    #[test]
    fn shrinking_harness_reports_minimized_counterexample() {
        let err = std::panic::catch_unwind(|| {
            run_forall_shrink(
                8,
                0xBEEF,
                |rng| rng.vec(4..9, |r| r.i32_in(1..100)),
                |v: &Vec<i32>| {
                    (0..v.len())
                        .map(|i| {
                            let mut s = v.clone();
                            s.remove(i);
                            s
                        })
                        .collect()
                },
                |v: &Vec<i32>| v.len() < 3, // fails for every generated case
            )
        })
        .expect_err("must fail");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("minimized counterexample"), "{msg}");
        // Greedy removal shrinks any failing vec down to exactly the
        // 3-element boundary.
        assert!(msg.contains("property failed at case 0/8"), "{msg}");
    }

    #[test]
    fn failure_reports_case_index() {
        let err = std::panic::catch_unwind(|| {
            run_forall(10, 1, |rng| {
                let v = rng.u64_in(0..100);
                assert!(v < 1000, "always passes");
                if rng.next_u64() % 4 == 0 {
                    panic!("boom");
                }
            })
        })
        .expect_err("must fail");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("property failed at case"), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
    }
}
