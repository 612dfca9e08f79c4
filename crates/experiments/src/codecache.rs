//! Code-cache study (`run_all --filter codecache`) — capacity, sharing,
//! and tiering behavior of the managed code cache (`jrt-codecache`).
//!
//! The paper's code cache is append-only: Section 3 notes the JIT's
//! memory overhead (Table 1) *is* the code cache plus translator, and
//! Figure 1 prices translation against reuse. This study asks the
//! follow-on questions a managed cache raises:
//!
//! * **Capacity** — sweep the cache to 1/2, 1/4, and 1/8 of each
//!   benchmark's bytes-ever-translated under three eviction policies.
//!   Evicted methods fall back to interpretation until re-translated,
//!   so the re-translation overhead appears directly in the
//!   Translate-phase instruction counts.
//! * **Sharing** — ShareJIT-style content-addressed install-once
//!   dedup ([`CacheScope::Shared`]) versus one cache per green thread
//!   ([`CacheScope::PerThread`]) and the default per-VM cache, on the
//!   two multithreaded workloads (`mtrt` and the four-context `multi`
//!   harness).
//! * **Tiering** — translate-on-first-invocation versus a two-tier
//!   policy (cheap baseline tier, hot methods re-translated at a
//!   denser optimizing tier), the HotSpot-style refinement of
//!   Figure 1's when-to-translate question.
//! * **Crossover** — at a pathologically small cache the extra
//!   re-translation work exceeds everything the paper's `opt` oracle
//!   can save, bounding how small a real cache may be provisioned.
//!
//! [`CacheScope::Shared`]: jrt_vm::CacheScope::Shared
//! [`CacheScope::PerThread`]: jrt_vm::CacheScope::PerThread

use crate::jobs::{self, Workload};
use crate::pass::{self, Pass};
use crate::report::verdict;
use crate::runner::Mode;
use crate::table::{count, Table};
use crate::tape::{self, RunSummary};
use jrt_cache::{CacheConfig, SplitSweep};
use jrt_trace::{CountingSink, Phase, Region};
use jrt_vm::{CacheScope, CodeCacheConfig, EvictionPolicy, ExecMode, JitPolicy, Vm, VmConfig};
use jrt_workloads::{multi, suite, Size, Spec};

/// Benchmarks swept by the capacity and tiering studies: the paper's
/// translation-heavy (`db`, `javac`), execution-heavy (`compress`),
/// and multithreaded (`mtrt`) representatives.
pub const SWEEP: [&str; 4] = ["compress", "db", "javac", "mtrt"];

/// The tiered policy under study: translate on first invocation at
/// the baseline tier, recompile at the optimizing tier once a
/// method's hotness score reaches 32.
pub const TIERED: JitPolicy = JitPolicy::Tiered { t1: 1, t2: 32 };

/// The capacity fractions swept (denominators of bytes-ever-translated).
const FRACTIONS: [(u64, &str); 3] = [(2, "1/2"), (4, "1/4"), (8, "1/8")];

/// The pathologically small absolute capacity. 384 bytes sits below
/// every swept benchmark's largest method (pinning those methods
/// uncacheable — they interpret for the whole run) *and* below the
/// per-phase working set of small hot methods, which then evict each
/// other and re-translate on re-invocation: both thrash mechanisms at
/// once.
pub const PATHOLOGICAL_CAPACITY: u64 = 384;
const PATHOLOGICAL_LABEL: &str = "384B";

/// Capacity points per (benchmark, policy): the three fractions plus
/// the pathological absolute point.
const POINTS_PER_POLICY: usize = FRACTIONS.len() + 1;

/// The `multi` harness as a [`Spec`] (it lives outside the SpecJVM98
/// suite).
pub fn multi_spec() -> Spec {
    Spec {
        name: "multi",
        build: multi::program,
        expected: multi::expected,
        multithreaded: true,
    }
}

/// Everything one measured run yields.
#[derive(Debug, Clone, Copy)]
struct Measured {
    total: u64,
    translate: u64,
    cc_write_misses: u64,
    translations: u32,
    retranslations: u64,
    evictions: u64,
    tier2: u32,
    live_bytes: u64,
    ever_bytes: u64,
    largest_bytes: u64,
}

impl Measured {
    /// A run's counts and counters, with the code-cache write misses
    /// its caller simulated.
    fn new(run: &RunSummary, cc_write_misses: u64) -> Measured {
        let (counts, result) = (&run.counts, &run.result);
        Measured {
            total: counts.total(),
            translate: counts.phase(Phase::Translate),
            cc_write_misses,
            translations: result.counters.methods_translated,
            retranslations: result.counters.retranslations,
            evictions: result.counters.code_evictions,
            tier2: result.counters.tier2_recompiles,
            live_bytes: result.footprint.code_cache_bytes,
            ever_bytes: result.footprint.code_ever_bytes,
            largest_bytes: result.counters.largest_method_bytes,
        }
    }
}

/// Direct VM run under `cfg`, counting instructions and the paper's L1
/// D-cache write misses to the code cache, the point [`baseline`]
/// reads off the shared pass.
fn run_cfg(w: &Workload, cfg: VmConfig) -> Measured {
    let mut sinks = (
        CountingSink::new(),
        SplitSweep::new(&[], &[CacheConfig::paper_l1_data()]),
    );
    let result = Vm::new(&w.program, cfg)
        .run(&mut sinks)
        .expect("workload runs clean");
    w.check(&result);
    let (counts, sweep) = sinks;
    let d = &sweep.dcache().results()[0];
    let cc_write_misses = d.region_stats(Region::CodeCache).write_misses;
    Measured::new(&RunSummary { result, counts }, cc_write_misses)
}

/// The unbounded per-VM JIT baseline: the pass's JIT run summary (no
/// extra VM run) and its code-cache write misses off the shared pass.
fn baseline(pass: &Pass, w: &Workload) -> Measured {
    let d = pass
        .tape(w.spec.name, Mode::Jit)
        .dcache(CacheConfig::paper_l1_data());
    Measured::new(
        &tape::summary(w, Mode::Jit),
        d.region_stats(Region::CodeCache).write_misses,
    )
}

/// One row of the capacity sweep.
#[derive(Debug, Clone)]
pub struct CapacityRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Eviction policy label.
    pub policy: &'static str,
    /// Capacity label ("unbounded", "1/2", "1/4", "1/8").
    pub cap: &'static str,
    /// Total trace instructions.
    pub total: u64,
    /// Translate-phase trace instructions.
    pub translate: u64,
    /// Methods translated (including re-translations).
    pub translations: u32,
    /// Translations of previously evicted methods.
    pub retranslations: u64,
    /// Evictions performed.
    pub evictions: u64,
    /// Live arena occupancy at exit.
    pub live_bytes: u64,
    /// Bytes ever translated.
    pub ever_bytes: u64,
    /// Code-cache-region write misses in the paper's L1 D-cache.
    pub cc_write_misses: u64,
}

/// One row of the sharing comparison.
#[derive(Debug, Clone)]
pub struct SharingRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Scope label ("private", "per-vm", "shared").
    pub scope: &'static str,
    /// Total trace instructions.
    pub total: u64,
    /// Translate-phase trace instructions.
    pub translate: u64,
    /// Methods translated.
    pub translations: u32,
    /// Code-cache-region write misses.
    pub cc_write_misses: u64,
}

/// One row of the tiering comparison.
#[derive(Debug, Clone)]
pub struct TieringRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Mode label ("jit", "tiered").
    pub mode: &'static str,
    /// Total trace instructions.
    pub total: u64,
    /// Translate-phase trace instructions.
    pub translate: u64,
    /// Methods translated (tier upgrades included).
    pub translations: u32,
    /// Optimizing-tier recompiles.
    pub tier2: u32,
    /// Bytes ever translated.
    pub ever_bytes: u64,
}

/// One benchmark's thrash-vs-oracle crossover.
#[derive(Debug, Clone)]
pub struct CrossoverRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Extra instructions at the pathological 384 B capacity (LRU)
    /// over unbounded.
    pub thrash_extra: i64,
    /// Instructions the `opt` oracle saves over plain JIT.
    pub oracle_saving: i64,
}

/// The full study.
#[derive(Debug, Clone)]
pub struct CodeCacheStudy {
    /// Capacity sweep rows, benchmark-major then policy then fraction.
    pub capacity: Vec<CapacityRow>,
    /// Sharing rows, benchmark-major in scope order private → per-vm
    /// → shared.
    pub sharing: Vec<SharingRow>,
    /// Tiering rows, benchmark-major in mode order jit → tiered.
    pub tiering: Vec<TieringRow>,
    /// Crossover rows, one per swept benchmark.
    pub crossover: Vec<CrossoverRow>,
    /// The largest single translated method across the sweep — the
    /// size the pathological capacity deliberately undercuts.
    pub largest_method_bytes: u64,
}

fn sweep_specs() -> Vec<Spec> {
    suite()
        .into_iter()
        .filter(|s| SWEEP.contains(&s.name))
        .collect()
}

fn capacity_rows(pass: &Pass, loads: &[Workload]) -> (Vec<CapacityRow>, u64) {
    // The bounded runs need each benchmark's bytes-ever-translated to
    // size the cache, so the unbounded baselines come first.
    let bases: Vec<Measured> = loads.iter().map(|w| baseline(pass, w)).collect();
    let largest = bases.iter().map(|b| b.largest_bytes).max().unwrap_or(0);

    #[derive(Clone)]
    struct Job {
        w: Workload,
        policy: EvictionPolicy,
        cap_label: &'static str,
        capacity: u64,
    }
    let mut jobs_list = Vec::new();
    for (w, base) in loads.iter().zip(&bases) {
        for policy in [
            EvictionPolicy::Lru,
            EvictionPolicy::SizeWeightedLru,
            EvictionPolicy::HotnessDecay,
        ] {
            for (den, label) in FRACTIONS {
                jobs_list.push(Job {
                    w: w.clone(),
                    policy,
                    cap_label: label,
                    capacity: (base.ever_bytes / den).max(1),
                });
            }
            jobs_list.push(Job {
                w: w.clone(),
                policy,
                cap_label: PATHOLOGICAL_LABEL,
                capacity: PATHOLOGICAL_CAPACITY,
            });
        }
    }
    let bounded = jobs::par_map(&jobs_list, |j| {
        let cfg = VmConfig::jit().with_code_cache(CodeCacheConfig::bounded(j.capacity, j.policy));
        run_cfg(&j.w, cfg)
    });

    let mut rows = Vec::new();
    let mut it = jobs_list.iter().zip(bounded);
    for (w, base) in loads.iter().zip(&bases) {
        rows.push(CapacityRow {
            name: w.spec.name,
            policy: EvictionPolicy::Unbounded.label(),
            cap: "unbounded",
            total: base.total,
            translate: base.translate,
            translations: base.translations,
            retranslations: base.retranslations,
            evictions: base.evictions,
            live_bytes: base.live_bytes,
            ever_bytes: base.ever_bytes,
            cc_write_misses: base.cc_write_misses,
        });
        for _ in 0..(3 * POINTS_PER_POLICY) {
            let (j, m) = it.next().expect("job per (bench, policy, fraction)");
            rows.push(CapacityRow {
                name: j.w.spec.name,
                policy: j.policy.label(),
                cap: j.cap_label,
                total: m.total,
                translate: m.translate,
                translations: m.translations,
                retranslations: m.retranslations,
                evictions: m.evictions,
                live_bytes: m.live_bytes,
                ever_bytes: m.ever_bytes,
                cc_write_misses: m.cc_write_misses,
            });
        }
    }
    (rows, largest)
}

fn sharing_rows(pass: &Pass, size: Size) -> Vec<SharingRow> {
    let mtrt = suite()
        .into_iter()
        .find(|s| s.name == "mtrt")
        .expect("mtrt");
    let loads = jobs::prebuild(vec![mtrt, multi_spec()], size);
    let scopes = [CacheScope::PerThread, CacheScope::PerVm, CacheScope::Shared];
    let cells = jobs::cross(&loads, &scopes);
    let measured = jobs::par_map(&cells, |(w, scope)| match scope {
        // The default cache is the unbounded per-VM one.
        CacheScope::PerVm if SWEEP.contains(&w.spec.name) => baseline(pass, w),
        _ => {
            let cc = CodeCacheConfig::default().with_scope(*scope);
            run_cfg(w, VmConfig::jit().with_code_cache(cc))
        }
    });
    cells
        .iter()
        .zip(measured)
        .map(|((w, scope), m)| SharingRow {
            name: w.spec.name,
            scope: scope.label(),
            total: m.total,
            translate: m.translate,
            translations: m.translations,
            cc_write_misses: m.cc_write_misses,
        })
        .collect()
}

fn tiering_rows(loads: &[Workload]) -> Vec<TieringRow> {
    let modes: [&'static str; 2] = ["jit", "tiered"];
    let cells = jobs::cross(loads, &modes);
    // The table reads no cache numbers, so the jit row is the JIT
    // run's summary and the tiered row a count-only run.
    let measured = jobs::par_map(&cells, |(w, mode)| match *mode {
        "jit" => Measured::new(&tape::summary(w, Mode::Jit), 0),
        _ => {
            let cfg = VmConfig {
                mode: ExecMode::Jit(TIERED),
                ..VmConfig::default()
            };
            let mut counts = CountingSink::new();
            let result = Vm::new(&w.program, cfg)
                .run(&mut counts)
                .expect("workload runs clean");
            w.check(&result);
            Measured::new(&RunSummary { result, counts }, 0)
        }
    });
    cells
        .iter()
        .zip(measured)
        .map(|((w, mode), m)| TieringRow {
            name: w.spec.name,
            mode,
            total: m.total,
            translate: m.translate,
            translations: m.translations,
            tier2: m.tier2,
            ever_bytes: m.ever_bytes,
        })
        .collect()
}

fn crossover_rows(loads: &[Workload], capacity: &[CapacityRow]) -> Vec<CrossoverRow> {
    let opts = jobs::par_map(loads, |w| tape::summary(w, Mode::Opt).counts.total());
    loads
        .iter()
        .zip(&opts)
        .map(|(w, opt)| {
            let name = w.spec.name;
            let find = |policy: &str, cap: &str| {
                capacity
                    .iter()
                    .find(|r| r.name == name && r.policy == policy && r.cap == cap)
                    .expect("capacity row present")
            };
            let unbounded = find("unbounded", "unbounded");
            let thrash = find(EvictionPolicy::Lru.label(), PATHOLOGICAL_LABEL);
            let jit = unbounded.total as i64;
            CrossoverRow {
                name,
                thrash_extra: thrash.total as i64 - jit,
                oracle_saving: jit - *opt as i64,
            }
        })
        .collect()
}

/// The full study at `size`, its unbounded baseline off the shared
/// pass.
pub fn view(pass: &Pass, size: Size) -> CodeCacheStudy {
    let loads = jobs::prebuild(sweep_specs(), size);
    let (capacity, largest_method_bytes) = capacity_rows(pass, &loads);
    let crossover = crossover_rows(&loads, &capacity);
    CodeCacheStudy {
        crossover,
        sharing: sharing_rows(pass, size),
        tiering: tiering_rows(&loads),
        capacity,
        largest_method_bytes,
    }
}

/// Runs the full study at `size`: the shared pass for it alone, plus
/// the study's own VM runs.
pub fn run(size: Size) -> CodeCacheStudy {
    view(&pass::run(size, &["codecache"]), size)
}

impl CodeCacheStudy {
    /// Renders the capacity-sweep table.
    pub fn capacity_table(&self) -> Table {
        let mut t = Table::new(
            "Code cache capacity sweep (capacity as a fraction of bytes ever translated)",
            &[
                "benchmark",
                "policy",
                "capacity",
                "total insts",
                "translate insts",
                "translations",
                "re-translations",
                "evictions",
                "live bytes",
                "CC write misses",
            ],
        );
        for r in &self.capacity {
            t.row(vec![
                r.name.into(),
                r.policy.into(),
                r.cap.into(),
                count(r.total),
                count(r.translate),
                count(u64::from(r.translations)),
                count(r.retranslations),
                count(r.evictions),
                count(r.live_bytes),
                count(r.cc_write_misses),
            ]);
        }
        t
    }

    /// Renders the sharing table.
    pub fn sharing_table(&self) -> Table {
        let mut t = Table::new(
            "Shared vs private code cache (multithreaded workloads, unbounded capacity)",
            &[
                "benchmark",
                "scope",
                "total insts",
                "translate insts",
                "translations",
                "CC write misses",
            ],
        );
        for r in &self.sharing {
            t.row(vec![
                r.name.into(),
                r.scope.into(),
                count(r.total),
                count(r.translate),
                count(u64::from(r.translations)),
                count(r.cc_write_misses),
            ]);
        }
        t
    }

    /// Renders the tiering table.
    pub fn tiering_table(&self) -> Table {
        let mut t = Table::new(
            "Tiered recompilation vs translate-on-first-invocation",
            &[
                "benchmark",
                "mode",
                "total insts",
                "translate insts",
                "translations",
                "tier-2 recompiles",
                "code bytes",
            ],
        );
        for r in &self.tiering {
            t.row(vec![
                r.name.into(),
                r.mode.into(),
                count(r.total),
                count(r.translate),
                count(u64::from(r.translations)),
                count(u64::from(r.tier2)),
                count(r.ever_bytes),
            ]);
        }
        t
    }

    /// Renders the crossover table.
    pub fn crossover_table(&self) -> Table {
        let mut t = Table::new(
            "Thrash crossover: overhead of the pathological 384 B cache (LRU) vs the opt oracle's savings",
            &["benchmark", "thrash extra insts", "oracle saving insts"],
        );
        for r in &self.crossover {
            t.row(vec![
                r.name.into(),
                count(r.thrash_extra.max(0) as u64),
                count(r.oracle_saving.max(0) as u64),
            ]);
        }
        t
    }

    /// Whether every swept benchmark's thrash overhead at the
    /// pathological capacity exceeds its oracle saving. Holds from
    /// `s1` upward; at `tiny` the translation-dominated `db` run has
    /// too little execution volume to cross.
    pub fn thrash_exceeds_oracle(&self) -> bool {
        self.crossover
            .iter()
            .all(|r| r.thrash_extra > r.oracle_saving)
    }

    /// Renders the full study as the `EXPERIMENTS.md` section (what
    /// `run_all --filter codecache` writes after the header).
    pub fn to_markdown(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let w = &mut out;
        let _ = writeln!(w, "## Managed code cache — capacity, sharing, tiering\n");
        let _ = writeln!(
            w,
            "*Paper:* the code cache is append-only; its size (plus the \
             translator) is the JIT's entire memory overhead (Table 1), and \
             Figure 1 shows translation cost must be won back by reuse. This \
             study manages that cache: bounded capacity with eviction (evicted \
             methods fall back to interpretation until re-translated), \
             ShareJIT-style content-addressed sharing across threads, and \
             HotSpot-style tiered recompilation.\n"
        );
        let _ = writeln!(w, "{}", self.capacity_table().to_markdown());
        let worst = self
            .capacity
            .iter()
            .filter(|r| r.cap == PATHOLOGICAL_LABEL)
            .map(|r| r.retranslations)
            .max()
            .unwrap_or(0);
        let _ = writeln!(
            w,
            "*Measured:* bounded caches hold live occupancy at or under the \
             budget. At the fractional capacities eviction lands on one-shot \
             (class-loading) methods and on long-running frames that demote \
             to interpretation — LRU keeps the small actively re-invoked set \
             resident, so translations do not repeat. The pathological 384 B \
             point undercuts even the largest single method ({} bytes here), \
             pinning it to interpretation, and squeezes the surviving hot \
             methods into evicting each other — up to {} re-translations. \
             Both are costs the paper's append-only design never pays.\n",
            count(self.largest_method_bytes),
            count(worst)
        );
        let _ = writeln!(w, "{}", self.sharing_table().to_markdown());
        let _ = writeln!(
            w,
            "*Measured:* the shared cache does strictly less Translate-phase \
             work and takes fewer code-cache write misses than per-thread \
             private caches on both multithreaded workloads — {}.\n",
            verdict(self.shared_beats_private())
        );
        let _ = writeln!(w, "{}", self.tiering_table().to_markdown());
        let _ = writeln!(w, "{}", self.crossover_table().to_markdown());
        let _ = writeln!(
            w,
            "*Measured:* at the pathological capacity the combined \
             re-translation and interpretation-fallback overhead exceeds \
             everything the paper's `opt` oracle can save on every swept \
             benchmark — {}. (Translation-dominated `db` needs real \
             execution volume for the fallback cost to overtake the oracle, \
             so its crossover appears from `s1` upward.) A managed cache \
             must be provisioned above the thrash crossover or the \
             when-to-translate question stops mattering.\n",
            verdict(self.thrash_exceeds_oracle())
        );
        out
    }

    /// Whether the shared cache strictly beats the per-thread private
    /// caches on translate work and code-cache write misses for every
    /// sharing benchmark.
    pub fn shared_beats_private(&self) -> bool {
        let find = |name: &str, scope: &str| {
            self.sharing
                .iter()
                .find(|r| r.name == name && r.scope == scope)
                .expect("sharing row present")
        };
        ["mtrt", "multi"].iter().all(|name| {
            let private = find(name, CacheScope::PerThread.label());
            let shared = find(name, CacheScope::Shared.label());
            shared.translate < private.translate && shared.cc_write_misses < private.cc_write_misses
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_holds_at_tiny() {
        let s = run(Size::Tiny);
        assert_eq!(s.capacity.len(), SWEEP.len() * (1 + 3 * POINTS_PER_POLICY));
        assert_eq!(s.sharing.len(), 6);
        assert_eq!(s.tiering.len(), SWEEP.len() * 2);
        assert_eq!(s.crossover.len(), SWEEP.len());

        // Fractional capacities evict; LRU keeps the small hot set
        // resident, so the cost is demoted-frame interpretation
        // rather than repeated translation.
        for r in s.capacity.iter().filter(|r| r.cap == "1/8") {
            assert!(r.evictions > 0, "{}/{}: no evictions", r.name, r.policy);
            assert!(r.live_bytes <= r.ever_bytes);
        }
        // The pathological 384 B cache thrashes. On compress/db/javac
        // the surviving small hot methods evict each other and
        // re-translate; mtrt's hot methods all exceed the capacity,
        // so its cost is pinned interpretation (zero re-translations).
        for r in s.capacity.iter().filter(|r| r.cap == PATHOLOGICAL_LABEL) {
            assert!(r.live_bytes <= PATHOLOGICAL_CAPACITY);
            if r.name != "mtrt" {
                assert!(
                    r.retranslations > 0,
                    "{}/{}: no re-translations",
                    r.name,
                    r.policy
                );
            }
        }

        // ISSUE acceptance: shared strictly beats per-thread private.
        assert!(s.shared_beats_private());
        // Thrash crossover: execution-heavy benchmarks cross already
        // at tiny; translation-dominated db crosses once execution
        // volume scales (s1 and up, where EXPERIMENTS.md reports the
        // full verdict), so it is exempt here.
        for r in &s.crossover {
            if r.name != "db" {
                assert!(
                    r.thrash_extra > r.oracle_saving,
                    "{}: thrash {} did not exceed oracle saving {}",
                    r.name,
                    r.thrash_extra,
                    r.oracle_saving
                );
            }
        }
    }
}
