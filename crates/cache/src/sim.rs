//! The set-associative cache model.

use crate::config::CacheConfig;
use jrt_trace::{AccessKind, Addr, IdHashSet, Phase, Region};
use std::fmt;

/// Result of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Whether a miss was compulsory (first touch of the line ever).
    pub compulsory: bool,
}

/// Aggregated statistics for one cache (or one attribution slice).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read accesses.
    pub reads: u64,
    /// Write accesses.
    pub writes: u64,
    /// Read misses.
    pub read_misses: u64,
    /// Write misses.
    pub write_misses: u64,
    /// Compulsory (cold) misses, a subset of all misses.
    pub compulsory_misses: u64,
}

impl CacheStats {
    /// Total references.
    pub fn refs(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.read_misses + self.write_misses
    }

    /// Miss rate in [0, 1]; 0 for an untouched cache.
    pub fn miss_rate(&self) -> f64 {
        if self.refs() == 0 {
            0.0
        } else {
            self.misses() as f64 / self.refs() as f64
        }
    }

    /// Of all misses, the fraction that are write misses (Figure 3).
    pub fn write_miss_fraction(&self) -> f64 {
        if self.misses() == 0 {
            0.0
        } else {
            self.write_misses as f64 / self.misses() as f64
        }
    }

    /// Adds another slice into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.read_misses += other.read_misses;
        self.write_misses += other.write_misses;
        self.compulsory_misses += other.compulsory_misses;
    }

    fn record(&mut self, kind: AccessKind, outcome: AccessOutcome) {
        match kind {
            AccessKind::Read => {
                self.reads += 1;
                if !outcome.hit {
                    self.read_misses += 1;
                }
            }
            AccessKind::Write => {
                self.writes += 1;
                if !outcome.hit {
                    self.write_misses += 1;
                }
            }
        }
        if !outcome.hit && outcome.compulsory {
            self.compulsory_misses += 1;
        }
    }
}

/// A cache's statistics: overall, and per attribution slice (the
/// translate phase, everything else, and each [`Region`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlicedStats {
    stats: CacheStats,
    translate: CacheStats,
    rest: CacheStats,
    region: [CacheStats; Region::ALL.len()], // indexed by discriminant
}

impl SlicedStats {
    /// Overall statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Statistics attributed to the JIT translate phase.
    pub fn translate_stats(&self) -> &CacheStats {
        &self.translate
    }

    /// Statistics attributed to everything except translation.
    pub fn rest_stats(&self) -> &CacheStats {
        &self.rest
    }

    /// Statistics for accesses falling into `region`.
    pub fn region_stats(&self, region: Region) -> &CacheStats {
        &self.region[region as usize]
    }

    fn record(&mut self, addr: Addr, kind: AccessKind, phase: Phase, outcome: AccessOutcome) {
        self.stats.record(kind, outcome);
        if phase.is_translate() {
            self.translate.record(kind, outcome);
        } else {
            self.rest.record(kind, outcome);
        }
        if let Some(region) = Region::classify(addr) {
            self.region[region as usize].record(kind, outcome);
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "refs={} misses={} ({:.3}%) wr-miss={:.1}%",
            self.refs(),
            self.misses(),
            self.miss_rate() * 100.0,
            self.write_miss_fraction() * 100.0
        )
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    stamp: u64,
}

/// A set-associative, LRU, write-allocate cache with miss
/// classification and per-phase / per-region attribution.
///
/// Timing is not modelled here; the ILP simulator layers latencies on
/// top of hit/miss outcomes.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    // Hot-path geometry, precomputed: every dimension is a power of
    // two (validated by `CacheConfig`), so indexing is shift + mask.
    line_shift: u32,
    set_mask: u64,
    lines: Vec<Line>, // num_sets * assoc, set-major
    tick: u64,
    // The line the last access touched, if no flush came since.
    last_line: Option<u64>,
    slices: SlicedStats,
    // Line ids are already well-distributed integers; the shared
    // SplitMix64-finalizer hasher keeps SipHash off the miss path.
    seen: IdHashSet<u64>,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    pub fn new(cfg: CacheConfig) -> Self {
        let n = (cfg.num_lines()) as usize;
        Cache {
            cfg,
            line_shift: cfg.line.trailing_zeros(),
            set_mask: cfg.num_sets() - 1,
            lines: vec![Line::default(); n],
            tick: 0,
            last_line: None,
            slices: SlicedStats::default(),
            seen: IdHashSet::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Performs one access and updates statistics. A repeat of the
    /// line the last access touched hits without a probe: that line is
    /// the most recently used of its set, so touching it again cannot
    /// change any LRU order.
    pub fn access(&mut self, addr: Addr, kind: AccessKind, phase: Phase) -> AccessOutcome {
        let line_id = addr >> self.line_shift;
        let outcome = if self.last_line == Some(line_id) {
            AccessOutcome {
                hit: true,
                compulsory: false,
            }
        } else {
            self.last_line = Some(line_id);
            self.probe(line_id)
        };
        self.slices.record(addr, kind, phase, outcome);
        outcome
    }

    fn probe(&mut self, line_id: u64) -> AccessOutcome {
        self.tick += 1;
        let set = (line_id & self.set_mask) as usize;
        let assoc = self.cfg.assoc as usize;
        let ways = &mut self.lines[set * assoc..(set + 1) * assoc];

        if let Some(way) = ways.iter_mut().find(|w| w.valid && w.tag == line_id) {
            way.stamp = self.tick;
            return AccessOutcome {
                hit: true,
                compulsory: false,
            };
        }

        // Miss. A hit line is always in `seen` (it was inserted when
        // the line was filled), so first-touch tracking only needs to
        // run here.
        let compulsory = self.seen.insert(line_id);

        // Allocate on every miss, reads and writes alike.
        let victim = ways
            .iter_mut()
            .min_by_key(|w| if w.valid { w.stamp } else { 0 })
            .expect("associativity >= 1");
        victim.tag = line_id;
        victim.valid = true;
        victim.stamp = self.tick;
        AccessOutcome {
            hit: false,
            compulsory,
        }
    }

    /// Every statistic, overall and per slice.
    pub fn sliced_stats(&self) -> &SlicedStats {
        &self.slices
    }

    /// Overall statistics.
    pub fn stats(&self) -> &CacheStats {
        self.slices.stats()
    }

    /// Statistics attributed to the JIT translate phase.
    pub fn translate_stats(&self) -> &CacheStats {
        self.slices.translate_stats()
    }

    /// Statistics attributed to everything except translation.
    pub fn rest_stats(&self) -> &CacheStats {
        self.slices.rest_stats()
    }

    /// Statistics for accesses falling into `region`.
    pub fn region_stats(&self, region: Region) -> &CacheStats {
        self.slices.region_stats(region)
    }

    /// Invalidates all lines but keeps statistics.
    pub fn flush(&mut self) {
        for l in &mut self.lines {
            l.valid = false;
        }
        self.last_line = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 lines of 16 bytes, 2-way: 2 sets.
        Cache::new(CacheConfig::new(64, 16, 2))
    }

    #[test]
    fn first_touch_is_compulsory_miss() {
        let mut c = tiny();
        let o = c.access(0, AccessKind::Read, Phase::Runtime);
        assert!(!o.hit);
        assert!(o.compulsory);
        let o = c.access(4, AccessKind::Read, Phase::Runtime);
        assert!(o.hit, "same line must hit");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // set 0 holds lines with even line_id (16-byte lines, 2 sets).
        c.access(0, AccessKind::Read, Phase::Runtime); // line 0 -> set 0
        c.access(32, AccessKind::Read, Phase::Runtime); // line 2 -> set 0
        c.access(0, AccessKind::Read, Phase::Runtime); // touch line 0 (MRU)
        c.access(64, AccessKind::Read, Phase::Runtime); // line 4 -> evicts line 2
        assert!(c.access(0, AccessKind::Read, Phase::Runtime).hit);
        let o = c.access(32, AccessKind::Read, Phase::Runtime);
        assert!(!o.hit, "line 2 was evicted");
        assert!(!o.compulsory, "it was seen before");
    }

    #[test]
    fn conflict_miss_is_not_compulsory() {
        let mut c = Cache::new(CacheConfig::new(32, 16, 1)); // 2 sets DM
        c.access(0, AccessKind::Read, Phase::Runtime);
        c.access(32, AccessKind::Read, Phase::Runtime); // evict
        let o = c.access(0, AccessKind::Read, Phase::Runtime);
        assert!(!o.hit);
        assert!(!o.compulsory);
        assert_eq!(c.stats().compulsory_misses, 2);
        assert_eq!(c.stats().misses(), 3);
    }

    #[test]
    fn write_miss_classification() {
        let mut c = tiny();
        c.access(0, AccessKind::Write, Phase::Translate);
        c.access(16, AccessKind::Read, Phase::Runtime);
        assert_eq!(c.stats().write_misses, 1);
        assert_eq!(c.stats().read_misses, 1);
        assert!((c.stats().write_miss_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(c.translate_stats().write_misses, 1);
        assert_eq!(c.rest_stats().read_misses, 1);
    }

    #[test]
    fn higher_associativity_removes_conflicts() {
        // Two addresses that conflict direct-mapped but fit 2-way.
        let mut dm = Cache::new(CacheConfig::new(32, 16, 1));
        let mut w2 = Cache::new(CacheConfig::new(32, 16, 2));
        for _ in 0..10 {
            for &a in &[0u64, 32u64] {
                dm.access(a, AccessKind::Read, Phase::Runtime);
                w2.access(a, AccessKind::Read, Phase::Runtime);
            }
        }
        assert!(w2.stats().misses() < dm.stats().misses());
        assert_eq!(w2.stats().misses(), 2); // compulsory only
    }

    #[test]
    fn region_attribution() {
        let mut c = tiny();
        c.access(
            jrt_trace::layout::HEAP_BASE,
            AccessKind::Read,
            Phase::Runtime,
        );
        c.access(
            jrt_trace::layout::STACK_BASE,
            AccessKind::Write,
            Phase::Runtime,
        );
        assert_eq!(c.region_stats(Region::Heap).reads, 1);
        assert_eq!(c.region_stats(Region::Stack).writes, 1);
        assert_eq!(c.region_stats(Region::CodeCache).refs(), 0);
    }

    #[test]
    fn flush_keeps_stats_but_invalidates() {
        let mut c = tiny();
        c.access(0, AccessKind::Read, Phase::Runtime);
        c.flush();
        let o = c.access(0, AccessKind::Read, Phase::Runtime);
        assert!(!o.hit);
        assert!(!o.compulsory, "seen-set survives flush");
        assert_eq!(c.stats().refs(), 2);
    }

    #[test]
    fn untouched_stats_rates_are_zero() {
        // Degenerate denominators must not produce NaN: an untouched
        // slice reports 0.0 for both derived rates.
        let s = CacheStats::default();
        assert_eq!(s.refs(), 0);
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.write_miss_fraction(), 0.0);
    }

    #[test]
    fn write_miss_fraction_with_zero_misses_is_zero() {
        let s = CacheStats {
            reads: 10,
            writes: 5,
            read_misses: 0,
            write_misses: 0,
            compulsory_misses: 0,
        };
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.write_miss_fraction(), 0.0);
        assert!(s.to_string().contains("misses=0"));
    }

    #[test]
    fn stats_merge() {
        let mut a = CacheStats {
            reads: 1,
            writes: 2,
            read_misses: 1,
            write_misses: 1,
            compulsory_misses: 2,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.refs(), 6);
        assert_eq!(a.misses(), 4);
    }
}
