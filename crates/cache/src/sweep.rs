//! One-pass multi-configuration cache simulation (stack distances).
//!
//! The configuration sweeps of Figures 7 and 8 historically simulated
//! one full [`Cache`](crate::Cache) per swept point, paying the whole
//! trace once per configuration. This module implements the classic
//! fix from the simulation literature the paper builds on — Mattson's
//! stack algorithms and Hill & Smith's all-associativity simulation,
//! the cachesim5 lineage: because LRU has the *inclusion property*,
//! the content of an `A`-way set is exactly the top `A` entries of
//! that set's unbounded LRU stack, so a single pass that maintains
//! per-set LRU stacks and histograms each access's **stack distance**
//! yields exact hit/miss counts for every associativity at once.
//!
//! [`CacheSweep`] generalizes this to an arbitrary mix of
//! `(size, line, ways)` points: points are first grouped by line size
//! into *families* (line ids are `addr >> log2(line)`, so stack state
//! cannot be shared across line sizes), then within a family by set
//! count (each group keeps per-set stacks truncated at the group's
//! largest way count). Every access is classified — phase slice plus
//! [`Region`] — exactly once and then fanned out to all families, so
//! Figure 8's four line sizes cost four cheap stack touches per event,
//! not four classification passes. Compulsory misses are
//! config-independent within a family — a first-touch line is absent
//! from every configuration — so one seen-set per family serves all
//! its points, probed only when the access missed every group (a line
//! present in any stack was necessarily seen before). Attribution
//! mirrors [`Cache`](crate::Cache) exactly: translate/rest phase
//! slices and per-[`Region`] slices, each with read/write/compulsory
//! splits, so Figure 5's category breakdown falls out of the same
//! pass.
//!
//! The inclusion property needs every miss to allocate, so the sweep
//! models write-allocate caches — the only kind [`Cache`](crate::Cache)
//! simulates (a non-allocating write would have to update some stacks
//! and not others).
//!
//! # Examples
//!
//! ```
//! use jrt_cache::{CacheConfig, CacheSweep};
//! use jrt_trace::{AccessKind, Phase};
//!
//! // Figure 7's four points, one pass.
//! let points: Vec<CacheConfig> = [1, 2, 4, 8]
//!     .map(CacheConfig::paper_assoc_sweep)
//!     .to_vec();
//! let mut sweep = CacheSweep::new(&points);
//! sweep.access(0x2000_0000, AccessKind::Read, Phase::NativeExec);
//! sweep.access(0x2000_0000, AccessKind::Read, Phase::NativeExec);
//! let r = sweep.results();
//! assert_eq!(r[0].stats().refs(), 2);
//! assert_eq!(r[0].stats().misses(), 1); // second access hits everywhere
//! assert_eq!(r[3].stats().compulsory_misses, 1);
//! ```

use crate::config::CacheConfig;
use crate::sim::CacheStats;
use jrt_trace::{AccessKind, Addr, IdHashSet, NativeInst, Phase, Region, TraceSink};

/// Attribution slices: translate, rest (everything else), one per
/// region, then the two collector slices ([`Phase::Gc`] evacuation and
/// [`Phase::GcBarrier`] write-barrier traffic). The overall figures
/// are derived as translate + rest, where the reported "rest" folds
/// the collector slices back in — so adding the GC split changed no
/// pre-existing number.
const SLICE_TRANSLATE: usize = 0;
const SLICE_REST: usize = 1;
const SLICE_REGION0: usize = 2;
const SLICE_GC: usize = SLICE_REGION0 + Region::ALL.len();
const SLICE_GCBARRIER: usize = SLICE_GC + 1;
const NSLICES: usize = SLICE_GCBARRIER + 1;

/// Phase-slice classification shared by every entry point: translate
/// phases, the two collector phases, and everything else.
#[inline]
fn phase_slice_of(phase: Phase) -> usize {
    if phase.is_translate() {
        SLICE_TRANSLATE
    } else {
        match phase {
            Phase::Gc => SLICE_GC,
            Phase::GcBarrier => SLICE_GCBARRIER,
            _ => SLICE_REST,
        }
    }
}

/// Sentinel for an empty stack slot. Line ids are `addr >> line_shift`
/// with `line >= 2`, so a real line id can never equal it.
const EMPTY: u64 = u64::MAX;

/// One set-count group: per-set LRU stacks truncated at the largest
/// way count any point in the group sweeps, plus stack-distance
/// histograms per attribution slice and access kind.
#[derive(Debug, Clone)]
struct SetGroup {
    set_mask: u64,
    depth: usize,
    /// `num_sets * depth` line ids, set-major, MRU first.
    stacks: Vec<u64>,
    /// `hist[(slice * 2 + is_write) * (depth + 1) + bucket]`; bucket
    /// `d < depth` is the exact stack distance, bucket `depth` is
    /// "deeper than any swept associativity" (a miss for all points).
    hist: Vec<u64>,
}

impl SetGroup {
    fn new(num_sets: u64, depth: usize) -> Self {
        SetGroup {
            set_mask: num_sets - 1,
            depth,
            stacks: vec![EMPTY; num_sets as usize * depth],
            hist: vec![0; NSLICES * 2 * (depth + 1)],
        }
    }

    /// Number of occupied (non-[`EMPTY`]) slots in `line`'s set —
    /// exact while below `depth`, clamped at `depth` once full.
    /// Occupied slots always form a prefix, so the first empty slot
    /// ends the count.
    #[inline]
    fn occupancy(&self, line: u64) -> usize {
        let set = (line & self.set_mask) as usize;
        let stack = &self.stacks[set * self.depth..(set + 1) * self.depth];
        stack.iter().position(|&v| v == EMPTY).unwrap_or(self.depth)
    }

    /// Reconciliation step for one shard-cold access (see
    /// [`SweepShard`]): `occ` is the shard-local occupancy before the
    /// access. Removes `line` from this (carried, pre-shard) stack if
    /// present at position `p` and returns the exact global bucket
    /// `min(occ + p, depth)` — or `depth` when absent, because a line
    /// evicted from (or never in) a depth-truncated stack has at least
    /// `depth` distinct more-recent lines in front of it.
    #[inline]
    fn consume_cold(&mut self, line: u64, occ: usize) -> usize {
        let set = (line & self.set_mask) as usize;
        let stack = &mut self.stacks[set * self.depth..(set + 1) * self.depth];
        match stack.iter().position(|&v| v == line) {
            Some(p) => {
                // Remove the consumed line so (a) later cold accesses
                // in this shard don't double-count it and (b) the
                // final splice doesn't duplicate it.
                stack.copy_within(p + 1.., p);
                stack[self.depth - 1] = EMPTY;
                (occ + p).min(self.depth)
            }
            None => self.depth,
        }
    }

    /// Installs the post-shard stacks and merges the shard's (exact,
    /// warm-access) histogram rows. For every set, the true post-shard
    /// LRU order is the shard-local stack (all lines touched in the
    /// shard, MRU first) followed by whatever survives of the carried
    /// pre-shard stack — every carried line also touched in the shard
    /// was already removed by [`SetGroup::consume_cold`], so the
    /// concatenation is duplicate-free.
    fn splice(&mut self, shard: &SetGroup) {
        debug_assert_eq!(self.set_mask, shard.set_mask);
        debug_assert_eq!(self.depth, shard.depth);
        let mut merged = vec![EMPTY; self.depth];
        for set in 0..=(self.set_mask as usize) {
            let span = set * self.depth..(set + 1) * self.depth;
            {
                let local = &shard.stacks[span.clone()];
                let carried = &self.stacks[span.clone()];
                let mut it = local
                    .iter()
                    .chain(carried.iter())
                    .filter(|&&v| v != EMPTY)
                    .copied();
                for slot in merged.iter_mut() {
                    *slot = it.next().unwrap_or(EMPTY);
                }
            }
            self.stacks[span].copy_from_slice(&merged);
        }
        for (h, sh) in self.hist.iter_mut().zip(&shard.hist) {
            *h += sh;
        }
    }

    /// Moves `line` to the MRU position of its set, returning the
    /// 0-based stack distance (`depth` when absent from the truncated
    /// stack — a miss for every swept associativity).
    #[inline]
    fn touch(&mut self, line: u64) -> usize {
        let set = (line & self.set_mask) as usize;
        let stack = &mut self.stacks[set * self.depth..(set + 1) * self.depth];
        let mut shifted = line;
        for (d, slot) in stack.iter_mut().enumerate() {
            let cur = *slot;
            *slot = shifted;
            if cur == line {
                return d;
            }
            shifted = cur;
        }
        self.depth
    }

    #[inline]
    fn record(&mut self, slice: usize, is_write: usize, bucket: usize) {
        self.hist[(slice * 2 + is_write) * (self.depth + 1) + bucket] += 1;
    }

    /// Reads one `CacheStats` slice for associativity `ways` off the
    /// histograms (`compulsory` is supplied by the sweep — it is
    /// config-independent).
    fn slice_stats(&self, slice: usize, ways: usize, compulsory: u64) -> CacheStats {
        let row = |is_write: usize| {
            let base = (slice * 2 + is_write) * (self.depth + 1);
            let buckets = &self.hist[base..base + self.depth + 1];
            let total: u64 = buckets.iter().sum();
            let hits: u64 = buckets[..ways.min(self.depth)].iter().sum();
            (total, total - hits)
        };
        let (reads, read_misses) = row(0);
        let (writes, write_misses) = row(1);
        CacheStats {
            reads,
            writes,
            read_misses,
            write_misses,
            compulsory_misses: compulsory,
        }
    }
}

/// Statistics for one swept configuration, with the same attribution
/// surface as [`Cache`](crate::Cache).
#[derive(Debug, Clone)]
pub struct SweepResult {
    config: CacheConfig,
    stats: CacheStats,
    translate: CacheStats,
    rest: CacheStats,
    gc: CacheStats,
    gc_barrier: CacheStats,
    region: [CacheStats; Region::ALL.len()],
}

impl SweepResult {
    /// The configuration this result describes.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Overall statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Statistics attributed to the JIT translate phase.
    pub fn translate_stats(&self) -> &CacheStats {
        &self.translate
    }

    /// Statistics attributed to everything except translation. GC
    /// evacuation and barrier traffic are included here (they are
    /// subsets, broken out by [`SweepResult::gc_stats`] and
    /// [`SweepResult::gc_barrier_stats`]).
    pub fn rest_stats(&self) -> &CacheStats {
        &self.rest
    }

    /// Statistics attributed to [`Phase::Gc`] (collector mark and
    /// evacuation traffic). A subset of [`SweepResult::rest_stats`].
    pub fn gc_stats(&self) -> &CacheStats {
        &self.gc
    }

    /// Statistics attributed to [`Phase::GcBarrier`] (card-marking
    /// write barriers). A subset of [`SweepResult::rest_stats`].
    pub fn gc_barrier_stats(&self) -> &CacheStats {
        &self.gc_barrier
    }

    /// Statistics for accesses falling into `region`.
    pub fn region_stats(&self, region: Region) -> &CacheStats {
        &self.region[region as usize]
    }
}

/// All sweep state tied to one line size: the set-count groups, the
/// first-touch seen-set, and the (config-independent within the
/// family) compulsory counters.
#[derive(Debug, Clone)]
struct Family {
    line_shift: u32,
    groups: Vec<SetGroup>,
    seen: IdHashSet<u64>,
    compulsory: [u64; NSLICES],
}

impl Family {
    /// Runs one pre-classified access through every group, then the
    /// shared first-touch accounting.
    #[inline]
    fn access(
        &mut self,
        addr: Addr,
        is_write: usize,
        phase_slice: usize,
        region_slice: Option<usize>,
    ) {
        let line = addr >> self.line_shift;
        let mut resident = false;
        for g in &mut self.groups {
            let bucket = g.touch(line);
            resident |= bucket < g.depth;
            g.record(phase_slice, is_write, bucket);
            if let Some(rs) = region_slice {
                g.record(rs, is_write, bucket);
            }
        }
        // First-touch tracking runs only when the line sits in no
        // stack (a resident line was inserted on an earlier access).
        if !resident && self.seen.insert(line) {
            self.compulsory[phase_slice] += 1;
            if let Some(rs) = region_slice {
                self.compulsory[rs] += 1;
            }
        }
    }

    /// Reconciles one shard into this (serial, carried) family state.
    /// See [`SweepShard`] for the algorithm.
    fn absorb(&mut self, shard: &ShardFamily) {
        debug_assert_eq!(self.line_shift, shard.line_shift);
        debug_assert_eq!(self.groups.len(), shard.groups.len());
        let ngroups = self.groups.len();
        for (k, cold) in shard.cold.iter().enumerate() {
            // `seen` holds every line ever accessed before this point
            // (pre-shard lines plus this shard's earlier cold lines),
            // so a successful insert is exactly a first-ever access.
            if self.seen.insert(cold.line) {
                self.compulsory[usize::from(cold.phase_slice)] += 1;
                if cold.region_slice != SLICE_NONE {
                    self.compulsory[usize::from(cold.region_slice)] += 1;
                }
            }
            for (gi, g) in self.groups.iter_mut().enumerate() {
                let occ = shard.cold_before[k * ngroups + gi] as usize;
                let bucket = g.consume_cold(cold.line, occ);
                g.record(
                    usize::from(cold.phase_slice),
                    usize::from(cold.is_write),
                    bucket,
                );
                if cold.region_slice != SLICE_NONE {
                    g.record(
                        usize::from(cold.region_slice),
                        usize::from(cold.is_write),
                        bucket,
                    );
                }
            }
        }
        for (g, sg) in self.groups.iter_mut().zip(&shard.groups) {
            g.splice(sg);
        }
    }
}

/// `region_slice` byte value for "no region" in [`ColdMeta`]; real
/// slice indices are tiny (`NSLICES` ≤ a dozen), so `u8::MAX` is free.
const SLICE_NONE: u8 = u8::MAX;

/// One shard-cold access (first in-shard touch of its line), queued
/// for serial reconciliation: the access's classification plus — in
/// the parallel `cold_before` array — each group's shard-local set
/// occupancy at the time of the access.
#[derive(Debug, Clone, Copy)]
struct ColdMeta {
    line: u64,
    is_write: u8,
    phase_slice: u8,
    /// Region slice index, or [`SLICE_NONE`].
    region_slice: u8,
}

/// Per-family shard state: shard-local stacks/histograms plus the
/// cold-access queue.
#[derive(Debug, Clone)]
struct ShardFamily {
    line_shift: u32,
    groups: Vec<SetGroup>,
    /// Lines touched in this shard.
    seen: IdHashSet<u64>,
    cold: Vec<ColdMeta>,
    /// `cold.len() * groups.len()` occupancies, cold-access-major.
    cold_before: Vec<u32>,
}

impl ShardFamily {
    #[inline]
    fn access(
        &mut self,
        addr: Addr,
        is_write: usize,
        phase_slice: usize,
        region_slice: Option<usize>,
    ) {
        let line = addr >> self.line_shift;
        if self.seen.insert(line) {
            // Cold: the global stack distance depends on pre-shard
            // state, so defer the histogram update to reconciliation.
            // The touch still installs the line — later warm accesses
            // measure against it.
            for g in &mut self.groups {
                let occ = g.occupancy(line) as u32;
                self.cold_before.push(occ);
                g.touch(line);
            }
            self.cold.push(ColdMeta {
                line,
                is_write: is_write as u8,
                phase_slice: phase_slice as u8,
                region_slice: region_slice.map_or(SLICE_NONE, |rs| rs as u8),
            });
        } else {
            // Warm: every line accessed since this line's previous
            // touch lives in this shard, so the shard-local stack
            // distance *is* the global stack distance — record it
            // directly, exactly as the serial sweep would.
            for g in &mut self.groups {
                let bucket = g.touch(line);
                g.record(phase_slice, is_write, bucket);
                if let Some(rs) = region_slice {
                    g.record(rs, is_write, bucket);
                }
            }
        }
    }
}

/// Resumable shard state for one [`CacheSweep`]: the parallel half of
/// exact sharded single-tape simulation.
///
/// N workers each stream a disjoint contiguous run of tape segments
/// through their own `SweepShard` (no shared state, no locks). The
/// trick that keeps the result *exact* rather than approximate: an
/// access whose line was touched earlier in the same shard ("warm")
/// has a shard-local stack distance equal to its global one — every
/// intervening distinct line is in-shard by definition — so warm
/// accesses (the overwhelming majority) are histogrammed in parallel
/// with zero coordination. Only each line's *first* in-shard touch
/// ("cold") depends on pre-shard state; shards queue those (with the
/// shard-local set occupancy at access time) and
/// [`CacheSweep::absorb`] later replays the queue serially against
/// the carried pre-shard stacks:
///
/// * cold line found at position `p` of the carried set stack →
///   exact distance `occupancy + p` (the carried entry is removed so
///   later cold accesses and the final stack splice never count it
///   twice);
/// * cold line absent (or occupancy already at `depth`) → at least
///   `depth` distinct lines intervened, which is bucket `depth`
///   ("miss at every swept associativity") exactly;
/// * first-*ever* accesses are the compulsory misses, decided against
///   the carried seen-set.
///
/// Afterwards each set's stack becomes shard-local lines (MRU first)
/// followed by surviving carried lines — exactly the serial stack —
/// so absorption chains across any number of shards. Absorb shards
/// **in tape order**; results then equal the serial sweep bit for bit
/// at any worker count.
#[derive(Debug, Clone)]
pub struct SweepShard {
    families: Vec<ShardFamily>,
}

impl SweepShard {
    /// Performs one access, exactly like [`CacheSweep::access`].
    #[inline]
    pub fn access(&mut self, addr: Addr, kind: AccessKind, phase: Phase) {
        let is_write = usize::from(kind == AccessKind::Write);
        let phase_slice = phase_slice_of(phase);
        let region_slice = Region::classify(addr).map(|r| SLICE_REGION0 + r as usize);
        for f in &mut self.families {
            f.access(addr, is_write, phase_slice, region_slice);
        }
    }

    /// Accesses recorded as cold (deferred to reconciliation).
    pub fn cold_accesses(&self) -> u64 {
        self.families.iter().map(|f| f.cold.len() as u64).sum()
    }
}

/// A one-pass simulator for an arbitrary family of write-allocate
/// configurations (see the module docs).
#[derive(Debug, Clone)]
pub struct CacheSweep {
    points: Vec<(CacheConfig, usize, usize)>, // (config, family, group)
    families: Vec<Family>,
}

impl CacheSweep {
    /// Creates a sweep over `points`. An empty `points` simulates
    /// nothing, so a [`SplitSweep`] can sweep one side only.
    ///
    /// # Panics
    ///
    /// Panics if a point uses a line size below 2 bytes.
    pub fn new(points: &[CacheConfig]) -> Self {
        let mut families: Vec<Family> = Vec::new();
        let mut indexed = Vec::with_capacity(points.len());
        for cfg in points {
            assert!(cfg.line >= 2, "sweep needs a line size of at least 2 bytes");
            let shift = cfg.line.trailing_zeros();
            let f = match families.iter().position(|f| f.line_shift == shift) {
                Some(f) => f,
                None => {
                    families.push(Family {
                        line_shift: shift,
                        groups: Vec::new(),
                        seen: IdHashSet::default(),
                        compulsory: [0; NSLICES],
                    });
                    families.len() - 1
                }
            };
            let sets = cfg.num_sets();
            let groups = &mut families[f].groups;
            let g = match groups.iter().position(|g| g.set_mask == sets - 1) {
                Some(g) => {
                    let depth = groups[g].depth.max(cfg.assoc as usize);
                    if depth > groups[g].depth {
                        groups[g] = SetGroup::new(sets, depth);
                    }
                    g
                }
                None => {
                    groups.push(SetGroup::new(sets, cfg.assoc as usize));
                    groups.len() - 1
                }
            };
            indexed.push((*cfg, f, g));
        }
        CacheSweep {
            points: indexed,
            families,
        }
    }

    /// Performs one access against every swept configuration. The
    /// phase/region classification happens once, here, no matter how
    /// many line sizes, set counts, or way counts are in flight.
    #[inline]
    pub fn access(&mut self, addr: Addr, kind: AccessKind, phase: Phase) {
        let is_write = usize::from(kind == AccessKind::Write);
        let phase_slice = phase_slice_of(phase);
        let region_slice = Region::classify(addr).map(|r| SLICE_REGION0 + r as usize);
        for f in &mut self.families {
            f.access(addr, is_write, phase_slice, region_slice);
        }
    }

    /// Derives the per-configuration statistics, in the order the
    /// points were supplied to [`CacheSweep::new`].
    pub fn results(&self) -> Vec<SweepResult> {
        self.points
            .iter()
            .map(|&(config, fi, gi)| {
                let f = &self.families[fi];
                let g = &f.groups[gi];
                let ways = config.assoc as usize;
                let slice = |s: usize| g.slice_stats(s, ways, f.compulsory[s]);
                let translate = slice(SLICE_TRANSLATE);
                let gc = slice(SLICE_GC);
                let gc_barrier = slice(SLICE_GCBARRIER);
                // "Rest" keeps its historical meaning — everything
                // that is not translation — so the collector slices
                // fold back into it.
                let mut rest = slice(SLICE_REST);
                rest.merge(&gc);
                rest.merge(&gc_barrier);
                let mut stats = translate;
                stats.merge(&rest);
                let mut region = [CacheStats::default(); Region::ALL.len()];
                for (k, r) in region.iter_mut().enumerate() {
                    *r = slice(SLICE_REGION0 + k);
                }
                SweepResult {
                    config,
                    stats,
                    translate,
                    rest,
                    gc,
                    gc_barrier,
                    region,
                }
            })
            .collect()
    }

    /// Number of swept configurations.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the sweep has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Creates an empty [`SweepShard`] with this sweep's geometry,
    /// ready for a worker to stream one contiguous run of the trace
    /// into.
    pub fn shard(&self) -> SweepShard {
        SweepShard {
            families: self
                .families
                .iter()
                .map(|f| ShardFamily {
                    line_shift: f.line_shift,
                    groups: f
                        .groups
                        .iter()
                        .map(|g| SetGroup::new(g.set_mask + 1, g.depth))
                        .collect(),
                    seen: IdHashSet::default(),
                    cold: Vec::new(),
                    cold_before: Vec::new(),
                })
                .collect(),
        }
    }

    /// Reconciles `shard` into this sweep. Shards must be created by
    /// [`CacheSweep::shard`] on this sweep (same geometry) and
    /// absorbed in trace order; the result then equals running the
    /// whole trace through this sweep serially — see [`SweepShard`].
    pub fn absorb(&mut self, shard: &SweepShard) {
        assert_eq!(
            self.families.len(),
            shard.families.len(),
            "shard geometry must come from this sweep"
        );
        for (f, sf) in self.families.iter_mut().zip(&shard.families) {
            f.absorb(sf);
        }
    }
}

/// An L1 I-cache + D-cache sweep pair: the one-pass counterpart of
/// [`SplitCaches`](crate::SplitCaches). Every event fetches its `pc`
/// through the instruction sweep; loads and stores additionally drive
/// the data sweep. A [`TraceSink`]: feed it by replaying a tape or
/// running a VM into it.
#[derive(Debug, Clone)]
pub struct SplitSweep {
    icache: CacheSweep,
    dcache: CacheSweep,
}

impl SplitSweep {
    /// Creates a pair of sweeps from the two point families.
    pub fn new(ipoints: &[CacheConfig], dpoints: &[CacheConfig]) -> Self {
        SplitSweep {
            icache: CacheSweep::new(ipoints),
            dcache: CacheSweep::new(dpoints),
        }
    }

    /// Creates an empty shard pair with this sweep's geometry.
    pub fn shard(&self) -> SplitSweepShard {
        SplitSweepShard {
            icache: self.icache.shard(),
            dcache: self.dcache.shard(),
        }
    }

    /// Reconciles a shard pair (in trace order) — see
    /// [`CacheSweep::absorb`].
    pub fn absorb(&mut self, shard: &SplitSweepShard) {
        self.icache.absorb(&shard.icache);
        self.dcache.absorb(&shard.dcache);
    }

    /// The instruction-side sweep.
    pub fn icache(&self) -> &CacheSweep {
        &self.icache
    }

    /// The data-side sweep.
    pub fn dcache(&self) -> &CacheSweep {
        &self.dcache
    }
}

/// Shard state for a [`SplitSweep`]: an instruction-side and a
/// data-side [`SweepShard`]. Stream a contiguous run of the trace in
/// through [`TraceSink`], then hand it to [`SplitSweep::absorb`] in
/// trace order.
#[derive(Debug, Clone)]
pub struct SplitSweepShard {
    icache: SweepShard,
    dcache: SweepShard,
}

impl SplitSweepShard {
    /// Accesses deferred to reconciliation (first in-shard line
    /// touches), across both sides.
    pub fn cold_accesses(&self) -> u64 {
        self.icache.cold_accesses() + self.dcache.cold_accesses()
    }
}

impl TraceSink for SplitSweepShard {
    fn accept(&mut self, inst: &NativeInst) {
        self.icache.access(inst.pc, AccessKind::Read, inst.phase);
        if let Some(m) = inst.mem {
            self.dcache.access(m.addr, m.kind, inst.phase);
        }
    }
}

impl TraceSink for SplitSweep {
    fn accept(&mut self, inst: &NativeInst) {
        self.icache.access(inst.pc, AccessKind::Read, inst.phase);
        if let Some(m) = inst.mem {
            self.dcache.access(m.addr, m.kind, inst.phase);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Cache;

    /// Replays `accesses` through both the sweep and one `Cache` per
    /// point, asserting every attribution slice matches exactly.
    fn assert_matches_cache(points: &[CacheConfig], accesses: &[(Addr, AccessKind, Phase)]) {
        let mut sweep = CacheSweep::new(points);
        let mut caches: Vec<Cache> = points.iter().map(|&c| Cache::new(c)).collect();
        for &(addr, kind, phase) in accesses {
            sweep.access(addr, kind, phase);
            for c in &mut caches {
                c.access(addr, kind, phase);
            }
        }
        for (r, c) in sweep.results().iter().zip(&caches) {
            assert_eq!(r.stats(), c.stats(), "{}: overall", c.config());
            assert_eq!(r.translate_stats(), c.translate_stats(), "translate");
            assert_eq!(r.rest_stats(), c.rest_stats(), "rest");
            for region in Region::ALL {
                assert_eq!(r.region_stats(region), c.region_stats(region), "{region}");
            }
        }
    }

    #[test]
    fn matches_cache_on_a_conflict_pattern() {
        let points: Vec<CacheConfig> = [1, 2, 4, 8].map(CacheConfig::paper_assoc_sweep).to_vec();
        // Way-stride conflicts plus some locality, spanning phases.
        let mut accesses = Vec::new();
        for round in 0..6u64 {
            for k in 0..12u64 {
                let addr = jrt_trace::layout::HEAP_BASE + k * 8 * 1024 + round * 32;
                let kind = if k % 3 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let phase = if k % 2 == 0 {
                    Phase::Translate
                } else {
                    Phase::NativeExec
                };
                accesses.push((addr, kind, phase));
            }
        }
        assert_matches_cache(&points, &accesses);
    }

    #[test]
    fn shared_compulsory_counts_across_points() {
        let points: Vec<CacheConfig> = [1, 2, 4, 8].map(CacheConfig::paper_assoc_sweep).to_vec();
        let mut sweep = CacheSweep::new(&points);
        for k in 0..100u64 {
            sweep.access(k * 32, AccessKind::Read, Phase::Runtime);
        }
        // 100 distinct lines: all compulsory, identical in every point.
        for r in sweep.results() {
            assert_eq!(r.stats().compulsory_misses, 100);
            assert_eq!(r.stats().misses(), 100);
        }
    }

    #[test]
    fn conflict_miss_is_not_compulsory() {
        // Mirror of the sim.rs test: 2-set direct-mapped, ping-pong.
        let points = [CacheConfig::new(32, 16, 1)];
        let mut sweep = CacheSweep::new(&points);
        sweep.access(0, AccessKind::Read, Phase::Runtime);
        sweep.access(32, AccessKind::Read, Phase::Runtime);
        sweep.access(0, AccessKind::Read, Phase::Runtime);
        let r = &sweep.results()[0];
        assert_eq!(r.stats().misses(), 3);
        assert_eq!(r.stats().compulsory_misses, 2);
    }

    #[test]
    fn duplicate_points_agree() {
        let cfg = CacheConfig::new(8 * 1024, 32, 2);
        let mut sweep = CacheSweep::new(&[cfg, cfg]);
        for k in 0..50u64 {
            sweep.access(k * 64, AccessKind::Write, Phase::Gc);
        }
        let r = sweep.results();
        assert_eq!(r[0].stats(), r[1].stats());
    }

    #[test]
    fn split_sweep_matches_split_caches_via_sink() {
        use crate::split::SplitCaches;
        let ipoints: Vec<CacheConfig> = [1, 2, 4, 8].map(CacheConfig::paper_assoc_sweep).to_vec();
        let dpoints = ipoints.clone();
        let mut sweep = SplitSweep::new(&ipoints, &dpoints);
        let mut pairs: Vec<SplitCaches> = ipoints.iter().map(|&c| SplitCaches::new(c, c)).collect();
        let events = [
            NativeInst::alu(0x1_0000, Phase::Runtime),
            NativeInst::load(0x1_0004, jrt_trace::layout::HEAP_BASE, 4, Phase::NativeExec),
            NativeInst::store(
                0x1_0008,
                jrt_trace::layout::CODE_CACHE_BASE,
                4,
                Phase::Translate,
            ),
            NativeInst::load(
                0x1_0004,
                jrt_trace::layout::HEAP_BASE + 64,
                8,
                Phase::NativeExec,
            ),
        ];
        for e in &events {
            sweep.accept(e);
            for p in &mut pairs {
                p.accept(e);
            }
        }
        for ((i, d), p) in sweep
            .icache()
            .results()
            .iter()
            .zip(sweep.dcache().results())
            .zip(&pairs)
        {
            assert_eq!(i.stats(), p.icache().stats());
            assert_eq!(d.stats(), p.dcache().stats());
        }
    }

    #[test]
    fn one_sided_split_sweep_simulates_only_that_side() {
        let points = [CacheConfig::paper_l1_data()];
        let mut one = SplitSweep::new(&[], &points);
        let mut both = SplitSweep::new(&points, &points);
        for e in [
            NativeInst::alu(0x1_0000, Phase::Runtime),
            NativeInst::store(0x1_0004, jrt_trace::layout::HEAP_BASE, 4, Phase::Translate),
        ] {
            one.accept(&e);
            both.accept(&e);
        }
        assert!(one.icache().is_empty());
        assert!(one.icache().results().is_empty());
        assert_eq!(
            one.dcache().results()[0].stats(),
            both.dcache().results()[0].stats()
        );
    }

    #[test]
    fn mixed_line_sizes_match_per_config_caches() {
        // The Figure 8 family in a single sweep: four line sizes, each
        // its own family with its own compulsory accounting.
        let points: Vec<CacheConfig> = [16, 32, 64, 128]
            .map(CacheConfig::paper_line_sweep)
            .to_vec();
        let mut accesses = Vec::new();
        for round in 0..5u64 {
            for k in 0..40u64 {
                let addr = jrt_trace::layout::HEAP_BASE + k * 112 + round * 16;
                let kind = if k % 4 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                accesses.push((addr, kind, Phase::NativeExec));
            }
        }
        assert_matches_cache(&points, &accesses);
    }

    /// A deterministic access pattern with plenty of reuse across any
    /// shard boundary: strided conflicts, revisits, phase and region
    /// variety.
    fn shard_torture_accesses(n: u64) -> Vec<(Addr, AccessKind, Phase)> {
        let mut accesses = Vec::with_capacity(n as usize);
        let mut x = 0x9e37_79b9u64;
        for k in 0..n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = match k % 4 {
                // Tight reuse: revisits within a few accesses.
                0 => jrt_trace::layout::HEAP_BASE + (k % 64) * 32,
                // Way-stride conflicts.
                1 => jrt_trace::layout::HEAP_BASE + (x % 24) * 8 * 1024,
                // Long-distance reuse across shard boundaries.
                2 => jrt_trace::layout::CODE_CACHE_BASE + (k % 4096) * 16,
                // Cold-heavy tail: mostly-new lines.
                _ => jrt_trace::layout::STACK_BASE + k * 128 + (x % 8),
            };
            let kind = if x.is_multiple_of(3) {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let phase = Phase::ALL[(x % Phase::ALL.len() as u64) as usize];
            accesses.push((addr, kind, phase));
        }
        accesses
    }

    fn assert_results_equal(a: &CacheSweep, b: &CacheSweep) {
        for (ra, rb) in a.results().iter().zip(b.results()) {
            assert_eq!(ra.stats(), rb.stats(), "overall {}", ra.config());
            assert_eq!(ra.translate_stats(), rb.translate_stats(), "translate");
            assert_eq!(ra.rest_stats(), rb.rest_stats(), "rest");
            assert_eq!(ra.gc_stats(), rb.gc_stats(), "gc");
            assert_eq!(ra.gc_barrier_stats(), rb.gc_barrier_stats(), "gc-barrier");
            for region in Region::ALL {
                assert_eq!(ra.region_stats(region), rb.region_stats(region), "{region}");
            }
        }
    }

    #[test]
    fn gc_slices_split_out_of_rest() {
        let points = [CacheConfig::paper_assoc_sweep(1)];
        let mut sweep = CacheSweep::new(&points);
        let base = jrt_trace::layout::HEAP_BASE;
        sweep.access(base, AccessKind::Read, Phase::Gc);
        sweep.access(base + 64, AccessKind::Write, Phase::GcBarrier);
        sweep.access(base, AccessKind::Read, Phase::NativeExec);
        sweep.access(base, AccessKind::Read, Phase::Translate);
        let r = &sweep.results()[0];
        assert_eq!(r.gc_stats().refs(), 1);
        assert_eq!(r.gc_stats().reads, 1);
        assert_eq!(r.gc_barrier_stats().refs(), 1);
        assert_eq!(r.gc_barrier_stats().writes, 1);
        // The collector slices stay subsets of "rest": rest covers the
        // three non-translate accesses, overall covers all four.
        assert_eq!(r.rest_stats().refs(), 3);
        assert_eq!(r.translate_stats().refs(), 1);
        assert_eq!(r.stats().refs(), 4);
    }

    #[test]
    fn sharded_sweep_equals_serial_at_any_split() {
        let points: Vec<CacheConfig> = [1, 2, 4, 8].map(CacheConfig::paper_assoc_sweep).to_vec();
        let accesses = shard_torture_accesses(6000);

        let mut serial = CacheSweep::new(&points);
        for &(addr, kind, phase) in &accesses {
            serial.access(addr, kind, phase);
        }

        for nshards in [1usize, 2, 3, 4, 8] {
            let mut sharded = CacheSweep::new(&points);
            let chunk = accesses.len().div_ceil(nshards);
            for part in accesses.chunks(chunk) {
                let mut shard = sharded.shard();
                for &(addr, kind, phase) in part {
                    shard.access(addr, kind, phase);
                }
                sharded.absorb(&shard);
            }
            assert_results_equal(&serial, &sharded);
        }
    }

    #[test]
    fn sharding_preserves_state_for_later_serial_use() {
        // Absorbing must leave the sweep's stacks exactly as the
        // serial run would, so accesses *after* absorption also agree.
        let points = [CacheConfig::paper_l1_data()];
        let accesses = shard_torture_accesses(2000);
        let (head, tail) = accesses.split_at(1200);

        let mut serial = CacheSweep::new(&points);
        for &(addr, kind, phase) in &accesses {
            serial.access(addr, kind, phase);
        }

        let mut mixed = CacheSweep::new(&points);
        let mut shard = mixed.shard();
        for &(addr, kind, phase) in head {
            shard.access(addr, kind, phase);
        }
        mixed.absorb(&shard);
        for &(addr, kind, phase) in tail {
            mixed.access(addr, kind, phase);
        }
        assert_results_equal(&serial, &mixed);
    }

    #[test]
    fn sharded_mixed_line_sizes_equal_serial() {
        let points: Vec<CacheConfig> = [16, 32, 64, 128]
            .map(CacheConfig::paper_line_sweep)
            .to_vec();
        let accesses = shard_torture_accesses(3000);

        let mut serial = CacheSweep::new(&points);
        for &(addr, kind, phase) in &accesses {
            serial.access(addr, kind, phase);
        }
        let mut sharded = CacheSweep::new(&points);
        for part in accesses.chunks(700) {
            let mut shard = sharded.shard();
            for &(addr, kind, phase) in part {
                shard.access(addr, kind, phase);
            }
            sharded.absorb(&shard);
        }
        assert_results_equal(&serial, &sharded);
    }

    #[test]
    fn split_sweep_shards_stitch_exactly() {
        let events: Vec<NativeInst> = shard_torture_accesses(4000)
            .into_iter()
            .map(|(addr, kind, phase)| {
                let pc = 0x1_0000 + (addr % 509) * 4;
                match kind {
                    AccessKind::Write => NativeInst::store(pc, addr, 4, phase),
                    AccessKind::Read => NativeInst::load(pc, addr, 4, phase),
                }
            })
            .collect();
        let points = [CacheConfig::paper_l1_data()];

        let mut serial = SplitSweep::new(&points, &points);
        for e in &events {
            serial.accept(e);
        }

        // Sixteen shards, so fifteen boundaries for the stacks, the
        // seen-sets and the cold queues to carry across.
        let mut sharded = SplitSweep::new(&points, &points);
        for part in events.chunks(250) {
            let mut shard = sharded.shard();
            for e in part {
                shard.accept(e);
            }
            sharded.absorb(&shard);
        }
        assert_eq!(
            serial.icache().results()[0].stats(),
            sharded.icache().results()[0].stats()
        );
        assert_eq!(
            serial.dcache().results()[0].stats(),
            sharded.dcache().results()[0].stats()
        );
        for region in Region::ALL {
            assert_eq!(
                serial.dcache().results()[0].region_stats(region),
                sharded.dcache().results()[0].region_stats(region)
            );
        }
    }

    #[test]
    fn empty_shard_absorbs_as_noop() {
        let points = [CacheConfig::paper_l1_data()];
        let mut a = CacheSweep::new(&points);
        let mut b = CacheSweep::new(&points);
        for &(addr, kind, phase) in &shard_torture_accesses(500) {
            a.access(addr, kind, phase);
            b.access(addr, kind, phase);
        }
        let shard = b.shard();
        assert_eq!(shard.cold_accesses(), 0);
        b.absorb(&shard);
        assert_results_equal(&a, &b);
    }
}
