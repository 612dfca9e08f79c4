//! Split L1 instruction/data cache pair driven by a native trace.

use crate::config::CacheConfig;
use crate::sim::{AccessOutcome, Cache};
use crate::timeline::Timeline;
use jrt_trace::{AccessKind, NativeInst, TraceSink};

/// An L1 I-cache + D-cache pair implementing [`TraceSink`].
///
/// Every instruction event performs one instruction fetch (a read of
/// the event's `pc` in the I-cache); loads and stores additionally
/// perform the data access in the D-cache. An optional [`Timeline`]
/// samples windowed miss counts for the Figure 6 study.
///
/// # Examples
///
/// ```
/// use jrt_cache::{CacheConfig, SplitCaches};
/// use jrt_trace::{NativeInst, Phase, TraceSink};
///
/// let mut l1 = SplitCaches::paper_l1();
/// l1.accept(&NativeInst::load(0x1_0000, 0x2000_0000, 4, Phase::NativeExec));
/// assert_eq!(l1.icache().stats().refs(), 1);
/// assert_eq!(l1.dcache().stats().refs(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SplitCaches {
    icache: Cache,
    dcache: Cache,
    timeline: Option<Timeline>,
    install_into_icache: bool,
}

impl SplitCaches {
    /// Creates a pair from explicit configurations.
    pub fn new(icfg: CacheConfig, dcfg: CacheConfig) -> Self {
        SplitCaches {
            icache: Cache::new(icfg),
            dcache: Cache::new(dcfg),
            timeline: None,
            install_into_icache: false,
        }
    }

    /// The paper's Table 3 configuration: 64 KB each, 32-byte lines,
    /// I-cache 2-way, D-cache 4-way.
    pub fn paper_l1() -> Self {
        Self::new(CacheConfig::paper_l1_inst(), CacheConfig::paper_l1_data())
    }

    /// Enables windowed sampling with the given window size
    /// (instructions per sample), for the Figure 6 time-series study.
    pub fn with_timeline(mut self, window: u64) -> Self {
        self.timeline = Some(Timeline::new(window));
        self
    }

    /// The instruction cache.
    pub fn icache(&self) -> &Cache {
        &self.icache
    }

    /// The data cache.
    pub fn dcache(&self) -> &Cache {
        &self.dcache
    }

    /// The sampled timeline, if enabled with [`with_timeline`].
    ///
    /// [`with_timeline`]: SplitCaches::with_timeline
    pub fn timeline(&self) -> Option<&Timeline> {
        self.timeline.as_ref()
    }

    /// Enables the paper's Section 6 proposal: the JIT generates code
    /// *directly into the I-cache* (which must therefore accept
    /// writes, preferably write-back). Translate-phase stores to the
    /// code-cache region bypass the D-cache and install into the
    /// I-cache, removing both the redundant fill of a write-allocate
    /// D-cache and the double-caching of freshly generated code.
    pub fn with_install_into_icache(mut self) -> Self {
        self.install_into_icache = true;
        self
    }

    /// Consumes the pair, returning the two caches `(icache, dcache)`.
    pub fn into_inner(self) -> (Cache, Cache) {
        (self.icache, self.dcache)
    }

    /// Fetches `inst` and performs its data access, if it has one, and
    /// returns both outcomes.
    pub fn access(&mut self, inst: &NativeInst) -> (AccessOutcome, Option<AccessOutcome>) {
        let i = self.icache.access(inst.pc, AccessKind::Read, inst.phase);
        let d = match inst.mem {
            Some(m)
                if self.install_into_icache
                    && m.kind == AccessKind::Write
                    && inst.phase.is_translate()
                    && jrt_trace::Region::classify(m.addr)
                        == Some(jrt_trace::Region::CodeCache) =>
            {
                // Section 6 proposal: install generated code straight
                // into the I-cache.
                Some(self.icache.access(m.addr, AccessKind::Write, inst.phase))
            }
            Some(m) => Some(self.dcache.access(m.addr, m.kind, inst.phase)),
            None => None,
        };
        if let Some(t) = &mut self.timeline {
            t.record(i.hit, d.map(|o| o.hit), inst.phase.is_translate());
        }
        (i, d)
    }
}

impl TraceSink for SplitCaches {
    fn accept(&mut self, inst: &NativeInst) {
        self.access(inst);
    }

    fn finish(&mut self) {
        if let Some(t) = &mut self.timeline {
            t.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jrt_trace::{NativeInst, Phase};

    #[test]
    fn instruction_fetch_always_touches_icache() {
        let mut s = SplitCaches::paper_l1();
        for pc in (0x1_0000..0x1_0040u64).step_by(4) {
            s.accept(&NativeInst::alu(pc, Phase::Runtime));
        }
        assert_eq!(s.icache().stats().refs(), 16);
        assert_eq!(s.dcache().stats().refs(), 0);
        // 64 bytes of straight-line code = 2 lines = 2 compulsory misses.
        assert_eq!(s.icache().stats().misses(), 2);
    }

    #[test]
    fn stores_reach_dcache_as_writes() {
        let mut s = SplitCaches::paper_l1();
        s.accept(&NativeInst::store(
            0x1_0000,
            0x2000_0000,
            4,
            Phase::Translate,
        ));
        assert_eq!(s.dcache().stats().writes, 1);
        assert_eq!(s.dcache().stats().write_misses, 1);
        assert_eq!(s.dcache().translate_stats().write_misses, 1);
    }

    #[test]
    fn timeline_collects_samples() {
        let mut s = SplitCaches::paper_l1().with_timeline(2);
        for k in 0..5 {
            s.accept(&NativeInst::load(
                0x1_0000 + k * 4096,
                0x2000_0000 + k * 4096,
                4,
                Phase::Runtime,
            ));
        }
        s.finish();
        let t = s.timeline().expect("timeline enabled");
        assert_eq!(t.samples().len(), 3); // 2+2+1
    }

    #[test]
    fn install_into_icache_redirects_translate_writes() {
        use jrt_trace::layout;
        let mut base = SplitCaches::paper_l1();
        let mut prop = SplitCaches::paper_l1().with_install_into_icache();
        let inst = NativeInst::store(
            0x0100_0000, // translator text
            layout::CODE_CACHE_BASE + 0x10_0000,
            4,
            Phase::Translate,
        );
        base.accept(&inst);
        prop.accept(&inst);
        // Baseline: the store hits the D-cache.
        assert_eq!(base.dcache().stats().writes, 1);
        assert_eq!(base.icache().stats().writes, 0);
        // Proposal: it installs into the I-cache instead.
        assert_eq!(prop.dcache().stats().writes, 0);
        assert_eq!(prop.icache().stats().writes, 1);
        // A later fetch of the installed line hits under the proposal
        // (no double-caching), but misses at baseline.
        let fetch = NativeInst::alu(layout::CODE_CACHE_BASE + 0x10_0000, Phase::NativeExec);
        base.accept(&fetch);
        prop.accept(&fetch);
        assert_eq!(base.icache().stats().read_misses, 1 + 1); // store-pc + fetch
        assert_eq!(prop.icache().stats().read_misses, 1); // fetch hits
    }

    #[test]
    fn non_translate_writes_stay_in_dcache_under_proposal() {
        use jrt_trace::layout;
        let mut prop = SplitCaches::paper_l1().with_install_into_icache();
        prop.accept(&NativeInst::store(
            0x0200_0000,
            layout::HEAP_BASE,
            4,
            Phase::NativeExec,
        ));
        assert_eq!(prop.dcache().stats().writes, 1);
        assert_eq!(prop.icache().stats().writes, 0);
    }

    #[test]
    fn into_inner_returns_both() {
        let mut s = SplitCaches::paper_l1();
        s.accept(&NativeInst::alu(0x1_0000, Phase::Runtime));
        let (i, d) = s.into_inner();
        assert_eq!(i.stats().refs(), 1);
        assert_eq!(d.stats().refs(), 0);
    }
}
