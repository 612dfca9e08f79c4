//! The one-pass stack-distance sweep engine must be *exactly*
//! equivalent to per-configuration `SplitCaches` simulation — not just
//! in aggregate, but per attribution slice (translate/rest and every
//! region) — for arbitrary synthetic streams and for every real
//! workload × mode at `tiny`.

use javart::cache::{CacheConfig, SplitCaches, SplitSweep};
use javart::experiments::{tape, Mode};
use javart::trace::{AccessKind, MemRef, NativeInst, Phase, Region, Tape, TraceSink};
use javart::workloads::{suite_with_hello, Size};
use jrt_testkit::forall;

/// The Figure 7 family: 8 KB, 32-byte lines, 1/2/4/8-way.
fn assoc_points() -> Vec<CacheConfig> {
    [1, 2, 4, 8]
        .iter()
        .map(|&a| CacheConfig::paper_assoc_sweep(a))
        .collect()
}

/// Asserts the sweep and the per-point caches agree on every counter
/// of every attribution slice, for both sides of the split.
fn assert_equivalent(sweep: &SplitSweep, pairs: &[SplitCaches], ctx: &str) {
    let iresults = sweep.icache().results();
    let dresults = sweep.dcache().results();
    for (k, pair) in pairs.iter().enumerate() {
        for (res, cache, side) in [
            (&iresults[k], pair.icache(), "I"),
            (&dresults[k], pair.dcache(), "D"),
        ] {
            let cfg = cache.config();
            assert_eq!(res.config(), cfg, "{ctx} {side} point {k}: config");
            assert_eq!(res.stats(), cache.stats(), "{ctx} {side} {cfg}: overall");
            assert_eq!(
                res.translate_stats(),
                cache.translate_stats(),
                "{ctx} {side} {cfg}: translate slice"
            );
            assert_eq!(
                res.rest_stats(),
                cache.rest_stats(),
                "{ctx} {side} {cfg}: rest slice"
            );
            for region in Region::ALL {
                assert_eq!(
                    res.region_stats(region),
                    cache.region_stats(region),
                    "{ctx} {side} {cfg}: {region} slice"
                );
            }
        }
    }
}

/// Draws an instruction whose pc and data address land in (or near)
/// the real regions, with enough aliasing to exercise conflict and
/// capacity misses at 8 KB.
fn arbitrary_access(rng: &mut jrt_testkit::Rng) -> NativeInst {
    // Mix region-resident addresses with out-of-region ones (which
    // attribute to no region slice) and way-stride aliases.
    let base = *rng.choose(&[
        javart::trace::layout::VM_TEXT_BASE,
        javart::trace::layout::CODE_CACHE_BASE,
        javart::trace::layout::CLASS_AREA_BASE,
        javart::trace::layout::HEAP_BASE,
        javart::trace::layout::STACK_BASE,
        0, // below every region
    ]);
    let addr = base + rng.u64_in(0..64 * 1024) / 4 * 4;
    let pc = javart::trace::layout::VM_TEXT_BASE + rng.u64_in(0..32 * 1024) / 4 * 4;
    let phase = *rng.choose(&Phase::ALL);
    let mut i = NativeInst::alu(pc, phase);
    if rng.bool() {
        i.mem = Some(MemRef {
            addr,
            size: 4,
            kind: if rng.bool() {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
        });
    }
    i
}

/// Property: for arbitrary synthetic streams, the sweep matches one
/// `SplitCaches` per swept point on every attribution slice.
#[test]
fn sweep_matches_split_caches_on_synthetic_streams() {
    let points = assoc_points();
    forall!(cases = 48, seed = 0x5EE7, |rng| {
        let events = rng.vec(0..600, arbitrary_access);
        let mut sweep = SplitSweep::new(&points, &points);
        let mut pairs: Vec<SplitCaches> = points.iter().map(|&c| SplitCaches::new(c, c)).collect();
        for e in &events {
            sweep.accept(e);
            for p in &mut pairs {
                p.accept(e);
            }
        }
        assert_equivalent(&sweep, &pairs, "synthetic");
    });
}

/// Every workload × mode at `tiny`: the sweep replaying the tape
/// equals per-point `SplitCaches` replaying it, slice by slice — the
/// exactness guarantee behind the Figure 7 port and behind Figure 3,
/// which reads the direct-mapped write-study point off the shared
/// pass.
#[test]
fn sweep_matches_split_caches_for_every_workload_and_mode() {
    let mut points = assoc_points();
    points.push(CacheConfig::paper_write_study());
    for spec in suite_with_hello() {
        let w = tape::workload(&spec, Size::Tiny);
        for mode in [Mode::Interp, Mode::Jit, Mode::Opt] {
            let tape = Tape::record(|rec| {
                tape::run(&w, tape::config(&w, mode), rec);
            });
            let mut sweep = SplitSweep::new(&points, &points);
            tape.replay(&mut sweep);
            let mut pairs: Vec<SplitCaches> =
                points.iter().map(|&c| SplitCaches::new(c, c)).collect();
            tape.replay(&mut pairs);
            assert_equivalent(&sweep, &pairs, &format!("{} {mode:?}", spec.name));
        }
    }
}

/// The line-size family used by Figure 8 (one pass per line size) must
/// also match, including the paper L1 geometry that Table 3, Figures 4
/// and 5 and the proposal's baseline read.
#[test]
fn sweep_matches_split_caches_across_line_sizes() {
    let spec = suite_with_hello().remove(0);
    let w = tape::workload(&spec, Size::Tiny);
    let tape = Tape::record(|rec| {
        tape::run(&w, tape::config(&w, Mode::Jit), rec);
    });
    let mut configs: Vec<(CacheConfig, CacheConfig)> = [16u32, 32, 64, 128]
        .iter()
        .map(|&l| {
            let c = CacheConfig::paper_line_sweep(l);
            (c, c)
        })
        .collect();
    configs.push((CacheConfig::paper_l1_inst(), CacheConfig::paper_l1_data()));
    for (icfg, dcfg) in configs {
        let mut sweep = SplitSweep::new(&[icfg], &[dcfg]);
        tape.replay(&mut sweep);
        let mut pair = vec![SplitCaches::new(icfg, dcfg)];
        tape.replay(&mut pair);
        assert_equivalent(&sweep, &pair, &format!("{icfg}/{dcfg}"));
    }
}
