//! Sharded single-tape replay must be *exactly* equivalent to serial
//! replay — identical per-point, per-slice, per-region cache counters
//! and identical instruction-mix totals — for every workload × mode
//! at `tiny`, at every shard count, with shards cut at segment
//! boundaries exactly as the scale study cuts them.

use javart::cache::{CacheConfig, SplitSweep};
use javart::experiments::{tape, Mode};
use javart::trace::{InstMix, Region, Tape};
use javart::workloads::{suite_with_hello, Size};

/// The Figure 7 family plus the paper's L1 points: several set-group
/// geometries so stitching is exercised across more than one shape.
fn points() -> (Vec<CacheConfig>, Vec<CacheConfig>) {
    let mut ipoints: Vec<CacheConfig> = [1, 2, 4, 8]
        .iter()
        .map(|&a| CacheConfig::paper_assoc_sweep(a))
        .collect();
    let mut dpoints = ipoints.clone();
    ipoints.push(CacheConfig::paper_l1_inst());
    dpoints.push(CacheConfig::paper_l1_data());
    (ipoints, dpoints)
}

/// Asserts two sweeps agree on every counter of every slice.
fn assert_sweeps_equal(a: &SplitSweep, b: &SplitSweep, ctx: &str) {
    for (x, y, side) in [
        (a.icache().results(), b.icache().results(), "I"),
        (a.dcache().results(), b.dcache().results(), "D"),
    ] {
        assert_eq!(x.len(), y.len(), "{ctx} {side}: point count");
        for (k, (r, s)) in x.iter().zip(y.iter()).enumerate() {
            assert_eq!(r.stats(), s.stats(), "{ctx} {side} point {k}: overall");
            assert_eq!(
                r.translate_stats(),
                s.translate_stats(),
                "{ctx} {side} point {k}: translate slice"
            );
            assert_eq!(
                r.rest_stats(),
                s.rest_stats(),
                "{ctx} {side} point {k}: rest slice"
            );
            for region in Region::ALL {
                assert_eq!(
                    r.region_stats(region),
                    s.region_stats(region),
                    "{ctx} {side} point {k}: {region} slice"
                );
            }
        }
    }
}

/// Splits `n` segments into `parts` contiguous ranges (the scale
/// study's partition rule).
fn partition(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.min(n).max(1);
    (0..parts)
        .map(|k| k * n / parts..(k + 1) * n / parts)
        .collect()
}

#[test]
fn sharded_replay_equals_serial_for_every_workload_and_mode() {
    let (ipoints, dpoints) = points();
    for spec in suite_with_hello() {
        let w = tape::workload(&spec, Size::Tiny);
        for mode in [Mode::Interp, Mode::Jit, Mode::Opt] {
            let tape = Tape::record(|rec| {
                tape::run(&w, tape::config(&w, mode), rec);
            });

            let mut serial = (SplitSweep::new(&ipoints, &dpoints), InstMix::new());
            tape.replay(&mut serial);
            let (serial_sweep, serial_mix) = serial;

            let nsegs = tape.segments().len();
            for shards in [2usize, 4, 8] {
                let ctx = format!("{} {mode:?} x{shards}", spec.name);
                let mut stitched = SplitSweep::new(&ipoints, &dpoints);
                let mut mix = InstMix::new();
                for range in partition(nsegs, shards) {
                    let mut sink = (stitched.shard(), InstMix::new());
                    tape.replay_range(range, &mut sink);
                    stitched.absorb(&sink.0);
                    mix.merge(&sink.1);
                }
                assert_sweeps_equal(&stitched, &serial_sweep, &ctx);
                assert_eq!(mix, serial_mix, "{ctx}: instruction mix");
                assert_eq!(mix.total(), tape.len(), "{ctx}: mix total vs tape len");
            }
        }
    }
}
