//! Out-of-core scale study — sharded parallel replay of one big tape.
//!
//! The paper's pipeline traced each benchmark on the fly; the
//! s10-class traces were far larger than RAM, so a tool that stores
//! such a trace has to stream it from disk. This study reproduces that
//! regime end to end:
//!
//! 1. a workload's JIT stream is recorded onto a tape
//!    ([`tape::stream`] into a [`TapeRecorder`]), **tiled**
//!    ([`jrt_trace::Tape::tiled`]) into an s10-class synthetic tape —
//!    the same code stream repeated with the data working set shifted
//!    per tile — and persisted as a [`DiskTape`] (segmented,
//!    independently decodable chunks) in the spill directory
//!    (`JRT_TAPE_DIR`);
//! 2. the in-memory tapes are dropped, and every replay from here on
//!    streams from disk — nothing ever materializes the full trace;
//! 3. the tape is split at segment boundaries into 1/2/4/8 shards,
//!    each shard replayed by a worker into its own
//!    [`SplitSweepShard`] + [`InstMix`], and the per-shard results are
//!    stitched by serial reconciliation ([`SplitSweep::absorb`]);
//! 4. every stitched result is checked **exactly** (per-point,
//!    per-slice, per-region hit/miss counts and the full instruction
//!    mix) against a serial streamed reference.
//!
//! Each row says whether its tiled tape exceeds the RAM tape budget
//! (`JRT_TAPE_BUDGET`, [`tape::budget_bytes`]), the study's
//! out-of-core threshold. The report table is deterministic at any
//! `--jobs` setting; wall-clock throughput (events/sec per worker
//! count) goes to stderr only, so CI can diff the markdown across
//! worker counts.

use std::time::Instant;

use crate::jobs::{self, Workload};
use crate::runner::Mode;
use crate::table::{count, Table};
use crate::tape;
use jrt_cache::{CacheConfig, CacheStats, SplitSweep, SplitSweepShard};
use jrt_trace::{DiskTape, InstMix, Region, TapeRecorder};
use jrt_workloads::{suite, Size};

/// Worker counts swept by the scaling study.
pub const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Address stride between tiles: 1 MiB keeps every tile's shifted data
/// working set inside its source region (regions are 256 MiB apart).
pub const ADDR_STRIDE: u64 = 1 << 20;

/// Exactness outcome for one worker count.
#[derive(Debug, Clone, Copy)]
pub struct ShardPoint {
    /// Number of shards (and the worker-count cap for this run).
    pub workers: usize,
    /// Stitched result identical to the serial streamed reference.
    pub exact: bool,
}

/// One workload's tiled tape and its shard-scaling results.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Benchmark name.
    pub name: String,
    /// Number of tiles the base tape was repeated.
    pub tiles: usize,
    /// Total events in the tiled tape.
    pub events: u64,
    /// Segments in the on-disk tape (shard split points).
    pub segments: usize,
    /// Packed bytes on disk.
    pub disk_bytes: u64,
    /// Whether the tape exceeds the RAM tape budget (out-of-core).
    pub exceeds_budget: bool,
    /// One exactness point per entry of [`WORKERS`].
    pub shards: Vec<ShardPoint>,
}

/// The full scale study.
#[derive(Debug, Clone)]
pub struct ScaleStudy {
    /// The RAM tape budget the run was performed under.
    pub budget: u64,
    /// One row per workload.
    pub rows: Vec<ScaleRow>,
}

impl ScaleStudy {
    /// Renders the summary table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Out-of-core scale study: sharded single-tape replay vs serial",
            &[
                "benchmark",
                "tiles",
                "events",
                "segments",
                "disk bytes",
                "exact@1",
                "exact@2",
                "exact@4",
                "exact@8",
            ],
        );
        for r in &self.rows {
            let mut row = vec![
                r.name.clone(),
                r.tiles.to_string(),
                count(r.events),
                r.segments.to_string(),
                count(r.disk_bytes),
            ];
            for p in &r.shards {
                row.push(if p.exact { "yes" } else { "NO" }.into());
            }
            t.row(row);
        }
        t
    }

    /// Renders the study as markdown: the table plus one budget line
    /// per row (greppable by the CI scale-budget smoke leg).
    pub fn to_markdown(&self) -> String {
        let mut out = self.table().to_markdown();
        for r in &self.rows {
            let verdict = if r.exceeds_budget {
                "exceeds the RAM tape budget"
            } else {
                "fits within the RAM tape budget"
            };
            out.push_str(&format!(
                "- `{}`: {} packed bytes {} ({} bytes); replay streams from disk in {} segments.\n",
                r.name,
                count(r.disk_bytes),
                verdict,
                self.budget,
                r.segments
            ));
        }
        out.push('\n');
        out
    }
}

/// The sweep-point families used for the exactness check: the paper's
/// L1 points plus an associativity-sweep point per side, so stitching
/// is exercised across more than one set-group geometry.
fn points() -> (Vec<CacheConfig>, Vec<CacheConfig>) {
    let ipoints = vec![
        CacheConfig::paper_l1_inst(),
        CacheConfig::paper_assoc_sweep(4),
    ];
    let dpoints = vec![
        CacheConfig::paper_l1_data(),
        CacheConfig::paper_assoc_sweep(2),
    ];
    (ipoints, dpoints)
}

/// Flattens every per-point, per-slice, per-region counter of a sweep
/// into one comparable vector ([`SweepResult`](jrt_cache::SweepResult)
/// itself doesn't implement `PartialEq`).
fn signature(sweep: &SplitSweep) -> Vec<CacheStats> {
    let mut out = Vec::new();
    for side in [sweep.icache(), sweep.dcache()] {
        for r in side.results() {
            out.push(*r.stats());
            out.push(*r.translate_stats());
            out.push(*r.rest_stats());
            for &region in Region::ALL.iter() {
                out.push(*r.region_stats(region));
            }
        }
    }
    out
}

/// Splits `n` segments into at most `parts` contiguous, disjoint,
/// covering ranges.
fn partition(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.min(n).max(1);
    (0..parts)
        .map(|k| k * n / parts..(k + 1) * n / parts)
        .collect()
}

/// Tiling factor per requested study size: `tiny` keeps CI fast, `s1`
/// is a mid-size check, and `s10` tiles the s1 tape 100× into a tape
/// roughly two decades past the base recording.
fn plan(size: Size) -> (Size, usize) {
    match size {
        Size::Tiny => (Size::Tiny, 10),
        Size::S1 => (Size::S1, 10),
        Size::S10 => (Size::S1, 100),
    }
}

fn run_one(w: &Workload, tiles: usize) -> ScaleRow {
    let mut recorder = TapeRecorder::new();
    tape::stream(w, Mode::Jit, &mut recorder);
    let tiled = recorder.into_tape().tiled(tiles, ADDR_STRIDE);
    let dir = tape::disk_dir()
        .expect("tape spill directory unavailable")
        .clone();
    let path = dir.join(format!("scale-{}-x{}.tape", w.spec.name, tiles));
    let disk = DiskTape::write(&path, &tiled).expect("persist tiled tape");
    let events = disk.len();
    let segments = disk.segments().len();
    let disk_bytes = disk.size_bytes();
    // From here on everything streams from disk: drop the in-memory
    // tiled tape.
    drop(tiled);

    let (ipoints, dpoints) = points();

    let t0 = Instant::now();
    let mut serial = (SplitSweep::new(&ipoints, &dpoints), InstMix::new());
    disk.replay(&mut serial).expect("serial streamed replay");
    let (serial_sweep, serial_mix) = serial;
    report_rate(w.spec.name, "serial", events, t0.elapsed().as_secs_f64());
    let serial_sig = signature(&serial_sweep);

    let proto = SplitSweep::new(&ipoints, &dpoints);
    let mut shards = Vec::new();
    for &workers in WORKERS.iter() {
        let ranges = partition(segments, workers);
        let t0 = Instant::now();
        let parts: Vec<(SplitSweepShard, InstMix)> = jobs::par_map(&ranges, |r| {
            let mut sink = (proto.shard(), InstMix::new());
            disk.replay_range(r.clone(), &mut sink)
                .expect("shard streamed replay");
            sink
        });
        let mut stitched = SplitSweep::new(&ipoints, &dpoints);
        let mut mix = InstMix::new();
        for (shard, part_mix) in &parts {
            stitched.absorb(shard);
            mix.merge(part_mix);
        }
        report_rate(
            w.spec.name,
            &format!("{workers} shard(s)"),
            events,
            t0.elapsed().as_secs_f64(),
        );
        let exact = signature(&stitched) == serial_sig && mix == serial_mix;
        shards.push(ShardPoint { workers, exact });
    }
    if let Err(e) = disk.remove() {
        eprintln!("warning: cannot remove tiled tape {}: {e}", path.display());
    }
    tape::tidy_spill_dir();

    ScaleRow {
        name: w.spec.name.to_string(),
        tiles,
        events,
        segments,
        disk_bytes,
        exceeds_budget: disk_bytes > tape::budget_bytes(),
        shards,
    }
}

/// Wall-clock throughput to stderr only, keeping the report
/// byte-identical at any `--jobs` setting.
fn report_rate(name: &str, label: &str, events: u64, secs: f64) {
    if secs > 0.0 {
        eprintln!(
            "[scale] {name} {label}: {events} events in {secs:.3}s ({:.1} M events/s)",
            events as f64 / secs / 1e6
        );
    }
}

/// Runs the scale study: `db` and `jess` tapes tiled into s10-class
/// synthetic tapes, persisted on disk, and replayed sharded 1/2/4/8.
pub fn run(size: Size) -> ScaleStudy {
    let (base, tiles) = plan(size);
    let specs = suite()
        .into_iter()
        .filter(|s| s.name == "db" || s.name == "jess")
        .collect();
    let loads = jobs::prebuild(specs, base);
    let rows = loads.iter().map(|w| run_one(w, tiles)).collect();
    ScaleStudy {
        budget: tape::budget_bytes(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_disjoint_and_covering() {
        for n in [0usize, 1, 3, 7, 8, 40] {
            for parts in [1usize, 2, 4, 8] {
                let ranges = partition(n, parts);
                assert!(!ranges.is_empty());
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, n, "n={n} parts={parts}");
            }
        }
    }

    #[test]
    fn tiny_scale_study_is_exact_at_every_worker_count() {
        let study = run(Size::Tiny);
        assert_eq!(study.rows.len(), 2);
        for row in &study.rows {
            assert!(row.events > 0);
            assert_eq!(row.tiles, 10);
            assert!(row.segments >= WORKERS[WORKERS.len() - 1]);
            for p in &row.shards {
                assert!(p.exact, "{} not exact at {} workers", row.name, p.workers);
            }
        }
    }
}
