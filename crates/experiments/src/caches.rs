//! The shared cache pass. As cachesim5 did for the paper, [`sweep`]
//! streams each stock `(workload, mode)` tape of [`suite`] once, one
//! decoded block at a time, into one [`SplitSweep`] over every
//! requested point; nothing is memoized. The cache sections are views
//! that find their points with [`SweepResult::config`]. `run_all` runs
//! the pass once over the union of their points, a section's own `run`
//! over its points alone; the sweep is exact for every point whatever
//! else shares the pass, so both give the same numbers.

use crate::jobs;
use crate::runner::Mode;
use crate::tape;
use jrt_cache::{CacheConfig, SplitSweep, SweepResult};
use jrt_workloads::{suite, Size};

/// The I-side and D-side cache points a pass sweeps.
#[derive(Debug, Clone, Default)]
pub struct Points {
    /// Instruction-cache points.
    pub icache: Vec<CacheConfig>,
    /// Data-cache points.
    pub dcache: Vec<CacheConfig>,
}

impl Points {
    /// The paper's L1 pair (Table 3's configuration).
    pub fn paper_l1() -> Points {
        Points {
            icache: vec![CacheConfig::paper_l1_inst()],
            dcache: vec![CacheConfig::paper_l1_data()],
        }
    }

    /// The same points on both sides.
    pub fn both(points: &[CacheConfig]) -> Points {
        Points {
            icache: points.to_vec(),
            dcache: points.to_vec(),
        }
    }

    /// The union of `sets`: each point once, in first-seen order.
    pub fn union(sets: impl IntoIterator<Item = Points>) -> Points {
        let mut all = Points::default();
        for set in sets {
            for (mine, theirs) in [(&mut all.icache, set.icache), (&mut all.dcache, set.dcache)] {
                for cfg in theirs {
                    if !mine.contains(&cfg) {
                        mine.push(cfg);
                    }
                }
            }
        }
        all
    }
}

/// One tape's results. The accessors panic if the pass did not sweep
/// the requested point on that side.
#[derive(Debug, Clone)]
pub struct TapeSweep {
    /// Benchmark name.
    pub name: &'static str,
    /// Execution mode.
    pub mode: Mode,
    icache: Vec<SweepResult>,
    dcache: Vec<SweepResult>,
}

impl TapeSweep {
    /// The I-cache result at `cfg`.
    pub fn icache(&self, cfg: CacheConfig) -> &SweepResult {
        find(&self.icache, cfg, "I")
    }

    /// The D-cache result at `cfg`.
    pub fn dcache(&self, cfg: CacheConfig) -> &SweepResult {
        find(&self.dcache, cfg, "D")
    }
}

fn find<'a>(results: &'a [SweepResult], cfg: CacheConfig, side: &str) -> &'a SweepResult {
    results
        .iter()
        .find(|r| *r.config() == cfg)
        .unwrap_or_else(|| panic!("the cache pass did not sweep {cfg} on the {side} side"))
}

/// The results of one pass.
#[derive(Debug, Clone)]
pub struct CachePass {
    /// One entry per stock tape: suite order, interp before jit.
    pub tapes: Vec<TapeSweep>,
}

impl CachePass {
    /// The tapes of one mode, in suite order.
    pub fn mode(&self, mode: Mode) -> impl Iterator<Item = &TapeSweep> {
        self.tapes.iter().filter(move |t| t.mode == mode)
    }
}

/// Runs the shared pass at `size`: one job per stock tape, each
/// streaming its tape once into one [`SplitSweep`] over `points`.
pub fn sweep(size: Size, points: &Points) -> CachePass {
    let work = jobs::cross(&jobs::prebuild(suite(), size), &Mode::BOTH);
    CachePass {
        tapes: jobs::par_map(&work, |(w, mode)| {
            let mut sweep = SplitSweep::new(&points.icache, &points.dcache);
            tape::recorded(w, *mode)
                .tape
                .replay_stream(|b| sweep.consume_block(b));
            TapeSweep {
                name: w.spec.name,
                mode: *mode,
                icache: sweep.icache().results(),
                dcache: sweep.dcache().results(),
            }
        }),
    }
}
