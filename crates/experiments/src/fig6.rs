//! Figure 6 — cache-miss behaviour over time for `db`.
//!
//! The paper plots windowed miss counts over the course of execution:
//! the interpreter shows initial class-loading spikes then settles
//! into consistent locality, while the JIT shows many more spikes,
//! clustered where groups of methods get translated (write misses).

use crate::pass::{self, Pass};
use crate::runner::Mode;
use crate::table::Table;
use jrt_cache::TimelineSample;
use jrt_workloads::Size;

/// Timeline for one mode.
#[derive(Debug, Clone)]
pub struct ModeTimeline {
    /// Execution mode.
    pub mode: Mode,
    /// Windowed samples.
    pub samples: Vec<TimelineSample>,
    /// Windows whose miss count exceeds 2× the mean.
    pub spikes: usize,
    /// Windows dominated by translate-phase misses (the clustered
    /// translation spikes; always zero under interpretation).
    pub translate_clusters: usize,
}

/// The full Figure 6 result.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// Window size in instructions.
    pub window: u64,
    /// Interpreter timeline.
    pub interp: ModeTimeline,
    /// JIT timeline.
    pub jit: ModeTimeline,
}

impl Fig6 {
    /// Renders a compact table (one row per sampled window, capped).
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Figure 6: db miss counts per window (D-cache misses)",
            &["window#", "interp", "jit"],
        );
        let n = self
            .interp
            .samples
            .len()
            .max(self.jit.samples.len())
            .min(40);
        for k in 0..n {
            let g = |s: &[TimelineSample]| {
                s.get(k)
                    .map_or("-".to_string(), |x| (x.d_misses + x.i_misses).to_string())
            };
            t.row(vec![
                k.to_string(),
                g(&self.interp.samples),
                g(&self.jit.samples),
            ]);
        }
        t
    }
}

/// The benchmark whose timeline the figure plots.
pub(crate) const BENCHMARK: &str = "db";

/// The timeline window in instructions: fine-grained enough that
/// translation bursts are not diluted by surrounding class-load and
/// execution traffic (the paper samples at comparable granularity).
pub(crate) fn window(size: Size) -> u64 {
    match size {
        Size::Tiny => 10_000,
        _ => 20_000,
    }
}

/// Figure 6's view of the shared pass.
pub fn view(pass: &Pass, size: Size) -> Fig6 {
    let timeline = |mode| {
        let tape = pass.tape(BENCHMARK, mode);
        let t = tape.timeline.as_ref().expect("timeline");
        ModeTimeline {
            mode,
            spikes: t.spike_count(2.0),
            translate_clusters: t.translate_clusters(),
            samples: t.samples().to_vec(),
        }
    };
    Fig6 {
        window: window(size),
        interp: timeline(Mode::Interp),
        jit: timeline(Mode::Jit),
    }
}

/// Runs the Figure 6 experiment: the shared pass for it alone.
pub fn run(size: Size) -> Fig6 {
    view(&pass::run(size, &["fig6"]), size)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jit_timeline_is_spikier() {
        let f = run(Size::Tiny);
        assert!(f.interp.samples.len() > 3);
        assert!(f.jit.samples.len() > 3);
        // The interpreter's miss mass concentrates at startup (class
        // loading); the JIT shows translation spikes as well.
        assert!(f.jit.spikes >= 1, "jit spikes: {}", f.jit.spikes);
        // Translation clusters exist only under the JIT.
        assert!(f.jit.translate_clusters >= 1);
        assert_eq!(f.interp.translate_clusters, 0);
        // Startup window dominates the interpreter's tail windows.
        let first = f.interp.samples.first().unwrap();
        let tail = &f.interp.samples[f.interp.samples.len() / 2..];
        let tail_mean =
            tail.iter().map(|s| s.d_misses + s.i_misses).sum::<u64>() / tail.len() as u64;
        assert!(
            first.d_misses + first.i_misses > tail_mean,
            "startup {} vs steady {}",
            first.d_misses + first.i_misses,
            tail_mean
        );
    }
}
