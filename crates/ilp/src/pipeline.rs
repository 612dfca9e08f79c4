//! The greedy out-of-order scheduling model, factored into one shared
//! front end and one timing core per configuration.

use crate::config::PipelineConfig;
use jrt_bpred::{BranchEval, BranchStats, DirectionPredictor};
use jrt_cache::SplitCaches;
use jrt_trace::{AccessKind, NativeInst, TraceSink, NUM_REGS};
use std::collections::VecDeque;

const SLOT_RING: usize = 1 << 16;

/// Gshare's place in [`DirectionPredictor::paper_set`]: the cores step
/// on its verdict.
const GSHARE: usize = 2;

/// Results of one pipeline run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineReport {
    /// Instructions retired.
    pub instructions: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Control transfers that required prediction.
    pub predicted_events: u64,
    /// Mispredicted control transfers.
    pub mispredicts: u64,
}

impl PipelineReport {
    /// Instructions per cycle (0 for an empty run).
    pub fn ipc(&self) -> f64 {
        self.instructions as f64 / self.cycles.max(1) as f64
    }

    /// Misprediction rate over predicted events (0 if there were none).
    pub fn mispredict_rate(&self) -> f64 {
        self.mispredicts as f64 / self.predicted_events.max(1) as f64
    }
}

/// The front end's verdict on one event.
#[derive(Clone, Copy)]
struct Outcome {
    /// The event's fetch missed.
    fetch_miss: bool,
    /// The event's data read missed.
    load_miss: bool,
    /// A mispredicted transfer: fetch restarts after it resolves.
    mispredict: bool,
    /// A correctly predicted taken transfer: it ends the fetch group.
    taken: bool,
}

/// One timing core: fetch groups, rename, the ROB and the issue-slot
/// ring at one configuration's width and latencies. It sees the trace
/// only through the front end's [`Outcome`]s.
struct Core {
    cfg: PipelineConfig,
    reg_ready: [u64; NUM_REGS],
    rob: VecDeque<u64>,
    // issue-slot occupancy ring: (cycle, issued-count)
    slots: Vec<(u64, u32)>,
    fetch_cycle: u64,
    fetch_in_group: u32,
    last_complete: u64,
}

impl Core {
    fn claim_issue_slot(&mut self, earliest: u64) -> u64 {
        let width = self.cfg.width;
        let mut cycle = earliest;
        loop {
            let slot = &mut self.slots[(cycle as usize) & (SLOT_RING - 1)];
            if slot.0 != cycle {
                *slot = (cycle, 1);
                return cycle;
            }
            if slot.1 < width {
                slot.1 += 1;
                return cycle;
            }
            cycle += 1;
        }
    }

    fn fetch(&mut self, fetch_miss: bool) -> u64 {
        // New fetch group when the current one is full.
        if self.fetch_in_group >= self.cfg.width {
            self.fetch_cycle += 1;
            self.fetch_in_group = 0;
        }
        if fetch_miss {
            self.fetch_cycle += self.cfg.miss_penalty;
            self.fetch_in_group = 0;
        }
        // ROB back-pressure: fetch stalls until the head retires.
        while self.rob.len() >= self.cfg.rob_size {
            let head = self.rob.pop_front().expect("rob non-empty");
            if head > self.fetch_cycle {
                self.fetch_cycle = head;
                self.fetch_in_group = 0;
            }
        }
        self.fetch_in_group += 1;
        self.fetch_cycle
    }

    fn step(&mut self, inst: &NativeInst, out: Outcome) {
        let fetch = self.fetch(out.fetch_miss);

        // Rename: only true dependences delay dispatch.
        let mut ready = fetch + self.cfg.frontend_depth;
        for src in [inst.src1, inst.src2].into_iter().flatten() {
            ready = ready.max(self.reg_ready[usize::from(src) % NUM_REGS]);
        }

        let issue = self.claim_issue_slot(ready);

        let mut latency = self.cfg.latency(inst.class);
        if out.load_miss {
            latency += self.cfg.miss_penalty;
        }

        let complete = issue + latency;
        if let Some(dst) = inst.dst {
            self.reg_ready[usize::from(dst) % NUM_REGS] = complete;
        }
        self.rob.push_back(complete);
        if complete > self.last_complete {
            self.last_complete = complete;
        }

        if out.mispredict {
            // Control transfers whose operands were ready long before
            // the transfer (no outstanding register sources) resolve
            // in the decode stage — the front end verifies the
            // predicted target without waiting for execution.
            let resolve_at = if inst.src1.is_none() && inst.src2.is_none() {
                (fetch + 2).min(complete)
            } else {
                complete
            };
            let redirect = resolve_at + self.cfg.redirect_penalty;
            if redirect > self.fetch_cycle {
                self.fetch_cycle = redirect;
            }
            self.fetch_in_group = 0;
        } else if out.taken {
            self.fetch_cycle += 1;
            self.fetch_in_group = 0;
        }
    }
}

/// Trace-driven out-of-order core model, run at one or more
/// configurations in a single pass. See the crate documentation for
/// the modelled mechanisms.
///
/// It is a stream's one front end: the paper's L1 pair (which may
/// sample Figure 6's timeline) and Table 2's four direction predictors
/// on one BTB and return stack classify each event once, and one
/// timing core per configuration steps on that verdict, Gshare's for
/// control. Either half may be left out when no core runs. This is
/// exact: every front-end structure is probed in trace order and no
/// core feeds anything back into it, so each report equals that of a
/// model simulated alone at its configuration. The I-cache sees every
/// fetch; a fetch from the line fetched last hits without a probe, as
/// a line-granular fetch would.
pub struct PipelineSweep {
    caches: Option<SplitCaches>,
    branches: Option<BranchEval<4>>,
    retired: u64,
    cores: Vec<Core>,
}

impl std::fmt::Debug for PipelineSweep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let widths: Vec<u32> = self.cores.iter().map(|c| c.cfg.width).collect();
        write!(f, "PipelineSweep {{ widths: {widths:?} }}")
    }
}

impl PipelineSweep {
    /// Creates one timing core per configuration, in order, behind the
    /// whole front end.
    pub fn new(configs: &[PipelineConfig]) -> Self {
        Self::front_end(Some(SplitCaches::paper_l1()), true, configs)
    }

    /// Creates a front end of the `l1` pair and, if `predictors`, Table
    /// 2's predictors, with one timing core per configuration of
    /// `cores`, in order.
    ///
    /// # Panics
    ///
    /// Panics if there is a core but a half is missing: a core steps on
    /// both.
    pub fn front_end(l1: Option<SplitCaches>, predictors: bool, cores: &[PipelineConfig]) -> Self {
        let whole = l1.is_some() && predictors;
        assert!(
            whole || cores.is_empty(),
            "a core needs the whole front end"
        );
        let core = |cfg: &PipelineConfig| Core {
            reg_ready: [0; NUM_REGS],
            rob: VecDeque::with_capacity(cfg.rob_size),
            slots: vec![(u64::MAX, 0); SLOT_RING],
            fetch_cycle: 1,
            fetch_in_group: 0,
            last_complete: 0,
            cfg: cfg.clone(),
        };
        PipelineSweep {
            caches: l1,
            branches: predictors.then(|| BranchEval::shared(DirectionPredictor::paper_set())),
            retired: 0,
            cores: cores.iter().map(core).collect(),
        }
    }

    /// The L1 pair, if the front end has it.
    pub fn caches(&self) -> Option<&SplitCaches> {
        self.caches.as_ref()
    }

    /// Each predictor's statistics, in [`DirectionPredictor::paper_set`]
    /// order, if the front end has them.
    pub fn predictors(&self) -> Option<&[BranchStats; 4]> {
        self.branches.as_ref().map(BranchEval::all_stats)
    }

    /// One report per configuration, in construction order.
    pub fn reports(&self) -> Vec<PipelineReport> {
        let gshare = self.predictors().map(|s| s[GSHARE]).unwrap_or_default();
        self.cores
            .iter()
            .map(|core| PipelineReport {
                instructions: self.retired,
                cycles: core.last_complete.max(core.fetch_cycle),
                predicted_events: gshare.predicted_events(),
                mispredicts: gshare.mispredicts(),
            })
            .collect()
    }
}

impl TraceSink for PipelineSweep {
    fn accept(&mut self, inst: &NativeInst) {
        let l1 = self.caches.as_mut().map(|c| c.access(inst));
        let verdicts = self.branches.as_mut().and_then(|b| b.resolve(inst));
        let Some((fetch, data)) = l1.filter(|_| !self.cores.is_empty()) else {
            return;
        };
        let mispredict = verdicts.is_some_and(|v| v[GSHARE]);
        let out = Outcome {
            fetch_miss: !fetch.hit,
            load_miss: data.is_some_and(|d| !d.hit)
                && inst.mem.is_some_and(|m| m.kind == AccessKind::Read),
            mispredict,
            taken: verdicts.is_some() && !mispredict && inst.ctrl.is_some_and(|c| c.taken),
        };
        for core in &mut self.cores {
            core.step(inst, out);
        }
        self.retired += 1;
    }

    fn finish(&mut self) {
        self.caches.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jrt_trace::{InstClass, Phase};

    const P: Phase = Phase::NativeExec;

    /// One report per width, from a single pass over `trace`.
    fn sweep(widths: &[u32], trace: impl IntoIterator<Item = NativeInst>) -> Vec<PipelineReport> {
        let configs: Vec<_> = widths.iter().map(|&w| PipelineConfig::paper(w)).collect();
        let mut p = PipelineSweep::new(&configs);
        for i in trace {
            p.accept(&i);
        }
        p.reports()
    }

    fn run(width: u32, trace: impl IntoIterator<Item = NativeInst>) -> PipelineReport {
        sweep(&[width], trace)[0]
    }

    /// Independent ALU ops looping over a 1 KB code footprint (so the
    /// I-cache warms up, as in any real loop).
    fn straight_alus(n: u64) -> Vec<NativeInst> {
        (0..n)
            .map(|k| NativeInst::alu(0x1_0000 + (k % 256) * 4, P))
            .collect()
    }

    #[test]
    fn independent_alus_scale_with_width() {
        let [r1, r4] = sweep(&[1, 4], straight_alus(40000))[..] else {
            unreachable!("one report per width")
        };
        assert!(r1.ipc() <= 1.05, "width 1 caps IPC at 1, got {}", r1.ipc());
        assert!(
            r4.ipc() > 3.0,
            "width 4 should near-quadruple, got {}",
            r4.ipc()
        );
        assert!(r4.instructions == 40_000 && r4.cycles >= 10_000);
        assert_eq!((r4.predicted_events, r4.mispredicts), (0, 0));
    }

    #[test]
    fn dependence_chain_caps_ipc_at_one() {
        let chain = |k| NativeInst::alu(0x1_0000 + k * 4, P).with_dst(1);
        let r = run(8, (0..2000u64).map(|k| chain(k).with_srcs(1, None)));
        assert!(r.ipc() < 1.1, "true chain must serialize, got {}", r.ipc());
    }

    #[test]
    fn mispredicted_indirects_throttle_wide_issue() {
        // Alternating-target indirect jump every 4 instructions — the
        // interpreter-dispatch pathology.
        let trace = (0..2000u64).map(|k| {
            let pc = 0x1_0000 + (k % 4) * 4;
            if k % 4 == 3 {
                NativeInst::indirect_jump(pc, 0x2_0000 + (k % 8) * 0x40, P)
            } else {
                NativeInst::alu(pc, P)
            }
        });
        let clean = run(8, straight_alus(40000));
        let dirty = run(8, trace);
        assert!(
            dirty.ipc() < clean.ipc() / 2.0,
            "mispredicts should halve IPC: {} vs {}",
            dirty.ipc(),
            clean.ipc()
        );
        assert!(dirty.mispredict_rate() > 0.5);
    }

    #[test]
    fn load_misses_slow_dependent_code() {
        // Each load feeds the next address — a pointer chase over a
        // large footprint, then the same chain over 8 resident words.
        let load = |addr| NativeInst::load(0x1_0000, addr, 4, P).with_dst(1);
        let slow = run(
            4,
            (0..2000).map(|k| load(0x2000_0000 + k * 4096).with_srcs(1, None)),
        );
        let fast = run(
            4,
            (0..2000).map(|k| load(0x2000_0000 + (k % 8) * 4).with_srcs(1, None)),
        );
        assert!(slow.cycles > fast.cycles * 3);
    }

    #[test]
    fn rob_bounds_inflight_window() {
        // A very long-latency producer followed by many independent
        // ALUs: with a finite ROB, fetch stalls; IPC stays bounded.
        let mut trace = vec![NativeInst::new(0x1_0000, InstClass::IntDiv, P).with_dst(1)];
        trace.extend(straight_alus(500));
        let r = run(8, trace);
        assert!(r.cycles >= 12, "div latency must appear");
        assert!(r.ipc() <= 8.0);
    }

    #[test]
    fn call_ret_pairs_do_not_mispredict() {
        let mut trace = Vec::new();
        for _ in 0..50 {
            trace.push(NativeInst::call(0x1_0000, 0x2_0000, P));
            trace.push(NativeInst::ret(0x2_0010, 0x1_0004, P));
        }
        let r = run(4, trace);
        assert_eq!(r.mispredicts, 0);
        assert_eq!(r.predicted_events, 50); // rets only
    }

    #[test]
    fn either_half_of_the_front_end_runs_alone() {
        let trace = [
            NativeInst::load(0x1_0000, 0x2000_0000, 4, P),
            NativeInst::branch(0x1_0004, 0x1_0000, true, P),
        ];
        let mut whole = PipelineSweep::new(&[]);
        let mut caches = PipelineSweep::front_end(Some(SplitCaches::paper_l1()), false, &[]);
        let mut predictors = PipelineSweep::front_end(None, true, &[]);
        for i in &trace {
            for s in [&mut whole, &mut caches, &mut predictors] {
                s.accept(i);
            }
        }
        let l1 = |s: &PipelineSweep| s.caches().map(|c| *c.dcache().stats());
        assert_eq!((l1(&caches), caches.predictors()), (l1(&whole), None));
        assert_eq!(
            (l1(&predictors), predictors.predictors()),
            (None, whole.predictors())
        );
    }

    #[test]
    #[should_panic(expected = "a core needs the whole front end")]
    fn a_core_needs_both_halves() {
        PipelineSweep::front_end(None, true, &[PipelineConfig::paper(1)]);
    }
}
