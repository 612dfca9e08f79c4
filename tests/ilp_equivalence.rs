//! The ILP and branch consumers probe their caches and predictors once
//! per event, however many configurations they report. That sharing
//! must be exact:
//!
//! * a `PipelineSweep` — one front end, one timing core per width —
//!   equals the one-width `Pipeline` it replaced (kept below as the
//!   reference) at widths 1–8, field for field, on synthetic streams
//!   and on every workload × {interp, jit, folding} at `tiny`, and its
//!   front end, which probes the I-cache on every fetch, sees the
//!   reference's line-granular I-cache misses and its D-cache
//!   statistics;
//! * Table 2's shared-BTB `BranchEval` equals one evaluator per
//!   predictor;
//! * with the target cache, the BTB never sees an indirect transfer —
//!   the reason the `indirect` study keeps its two evaluators apart.
//!
//! Two ILP invariants hold on every one of those tapes at every width
//! 1–8: widening never adds cycles, and no width beats
//! `ceil(instructions / width)` cycles.

use javart::bpred::{BranchEval, BranchStats, Btb, DirectionPredictor, Gshare, ReturnStack};
use javart::cache::{Cache, CacheConfig};
use javart::experiments::{tape, Mode};
use javart::ilp::{PipelineConfig, PipelineReport, PipelineSweep};
use javart::trace::{AccessKind, InstClass, MemRef, NativeInst, Phase, Tape, TraceSink, NUM_REGS};
use javart::workloads::{suite, Size};
use jrt_testkit::{forall, Rng};
use std::collections::VecDeque;

// ---------------------------------------------------------------------
// Reference model: the one-width pipeline, verbatim except that the
// boxed direction predictor became the `DirectionPredictor` enum, the
// caller-less `with_predictor` constructor is gone, and the L1
// geometry is the paper's, no longer a field of `PipelineConfig`.
// ---------------------------------------------------------------------

const SLOT_RING: usize = 1 << 16;

/// Trace-driven out-of-order core model. See the crate documentation
/// for the modelled mechanisms.
pub struct Pipeline {
    cfg: PipelineConfig,
    icache: Cache,
    dcache: Cache,
    predictor: DirectionPredictor,
    btb: Btb,
    ras: ReturnStack,

    reg_ready: [u64; NUM_REGS],
    rob: VecDeque<u64>,
    // issue-slot occupancy ring: (cycle, issued-count)
    slots: Vec<(u64, u32)>,

    fetch_cycle: u64,
    fetch_in_group: u32,
    last_fetch_line: u64,
    last_complete: u64,

    retired: u64,
    predicted_events: u64,
    mispredicts: u64,
}

impl Pipeline {
    /// Creates a pipeline with the paper's Gshare front end.
    pub fn new(cfg: PipelineConfig) -> Self {
        Pipeline {
            icache: Cache::new(CacheConfig::paper_l1_inst()),
            dcache: Cache::new(CacheConfig::paper_l1_data()),
            predictor: DirectionPredictor::Gshare(Gshare::paper()),
            btb: Btb::paper(),
            ras: ReturnStack::paper(),
            reg_ready: [0; NUM_REGS],
            rob: VecDeque::with_capacity(cfg.rob_size),
            slots: vec![(u64::MAX, 0); SLOT_RING],
            fetch_cycle: 1,
            fetch_in_group: 0,
            last_fetch_line: u64::MAX,
            last_complete: 0,
            retired: 0,
            predicted_events: 0,
            mispredicts: 0,
            cfg,
        }
    }

    /// Cycles elapsed so far.
    pub fn cycles(&self) -> u64 {
        self.last_complete.max(self.fetch_cycle)
    }

    /// Produces the final report.
    pub fn report(&self) -> PipelineReport {
        PipelineReport {
            instructions: self.retired,
            cycles: self.cycles(),
            predicted_events: self.predicted_events,
            mispredicts: self.mispredicts,
        }
    }

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

    fn fetch(&mut self, inst: &NativeInst) -> u64 {
        // New fetch group when the current one is full.
        if self.fetch_in_group >= self.cfg.width {
            self.fetch_cycle += 1;
            self.fetch_in_group = 0;
        }
        // I-cache probe at line granularity.
        let line = inst.pc / u64::from(self.icache.config().line);
        if line != self.last_fetch_line {
            self.last_fetch_line = line;
            let out = self.icache.access(inst.pc, AccessKind::Read, inst.phase);
            if !out.hit {
                self.fetch_cycle += self.cfg.miss_penalty;
                self.fetch_in_group = 0;
            }
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

    fn resolve_control(&mut self, inst: &NativeInst, complete: u64) {
        let Some(ctrl) = inst.ctrl else { return };
        let mispredicted = match inst.class {
            InstClass::CondBranch => {
                self.predicted_events += 1;
                let predicted_taken = self.predictor.predict_and_update(inst.pc, ctrl.taken);
                let mut wrong = predicted_taken != ctrl.taken;
                if ctrl.taken {
                    let target_ok = self.btb.predict_and_update(inst.pc, ctrl.target);
                    if predicted_taken && !target_ok {
                        wrong = true;
                    }
                }
                wrong
            }
            InstClass::IndirectJump | InstClass::IndirectCall => {
                self.predicted_events += 1;
                let ok = self.btb.predict_and_update(inst.pc, ctrl.target);
                if inst.class == InstClass::IndirectCall {
                    self.ras.push(inst.pc + 4);
                }
                !ok
            }
            InstClass::Call => {
                self.ras.push(inst.pc + 4);
                false
            }
            InstClass::Jump => false,
            InstClass::Ret => {
                self.predicted_events += 1;
                self.ras.pop() != Some(ctrl.target)
            }
            _ => return,
        };

        if mispredicted {
            self.mispredicts += 1;
            let redirect = complete + self.cfg.redirect_penalty;
            if redirect > self.fetch_cycle {
                self.fetch_cycle = redirect;
            }
            self.fetch_in_group = 0;
            self.last_fetch_line = u64::MAX;
        } else if ctrl.taken {
            // Correctly predicted taken transfer still ends the fetch
            // group (one taken transfer per cycle).
            self.fetch_cycle += 1;
            self.fetch_in_group = 0;
        }
    }
}

impl TraceSink for Pipeline {
    fn accept(&mut self, inst: &NativeInst) {
        let fetch = self.fetch(inst);

        // Rename: only true dependences delay dispatch.
        let mut ready = fetch + self.cfg.frontend_depth;
        for src in [inst.src1, inst.src2].into_iter().flatten() {
            ready = ready.max(self.reg_ready[usize::from(src) % NUM_REGS]);
        }

        let issue = self.claim_issue_slot(ready);

        let mut latency = self.cfg.latency(inst.class);
        if let Some(m) = inst.mem {
            let out = self.dcache.access(m.addr, m.kind, inst.phase);
            if !out.hit && m.kind == AccessKind::Read {
                latency += self.cfg.miss_penalty;
            }
        }

        let complete = issue + latency;
        if let Some(dst) = inst.dst {
            self.reg_ready[usize::from(dst) % NUM_REGS] = complete;
        }
        self.rob.push_back(complete);
        if complete > self.last_complete {
            self.last_complete = complete;
        }
        self.retired += 1;

        // Control transfers whose operands were ready long before the
        // transfer (no outstanding register sources) resolve in the
        // decode stage — the front end verifies the predicted target
        // without waiting for execution.
        let resolve_at = if inst.ctrl.is_some() && inst.src1.is_none() && inst.src2.is_none() {
            (fetch + 2).min(complete)
        } else {
            complete
        };
        self.resolve_control(inst, resolve_at);
    }
}

// ---------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------

/// Issue widths 1–8.
const WIDTHS: [u32; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// Asserts the sweep over `WIDTHS` and one reference pipeline per width
/// report the same numbers, field for field, over `replay`'s stream,
/// and that the sweep's front end saw each reference's I-cache misses
/// and D-cache statistics.
fn assert_sweep_matches_reference(ctx: &str, replay: impl Fn(&mut dyn TraceSink)) {
    let mut sweep = PipelineSweep::new(&WIDTHS.map(PipelineConfig::paper));
    replay(&mut sweep);
    let l1 = sweep.caches().expect("the whole front end");
    for (report, width) in sweep.reports().into_iter().zip(WIDTHS) {
        let mut reference = Pipeline::new(PipelineConfig::paper(width));
        replay(&mut reference);
        assert_eq!(report, reference.report(), "{ctx}: width {width}");
        let (i, d) = (reference.icache.stats(), reference.dcache.stats());
        assert_eq!(
            l1.icache().stats().misses(),
            i.misses(),
            "{ctx}: w{width} I"
        );
        assert_eq!(l1.dcache().stats(), d, "{ctx}: w{width} D");
    }
}

/// Text pcs: 16 words (two 32-byte I-lines) at each of four sites 4 KiB
/// apart, so sites alias in the 1K-entry BTB and runs stay in one line.
fn pc(rng: &mut Rng) -> u64 {
    0x1_0000 + rng.u64_in(0..4) * 4096 + rng.u64_in(0..16) * 4
}

/// One instruction of any class, with or without register operands;
/// control transfers go to a few targets (so the BTB both hits and
/// thrashes), loads read and stores write over more than the 64 KiB
/// D-cache, and returns mostly go back to their call.
fn arbitrary_inst(rng: &mut Rng, calls: &mut Vec<u64>) -> NativeInst {
    let class = *rng.choose(&InstClass::ALL);
    let mut i = NativeInst::new(pc(rng), class, *rng.choose(&Phase::ALL));
    let target = 0x2_0000 + rng.u64_in(0..4) * 0x40;
    match class {
        InstClass::Load | InstClass::Store => {
            let kind = if class == InstClass::Load {
                AccessKind::Read
            } else {
                AccessKind::Write
            };
            let addr = 0x2000_0000 + rng.u64_in(0..32 * 1024) * 4;
            i.mem = Some(MemRef {
                addr,
                size: 4,
                kind,
            });
        }
        InstClass::CondBranch => i = NativeInst::branch(i.pc, target, rng.bool(), i.phase),
        InstClass::Jump => i = NativeInst::jump(i.pc, target, i.phase),
        InstClass::IndirectJump => i = NativeInst::indirect_jump(i.pc, target, i.phase),
        InstClass::Call | InstClass::IndirectCall => {
            calls.push(i.pc + 4);
            i = if class == InstClass::Call {
                NativeInst::call(i.pc, target, i.phase)
            } else {
                NativeInst::indirect_call(i.pc, target, i.phase)
            };
        }
        InstClass::Ret => {
            let back = calls.pop().filter(|_| rng.u64_in(0..4) != 0);
            i = NativeInst::ret(i.pc, back.unwrap_or(target), i.phase);
        }
        _ => {}
    }
    if rng.bool() {
        i = i.with_srcs(rng.u8() % 8, rng.bool().then(|| rng.u8() % 8));
    }
    if rng.bool() {
        i = i.with_dst(rng.u8() % 8);
    }
    i
}

/// A stream of arbitrary instructions, with call chains deeper than the
/// 8-entry return stack mixed in.
fn arbitrary_stream(rng: &mut Rng) -> Vec<NativeInst> {
    let mut calls = Vec::new();
    let mut out = Vec::new();
    for _ in 0..rng.usize_in(1..600) {
        if rng.u64_in(0..50) == 0 {
            let sites: Vec<u64> = (0..rng.u64_in(9..14)).map(|_| pc(rng)).collect();
            for &site in &sites {
                out.push(NativeInst::call(site, 0x3_0000, Phase::NativeExec));
            }
            for &site in sites.iter().rev() {
                out.push(NativeInst::ret(pc(rng), site + 4, Phase::NativeExec));
            }
        } else {
            out.push(arbitrary_inst(rng, &mut calls));
        }
    }
    out
}

fn feed(sink: &mut dyn TraceSink, events: &[NativeInst]) {
    for e in events {
        sink.accept(e);
    }
}

/// Records `spec`'s stream under `mode` at `tiny`.
fn record(spec: &javart::workloads::Spec, mode: Mode) -> Tape {
    let w = tape::workload(spec, Size::Tiny);
    Tape::record(|rec| {
        tape::run(&w, tape::config(&w, mode), rec);
    })
}

/// Every stream the ILP figures read at `tiny`: each workload under the
/// interpreter and the JIT (Figures 9/10) and under the folding
/// interpreter (the folding study).
fn ilp_tapes() -> Vec<(String, Tape)> {
    let mut tapes = Vec::new();
    for spec in suite() {
        for mode in [Mode::Interp, Mode::Jit, Mode::Folding] {
            let name = format!("{} {}", spec.name, mode.label());
            tapes.push((name, record(&spec, mode)));
        }
    }
    tapes
}

/// Property: on arbitrary streams the sweep equals one reference
/// pipeline per width.
#[test]
fn sweep_matches_reference_on_synthetic_streams() {
    forall!(cases = 96, seed = 0x11F_0001, |rng| {
        let events = arbitrary_stream(rng);
        assert_sweep_matches_reference("synthetic", |sink| feed(sink, &events));
    });
}

/// The same equality on every tape Figures 9/10 and the folding study
/// replay.
#[test]
fn sweep_matches_reference_for_every_workload_and_mode() {
    for (name, tape) in ilp_tapes() {
        assert_sweep_matches_reference(&name, |mut sink| tape.replay(&mut sink));
    }
}

/// Widening never adds cycles, and a width-`w` core needs at least
/// `ceil(instructions / w)` cycles, at every width 1–8 on every tape.
#[test]
fn wider_issue_never_adds_cycles_and_respects_the_width_bound() {
    for (name, tape) in ilp_tapes() {
        let mut sweep = PipelineSweep::new(&WIDTHS.map(PipelineConfig::paper));
        tape.replay(&mut sweep);
        let reports = sweep.reports();
        for (r, &w) in reports.iter().zip(&WIDTHS) {
            let bound = r.instructions.div_ceil(u64::from(w));
            assert!(r.cycles >= bound, "{name} w{w}: {} < {bound}", r.cycles);
        }
        for (k, pair) in reports.windows(2).enumerate() {
            assert!(
                pair[1].cycles <= pair[0].cycles,
                "{name}: w{} takes {} cycles, w{} {}",
                WIDTHS[k + 1],
                pair[1].cycles,
                WIDTHS[k],
                pair[0].cycles
            );
        }
    }
}

/// Table 2's evaluator (four predictors, one BTB and return stack)
/// against four evaluators with a private BTB and return stack each.
fn assert_shared_matches_singles(ctx: &str, replay: impl Fn(&mut dyn TraceSink)) {
    let mut shared = BranchEval::shared(DirectionPredictor::paper_set());
    replay(&mut shared);
    for (k, predictor) in DirectionPredictor::paper_set().into_iter().enumerate() {
        let name = predictor.name();
        let mut single = BranchEval::new(predictor);
        replay(&mut single);
        assert_eq!(shared.all_stats()[k], *single.stats(), "{ctx}: {name}");
    }
}

#[test]
fn shared_btb_evaluator_matches_one_evaluator_per_predictor() {
    forall!(cases = 64, seed = 0x7AB1E2, |rng| {
        let events = arbitrary_stream(rng);
        assert_shared_matches_singles("synthetic", |sink| feed(sink, &events));
    });
    for spec in suite() {
        for mode in Mode::BOTH {
            let ctx = format!("{} {mode:?}", spec.name);
            let tape = record(&spec, mode);
            assert_shared_matches_singles(&ctx, |mut sink| tape.replay(&mut sink));
        }
    }
}

/// The conditional-branch counters of an evaluator, which depend on the
/// direction predictor and the BTB only.
fn cond_counts(s: &BranchStats) -> (u64, u64) {
    (s.cond, s.cond_miss)
}

/// With the target cache, indirect transfers never reach the BTB: its
/// conditional branches fare exactly as in a plain evaluator that never
/// sees an indirect transfer at all. A BTB shared with Table 2's
/// evaluator, which the `indirect` study reads as its plain-BTB
/// scheme, would break this.
#[test]
fn target_cache_keeps_indirect_transfers_out_of_the_btb() {
    let check = |ctx: &str, events: &[NativeInst]| {
        let gshare = || DirectionPredictor::Gshare(Gshare::paper());
        let mut with_tc = BranchEval::new(gshare()).with_target_cache();
        feed(&mut with_tc, events);
        let mut plain = BranchEval::new(gshare());
        for e in events {
            if !matches!(e.class, InstClass::IndirectJump | InstClass::IndirectCall) {
                plain.accept(e);
            }
        }
        assert_eq!(
            cond_counts(with_tc.stats()),
            cond_counts(plain.stats()),
            "{ctx}"
        );
    };
    forall!(cases = 64, seed = 0x7C_0001, |rng| {
        check("synthetic", &arbitrary_stream(rng));
    });
    let mut events = javart::trace::RecordingSink::new();
    record(&suite()[0], Mode::Interp).replay(&mut events);
    check("compress interp", &events.events);
}
