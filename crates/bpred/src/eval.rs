//! Trace-driven branch prediction evaluation (Table 2 of the paper).

use crate::btb::{Btb, ReturnStack};
use crate::predictors::DirectionPredictor;
use crate::target_cache::TargetCache;
use jrt_trace::{CtrlInfo, InstClass, NativeInst, TraceSink};

/// Misprediction statistics gathered by [`BranchEval`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Conditional branches seen.
    pub cond: u64,
    /// Conditional branches mispredicted (direction or taken-target).
    pub cond_miss: u64,
    /// Indirect jumps/calls seen.
    pub indirect: u64,
    /// Indirect jumps/calls whose target was mispredicted.
    pub indirect_miss: u64,
    /// Returns seen.
    pub rets: u64,
    /// Returns mispredicted.
    pub ret_miss: u64,
    /// Direct jumps and calls (target known at decode; always correct).
    pub direct: u64,
}

impl BranchStats {
    /// Events that require prediction (conditional + indirect + return).
    pub fn predicted_events(&self) -> u64 {
        self.cond + self.indirect + self.rets
    }

    /// Total mispredictions.
    pub fn mispredicts(&self) -> u64 {
        self.cond_miss + self.indirect_miss + self.ret_miss
    }

    /// Overall misprediction rate over events requiring prediction.
    pub fn overall_rate(&self) -> f64 {
        ratio(self.mispredicts(), self.predicted_events())
    }

    /// Prediction accuracy (1 − misprediction rate), as the paper
    /// quotes for Gshare ("65 to 87% in interpreter mode").
    pub fn accuracy(&self) -> f64 {
        1.0 - self.overall_rate()
    }

    /// Conditional-branch misprediction rate.
    pub fn cond_rate(&self) -> f64 {
        ratio(self.cond_miss, self.cond)
    }

    /// Indirect-transfer target misprediction rate.
    pub fn indirect_rate(&self) -> f64 {
        ratio(self.indirect_miss, self.indirect)
    }
}

/// `num / den`, and 0 when `den` (hence `num`) is 0.
fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// Drives `N` direction predictors (by default one) from a native
/// trace, collecting [`BranchStats`] per predictor.
///
/// The BTB (1K entries), the 8-deep return stack and the optional
/// [`TargetCache`] are shared: their state depends on the trace alone,
/// never on a predicted direction, so one copy serves every predictor
/// exactly as a private copy each would.
pub struct BranchEval<const N: usize = 1> {
    predictors: [DirectionPredictor; N],
    stats: [BranchStats; N],
    btb: Btb,
    target_cache: Option<TargetCache>,
    ras: ReturnStack,
}

impl<const N: usize> std::fmt::Debug for BranchEval<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (names, stats) = (self.predictors.each_ref().map(|p| p.name()), &self.stats);
        write!(
            f,
            "BranchEval {{ predictors: {names:?}, stats: {stats:?} }}"
        )
    }
}

impl BranchEval {
    /// Creates an evaluation harness for one predictor.
    pub fn new(predictor: DirectionPredictor) -> Self {
        Self::shared([predictor])
    }
}

impl<const N: usize> BranchEval<N> {
    /// Creates one harness in which `predictors` share the target
    /// structures — Table 2's four columns in one pass.
    pub fn shared(predictors: [DirectionPredictor; N]) -> Self {
        BranchEval {
            stats: [BranchStats::default(); N],
            predictors,
            btb: Btb::paper(),
            target_cache: None,
            ras: ReturnStack::paper(),
        }
    }

    /// Adds the indirect-branch-tailored predictor the paper
    /// recommends for interpreted execution: indirect jumps/calls are
    /// predicted by a path-history [`TargetCache`] instead of the
    /// plain BTB, which then never sees them.
    pub fn with_target_cache(mut self) -> Self {
        self.target_cache = Some(TargetCache::paper());
        self
    }

    /// Statistics of the first (or only) predictor.
    pub fn stats(&self) -> &BranchStats {
        &self.stats[0]
    }

    /// Statistics per predictor, in construction order.
    pub fn all_stats(&self) -> &[BranchStats; N] {
        &self.stats
    }

    /// Classifies `inst`, trains every structure on it, and returns
    /// whether each predictor's front end mispredicted it, in
    /// construction order; `None` if it is not a control transfer. This
    /// is the one branch classification: the `jrt-ilp` front end calls
    /// it too. Rules:
    ///
    /// * conditional branch — mispredicted if the direction is wrong,
    ///   or if predicted taken and the BTB target differs from the
    ///   resolved target;
    /// * indirect jump/call — mispredicted if the BTB (or target
    ///   cache) has no entry for the PC or its target differs;
    /// * return — predicted by the return-address stack (empty stack
    ///   mispredicts); calls push their fall-through address;
    /// * direct jump/call — always predicted correctly.
    pub fn resolve(&mut self, inst: &NativeInst) -> Option<[bool; N]> {
        // Most events are not transfers: keep their path inlinable.
        let ctrl = inst.ctrl?;
        self.transfer(inst, ctrl)
    }

    fn transfer(&mut self, inst: &NativeInst, ctrl: CtrlInfo) -> Option<[bool; N]> {
        let (pc, taken, target) = (inst.pc, ctrl.taken, ctrl.target);
        // The target side depends on the trace alone: all share it.
        let target_ok = match inst.class {
            InstClass::CondBranch => taken && self.btb.predict_and_update(pc, target),
            InstClass::IndirectJump | InstClass::IndirectCall => match &mut self.target_cache {
                Some(tc) => tc.predict_and_update(pc, target),
                None => self.btb.predict_and_update(pc, target),
            },
            InstClass::Ret => self.ras.pop() == Some(target),
            InstClass::Jump | InstClass::Call => true,
            _ => return None,
        };
        if matches!(inst.class, InstClass::Call | InstClass::IndirectCall) {
            self.ras.push(pc + 4);
        }
        let mut verdicts = [false; N];
        let each = self.predictors.iter_mut().zip(&mut self.stats);
        for ((p, s), verdict) in each.zip(&mut verdicts) {
            let (seen, missed, wrong) = match inst.class {
                InstClass::CondBranch => {
                    let predicted = p.predict_and_update(pc, taken);
                    let wrong = predicted != taken || (taken && !target_ok);
                    (&mut s.cond, &mut s.cond_miss, wrong)
                }
                InstClass::Ret => (&mut s.rets, &mut s.ret_miss, !target_ok),
                // Never mispredicted, so no miss counter.
                InstClass::Jump | InstClass::Call => (&mut s.direct, &mut 0, false),
                _ => (&mut s.indirect, &mut s.indirect_miss, !target_ok),
            };
            *seen += 1;
            *missed += u64::from(wrong);
            *verdict = wrong;
        }
        Some(verdicts)
    }
}

impl<const N: usize> TraceSink for BranchEval<N> {
    fn accept(&mut self, inst: &NativeInst) {
        self.resolve(inst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictors::{Bht, Gshare};
    use jrt_trace::{NativeInst, Phase};

    const P: Phase = Phase::NativeExec;

    #[test]
    fn loop_branch_is_learned() {
        let mut e = BranchEval::new(DirectionPredictor::Bht(Bht::paper()));
        for _ in 0..100 {
            e.accept(&NativeInst::branch(0x4000, 0x3000, true, P));
        }
        assert!(e.stats().cond_rate() < 0.05);
    }

    #[test]
    fn monomorphic_indirect_hits_after_warmup() {
        let mut e = BranchEval::new(DirectionPredictor::Bht(Bht::paper()));
        for _ in 0..10 {
            e.accept(&NativeInst::indirect_call(0x4000, 0x9000, P));
        }
        assert_eq!(e.stats().indirect_miss, 1, "only the cold miss");
    }

    #[test]
    fn polymorphic_indirect_thrashes_btb() {
        let mut e = BranchEval::new(DirectionPredictor::Bht(Bht::paper()));
        // Alternating targets — the interpreter switch pathology.
        for k in 0..100u64 {
            let target = 0x9000 + (k % 2) * 0x100;
            e.accept(&NativeInst::indirect_jump(0x4000, target, P));
        }
        assert!(e.stats().indirect_rate() > 0.9);
    }

    #[test]
    fn call_ret_pairs_predict_via_ras() {
        let mut e = BranchEval::new(DirectionPredictor::Bht(Bht::paper()));
        for _ in 0..10 {
            e.accept(&NativeInst::call(0x4000, 0x9000, P));
            e.accept(&NativeInst::ret(0x9010, 0x4004, P));
        }
        assert_eq!(e.stats().ret_miss, 0);
        assert_eq!(e.stats().direct, 10);
        // An unmatched return finds the stack empty.
        e.accept(&NativeInst::ret(0x9010, 0x4004, P));
        assert_eq!(e.stats().ret_miss, 1);
    }

    #[test]
    fn non_transfers_are_ignored() {
        let mut e = BranchEval::new(DirectionPredictor::Gshare(Gshare::paper()));
        e.accept(&NativeInst::alu(0x4000, P));
        e.accept(&NativeInst::load(0x4004, 0x2000_0000, 4, P));
        assert_eq!(e.stats().predicted_events(), 0);
        assert_eq!(e.stats().overall_rate(), 0.0);
    }

    #[test]
    fn taken_branch_needs_correct_btb_target() {
        let mut e = BranchEval::new(DirectionPredictor::Bht(Bht::paper()));
        // Warm the direction predictor and the BTB.
        for _ in 0..5 {
            e.accept(&NativeInst::branch(0x4000, 0x3000, true, P));
        }
        let before = e.stats().cond_miss;
        // Same direction, different target (e.g. rewritten code).
        e.accept(&NativeInst::branch(0x4000, 0x3800, true, P));
        assert_eq!(e.stats().cond_miss, before + 1);
    }

    #[test]
    fn accuracy_is_complement() {
        let mut e = BranchEval::new(DirectionPredictor::Bht(Bht::paper()));
        for k in 0..10 {
            e.accept(&NativeInst::branch(0x4000, 0x3000, k % 2 == 0, P));
        }
        let s = *e.stats();
        assert!((s.accuracy() + s.overall_rate() - 1.0).abs() < 1e-12);
    }
}
