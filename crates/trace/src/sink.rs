//! Trace consumers.
//!
//! A [`TraceSink`] receives every [`NativeInst`] an execution engine
//! emits, in program order. Simulators (caches, branch predictors, the
//! superscalar model, the instruction-mix profiler) all implement this
//! trait, and several sinks can observe one execution by combining them
//! with the provided tuple implementations.

use crate::inst::{NativeInst, Phase};

/// A consumer of a native instruction trace.
///
/// Implementations must be prepared for traces of hundreds of millions
/// of events and should therefore do O(1) work per event.
///
/// # Examples
///
/// ```
/// use jrt_trace::{CountingSink, NativeInst, Phase, TraceSink};
///
/// let mut count = CountingSink::new();
/// count.accept(&NativeInst::alu(0x10, Phase::Runtime));
/// assert_eq!(count.total(), 1);
/// ```
pub trait TraceSink {
    /// Observes one instruction, in program order.
    fn accept(&mut self, inst: &NativeInst);

    /// Called once after the last instruction of a run.
    fn finish(&mut self) {}
}

impl<T: TraceSink + ?Sized> TraceSink for &mut T {
    fn accept(&mut self, inst: &NativeInst) {
        (**self).accept(inst);
    }
    fn finish(&mut self) {
        (**self).finish();
    }
}

/// A sink that discards every event; useful when only the engine-side
/// cost counters are of interest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn accept(&mut self, _inst: &NativeInst) {}
}

macro_rules! tuple_sink {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: TraceSink),+> TraceSink for ($($name,)+) {
            fn accept(&mut self, inst: &NativeInst) {
                $(self.$idx.accept(inst);)+
            }
            fn finish(&mut self) {
                $(self.$idx.finish();)+
            }
        }
    };
}

tuple_sink!(A: 0);
tuple_sink!(A: 0, B: 1);
tuple_sink!(A: 0, B: 1, C: 2);
tuple_sink!(A: 0, B: 1, C: 2, D: 3);
tuple_sink!(A: 0, B: 1, C: 2, D: 3, E: 4);
tuple_sink!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7);

/// An optional consumer: `None` observes nothing, so a tuple can
/// carry only the consumers a run asks for.
impl<S: TraceSink> TraceSink for Option<S> {
    fn accept(&mut self, inst: &NativeInst) {
        if let Some(s) = self {
            s.accept(inst);
        }
    }
    fn finish(&mut self) {
        if let Some(s) = self {
            s.finish();
        }
    }
}

/// Homogeneous fan-out: every element observes every event. Lets one
/// execution drive an entire parameter sweep (e.g. four cache
/// configurations) without regenerating the trace.
impl<S: TraceSink> TraceSink for Vec<S> {
    fn accept(&mut self, inst: &NativeInst) {
        for s in self.iter_mut() {
            s.accept(inst);
        }
    }
    fn finish(&mut self) {
        for s in self.iter_mut() {
            s.finish();
        }
    }
}

/// Counts instructions, total and per [`Phase`].
///
/// This is the cheapest useful sink; the Figure 1 cost model
/// (cycles ≈ retired native instructions) is built on these counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountingSink {
    total: u64,
    per_phase: [u64; Phase::ALL.len()],
}

impl CountingSink {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total instructions observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Instructions observed in the given phase.
    pub fn phase(&self, phase: Phase) -> u64 {
        self.per_phase[phase.index()]
    }

    /// Instructions observed in the JIT translate phase.
    pub fn translate(&self) -> u64 {
        self.phase(Phase::Translate)
    }
}

impl TraceSink for CountingSink {
    fn accept(&mut self, inst: &NativeInst) {
        self.total += 1;
        self.per_phase[inst.phase.index()] += 1;
    }
}

/// Records every event into a vector. Only for tests and small traces.
#[derive(Debug, Clone, Default)]
pub struct RecordingSink {
    /// The recorded events, in program order.
    pub events: Vec<NativeInst>,
}

impl RecordingSink {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl TraceSink for RecordingSink {
    fn accept(&mut self, inst: &NativeInst) {
        self.events.push(*inst);
    }
}

/// Forwards only instructions whose phase satisfies a predicate.
///
/// Used to study the translate portion of JIT execution in isolation
/// (Figure 5 of the paper).
#[derive(Debug, Clone)]
pub struct PhaseFilter<S> {
    inner: S,
    predicate: fn(Phase) -> bool,
}

impl<S: TraceSink> PhaseFilter<S> {
    /// Wraps `inner`, forwarding only instructions for which
    /// `predicate` returns `true`.
    pub fn new(inner: S, predicate: fn(Phase) -> bool) -> Self {
        PhaseFilter { inner, predicate }
    }

    /// Consumes the filter, returning the wrapped sink.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Shared access to the wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: TraceSink> TraceSink for PhaseFilter<S> {
    fn accept(&mut self, inst: &NativeInst) {
        if (self.predicate)(inst.phase) {
            self.inner.accept(inst);
        }
    }
    fn finish(&mut self) {
        self.inner.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::NativeInst;

    #[test]
    fn counting_sink_counts_phases() {
        let mut c = CountingSink::new();
        c.accept(&NativeInst::alu(0, Phase::Translate));
        c.accept(&NativeInst::alu(4, Phase::Translate));
        c.accept(&NativeInst::alu(8, Phase::NativeExec));
        assert_eq!(c.total(), 3);
        assert_eq!(c.translate(), 2);
        assert_eq!(c.phase(Phase::NativeExec), 1);
        assert_eq!(c.phase(Phase::Gc), 0);
    }

    #[test]
    fn tuple_fanout_reaches_all() {
        let mut pair = (CountingSink::new(), CountingSink::new());
        pair.accept(&NativeInst::alu(0, Phase::Runtime));
        pair.finish();
        assert_eq!(pair.0.total(), 1);
        assert_eq!(pair.1.total(), 1);
        // `None` elements are skipped; `Some` ones observe everything.
        let mut some_none = (Some(CountingSink::new()), None::<CountingSink>);
        some_none.accept(&NativeInst::alu(0, Phase::Runtime));
        assert_eq!(some_none.0.map(|c| c.total()), Some(1));
    }

    #[test]
    fn phase_filter_forwards_selectively() {
        let mut f = PhaseFilter::new(CountingSink::new(), Phase::is_translate);
        f.accept(&NativeInst::alu(0, Phase::Translate));
        f.accept(&NativeInst::alu(4, Phase::NativeExec));
        assert_eq!(f.inner().total(), 1);
    }

    #[test]
    fn recording_sink_preserves_order() {
        let mut r = RecordingSink::new();
        r.accept(&NativeInst::alu(0, Phase::Runtime));
        r.accept(&NativeInst::alu(4, Phase::Runtime));
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.events[0].pc, 0);
        assert_eq!(r.events[1].pc, 4);
    }

    #[test]
    fn every_sink_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<NullSink>();
        assert_send::<CountingSink>();
        assert_send::<RecordingSink>();
        assert_send::<PhaseFilter<CountingSink>>();
        assert_send::<Vec<CountingSink>>();
    }

    #[test]
    fn mut_ref_is_a_sink() {
        let mut c = CountingSink::new();
        {
            let r: &mut CountingSink = &mut c;
            r.accept(&NativeInst::alu(0, Phase::Runtime));
        }
        assert_eq!(c.total(), 1);
    }
}
