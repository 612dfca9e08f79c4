//! The execution modes of the experiments. [`crate::tape::config`]
//! maps each to its engine, and [`crate::tape::run`] runs it.

/// Execution mode of an experiment run: the engine that runs it, and
/// so the native stream it emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Pure interpretation.
    Interp,
    /// Translate on first invocation (Kaffe default).
    Jit,
    /// The paper's per-method oracle ("opt").
    Opt,
    /// The interpreter with picoJava-style stack-op folding (Section
    /// 4.4's suggestion).
    Folding,
    /// The register-IR interpreter.
    IrInterp,
    /// The JIT translating from the register IR.
    IrJit,
    /// The JIT with thin locks (Figure 11).
    ThinLock,
    /// The JIT with the paper's 1-bit locks (Figure 11).
    OneBit,
    /// The two-tier JIT of the code-cache study
    /// ([`crate::codecache::TIERED`]).
    Tiered,
}

impl Mode {
    /// The two modes compared throughout Section 4.
    pub const BOTH: [Mode; 2] = [Mode::Interp, Mode::Jit];

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            Mode::Interp => "interp",
            Mode::Jit => "jit",
            Mode::Opt => "opt",
            Mode::Folding => "interp-fold",
            Mode::IrInterp => "ir-interp",
            Mode::IrJit => "ir-jit",
            Mode::ThinLock => "jit-thin",
            Mode::OneBit => "jit-1bit",
            Mode::Tiered => "tiered",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape;
    use jrt_trace::CountingSink;
    use jrt_workloads::{hello, suite_with_hello, Size};

    #[test]
    fn all_three_modes_agree_on_hello() {
        let w = tape::workload(&suite_with_hello()[0], Size::Tiny);
        for mode in [Mode::Interp, Mode::Jit, Mode::Opt] {
            let r = tape::run(&w, tape::config(&w, mode), &mut CountingSink::new());
            assert_eq!(r.exit_value, Some(hello::expected(Size::Tiny)), "{mode:?}");
        }
    }

    #[test]
    fn labels() {
        assert_eq!(Mode::Interp.label(), "interp");
        assert_eq!(Mode::Jit.label(), "jit");
        assert_eq!(Mode::Opt.label(), "opt");
    }
}
