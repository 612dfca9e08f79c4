//! Shared experiment plumbing: modes, oracle derivation, runs.

use jrt_bytecode::Program;
use jrt_trace::{CountingSink, TraceSink};
use jrt_vm::{OracleDecisions, RunResult, Vm, VmConfig};
use jrt_workloads::{Size, Spec};

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
        }
    }
}

/// Derives the paper's oracle for `program` by profiling one
/// interpreter run and one JIT run.
pub fn derive_oracle(program: &Program) -> OracleDecisions {
    let interp = run_mode(program, Mode::Interp, &mut CountingSink::new());
    let jit = run_mode(program, Mode::Jit, &mut CountingSink::new());
    OracleDecisions::from_profiles(&interp.profile, &jit.profile)
}

/// The VM configuration of `mode`: the one mapping from a [`Mode`] to
/// an engine, shared by pass streams, count-only summaries and
/// [`run_mode`]. `oracle` supplies the [`Mode::Opt`] decisions and is
/// called only for that mode.
pub fn vm_config(mode: Mode, oracle: impl FnOnce() -> OracleDecisions) -> VmConfig {
    match mode {
        Mode::Interp => VmConfig::interpreter(),
        Mode::Jit => VmConfig::jit(),
        Mode::Opt => VmConfig::oracle(oracle()),
        Mode::Folding => VmConfig::interpreter().with_folding(),
        Mode::IrInterp => VmConfig::ir_interp(),
        Mode::IrJit => VmConfig::ir_jit(),
    }
}

/// Runs `program` under `mode`, streaming into `sink`.
///
/// # Panics
///
/// Panics if the program faults — workloads are self-checking and
/// must not fail.
pub fn run_mode(program: &Program, mode: Mode, sink: &mut impl TraceSink) -> RunResult {
    let cfg = vm_config(mode, || derive_oracle(program));
    Vm::new(program, cfg)
        .run(sink)
        .expect("workload runs clean")
}

/// Verifies the run returned the workload's expected checksum.
pub fn check(spec: &Spec, size: Size, result: &RunResult) {
    assert_eq!(
        result.exit_value,
        Some((spec.expected)(size)),
        "{} checksum mismatch in {} mode",
        spec.name,
        result.mode
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use jrt_workloads::hello;

    #[test]
    fn all_three_modes_agree_on_hello() {
        let p = hello::program(Size::Tiny);
        for mode in [Mode::Interp, Mode::Jit, Mode::Opt] {
            let r = run_mode(&p, mode, &mut CountingSink::new());
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
