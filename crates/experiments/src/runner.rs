//! Shared experiment plumbing: modes, oracle derivation, runs.

use jrt_bytecode::Program;
use jrt_trace::{CountingSink, TraceSink};
use jrt_vm::{OracleDecisions, RunResult, SyncKind, Vm, VmConfig};
use jrt_workloads::{Size, Spec};

/// Execution mode of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Pure interpretation.
    Interp,
    /// Translate on first invocation (Kaffe default).
    Jit,
    /// The paper's per-method oracle ("opt").
    Opt,
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

/// The VM configuration of `mode` on the stack engines (`ir` false) or
/// the register-IR tier (`ir` true): the one mapping from a [`Mode`]
/// to an engine, shared by recordings, count-only summaries and
/// [`run_mode`]. `oracle` supplies the [`Mode::Opt`] decisions and is
/// called only for that mode.
///
/// # Panics
///
/// On `Mode::Opt` with `ir`: the opt oracle has no IR variant.
pub fn vm_config(mode: Mode, ir: bool, oracle: impl FnOnce() -> OracleDecisions) -> VmConfig {
    match (mode, ir) {
        (Mode::Interp, false) => VmConfig::interpreter(),
        (Mode::Interp, true) => VmConfig::ir_interp(),
        (Mode::Jit, false) => VmConfig::jit(),
        (Mode::Jit, true) => VmConfig::ir_jit(),
        (Mode::Opt, false) => VmConfig::oracle(oracle()),
        (Mode::Opt, true) => unreachable!("no IR variant of the opt oracle"),
    }
}

/// Runs `program` under `mode`, streaming into `sink`.
///
/// # Panics
///
/// Panics if the program faults — workloads are self-checking and
/// must not fail.
pub fn run_mode(program: &Program, mode: Mode, sink: &mut impl TraceSink) -> RunResult {
    let cfg = vm_config(mode, false, || derive_oracle(program));
    Vm::new(program, cfg)
        .run(sink)
        .expect("workload runs clean")
}

/// Runs `program` under `mode` with an explicit monitor scheme.
///
/// For [`Mode::Opt`] the caller should pass a pre-derived `oracle`
/// (e.g. from [`crate::tape::oracle`]); with `None` the oracle is
/// re-derived here at the cost of two extra profiling runs.
pub fn run_mode_sync(
    program: &Program,
    mode: Mode,
    sync: SyncKind,
    oracle: Option<&OracleDecisions>,
    sink: &mut impl TraceSink,
) -> RunResult {
    let cfg = vm_config(mode, false, || {
        oracle.cloned().unwrap_or_else(|| derive_oracle(program))
    })
    .with_sync(sync);
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
