//! Cross-engine equivalence: every workload computes the same result
//! under the interpreter, the JIT, the threshold policy, the oracle,
//! and both register-IR engines — and matches its host-side reference
//! implementation.

use javart::experiments::{tape, Mode};
use javart::trace::CountingSink;
use javart::vm::{ExecMode, JitPolicy, SyncKind, Vm, VmConfig};
use javart::workloads::{suite_with_hello, Size};

#[test]
fn all_workloads_agree_across_engines() {
    for spec in suite_with_hello() {
        let w = tape::workload(&spec, Size::Tiny);
        let expected = (spec.expected)(Size::Tiny);

        let configs: Vec<(&str, VmConfig)> = vec![
            ("interp", VmConfig::interpreter()),
            ("jit", VmConfig::jit()),
            (
                "threshold",
                VmConfig {
                    mode: ExecMode::Jit(JitPolicy::Threshold(4)),
                    ..VmConfig::default()
                },
            ),
            ("oracle", tape::config(&w, Mode::Opt)),
            ("ir-interp", VmConfig::ir_interp()),
            ("ir-jit", VmConfig::ir_jit()),
        ];
        for (label, cfg) in configs {
            let r = Vm::new(&w.program, cfg)
                .run(&mut CountingSink::new())
                .unwrap_or_else(|e| panic!("{}/{label}: {e}", spec.name));
            assert_eq!(
                r.exit_value,
                Some(expected),
                "{}/{label} diverged from the host reference",
                spec.name
            );
        }
    }
}

#[test]
fn all_workloads_agree_across_sync_engines() {
    for spec in suite_with_hello() {
        let program = (spec.build)(Size::Tiny);
        let expected = (spec.expected)(Size::Tiny);
        for sync in SyncKind::ALL {
            let r = Vm::new(&program, VmConfig::jit().with_sync(sync))
                .run(&mut CountingSink::new())
                .unwrap_or_else(|e| panic!("{}/{sync:?}: {e}", spec.name));
            assert_eq!(r.exit_value, Some(expected), "{}/{sync:?}", spec.name);
        }
    }
}

#[test]
fn ir_engines_observe_identically_to_the_stack_interpreter() {
    // The register IR is a cost plan, never an alternate executor:
    // every workload's full Observables — outcome, console output,
    // bytecode count, per-opcode histogram — must be bit-identical
    // between the stack interpreter and both IR engines.
    for spec in suite_with_hello() {
        let program = (spec.build)(Size::Tiny);
        let reference = Vm::new(&program, VmConfig::interpreter())
            .run_observed(&mut CountingSink::new())
            .observables;
        for (label, cfg) in [
            ("ir-interp", VmConfig::ir_interp()),
            ("ir-jit", VmConfig::ir_jit()),
        ] {
            let got = Vm::new(&program, cfg)
                .run_observed(&mut CountingSink::new())
                .observables;
            assert_eq!(
                reference, got,
                "{}/{label}: Observables diverged from the stack interpreter",
                spec.name
            );
        }
    }
}

#[test]
fn runs_are_bit_deterministic() {
    // Same program, same config => identical instruction counts and
    // per-phase breakdowns (the property every experiment relies on).
    for spec in suite_with_hello() {
        let program = (spec.build)(Size::Tiny);
        let mut a = CountingSink::new();
        let mut b = CountingSink::new();
        let ra = Vm::new(&program, VmConfig::jit()).run(&mut a).unwrap();
        let rb = Vm::new(&program, VmConfig::jit()).run(&mut b).unwrap();
        assert_eq!(a, b, "{}: trace diverged between runs", spec.name);
        assert_eq!(ra.exit_value, rb.exit_value);
        assert_eq!(ra.counters, rb.counters);
    }
}

#[test]
fn rebuilt_programs_are_identical() {
    // Program construction itself is deterministic.
    for spec in suite_with_hello() {
        let a = (spec.build)(Size::Tiny);
        let b = (spec.build)(Size::Tiny);
        assert_eq!(a.num_classes(), b.num_classes());
        for (ca, cb) in a.classes().iter().zip(b.classes()) {
            assert_eq!(ca, cb, "{}: class {} differs", spec.name, ca.name);
        }
    }
}
