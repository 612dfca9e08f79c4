//! Tape round-trip properties: recording a native-instruction stream
//! and replaying it must reproduce the exact event sequence — for
//! arbitrary synthetic streams and for every real workload × mode.

use javart::experiments::runner::{run_mode, Mode};
use javart::experiments::tape;
use javart::trace::{
    AccessKind, CountingSink, CtrlInfo, InstClass, MemRef, NativeInst, Phase, RecordingSink, Tape,
    TraceSink,
};
use javart::vm::{GcConfig, Vm, VmConfig};
use javart::workloads::{gc_suite, suite_with_hello, Size};
use jrt_testkit::forall;

/// Draws a fully random instruction event: any class/phase pairing,
/// adversarial (non-local) addresses, and independently present
/// operand fields — deliberately harsher than anything the VM emits.
fn arbitrary_inst(rng: &mut jrt_testkit::Rng) -> NativeInst {
    let mut i = NativeInst::new(
        rng.next_u64(),
        *rng.choose(&InstClass::ALL),
        *rng.choose(&Phase::ALL),
    );
    if rng.bool() {
        i.mem = Some(MemRef {
            addr: rng.next_u64(),
            size: rng.u8(),
            kind: if rng.bool() {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
        });
    }
    if rng.bool() {
        i.ctrl = Some(CtrlInfo {
            target: rng.next_u64(),
            taken: rng.bool(),
        });
    }
    if rng.bool() {
        i.dst = Some(rng.u8());
    }
    if rng.bool() {
        i.src1 = Some(rng.u8());
    }
    if rng.bool() {
        i.src2 = Some(rng.u8());
    }
    i
}

/// Arbitrary synthetic streams survive the pack/unpack cycle exactly.
#[test]
fn synthetic_streams_round_trip_exactly() {
    forall!(cases = 64, seed = 0x7A9E, |rng| {
        let events = rng.vec(0..400, arbitrary_inst);
        let tape = Tape::record(|rec| {
            for e in &events {
                rec.accept(e);
            }
        });
        assert_eq!(tape.len(), events.len() as u64);

        let mut out = RecordingSink::new();
        tape.replay(&mut out);
        assert_eq!(out.events, events);
    });
}

/// `Tape::record` → `replay` reproduces the exact event sequence of a
/// direct VM run for every workload × mode at `tiny`, and the packed
/// encoding stays compact. The count-only `tape::summary` of a key
/// agrees with a direct run.
#[test]
fn tape_reproduces_vm_event_stream_for_every_workload_and_mode() {
    for spec in suite_with_hello() {
        let w = tape::workload(&spec, Size::Tiny);
        for (label, summary, cfg) in [
            (
                "interp",
                tape::summary(&w, Mode::Interp),
                VmConfig::interpreter(),
            ),
            ("jit", tape::summary(&w, Mode::Jit), VmConfig::jit()),
            ("ir-jit", tape::summary(&w, Mode::IrJit), VmConfig::ir_jit()),
        ] {
            let mut counts = CountingSink::new();
            let r = Vm::new(&w.program, cfg).run(&mut counts).unwrap();
            let at = format!("{} {label} summary", spec.name);
            assert_eq!(summary.counts, counts, "{at}: per-phase counts");
            assert_eq!(summary.result.counters, r.counters, "{at}: counters");
            assert_eq!(summary.result.footprint, r.footprint, "{at}: footprint");
        }
        let program = &w.program;
        for mode in [Mode::Interp, Mode::Jit, Mode::Opt] {
            let mut direct = RecordingSink::new();
            let r = run_mode(program, mode, &mut direct);
            assert_eq!(r.exit_value, Some((spec.expected)(Size::Tiny)));

            let tape = Tape::record(|rec| {
                run_mode(program, mode, rec);
            });
            let mut replayed = RecordingSink::new();
            tape.replay(&mut replayed);

            assert_eq!(
                replayed.events.len(),
                direct.events.len(),
                "{} {mode:?}: event count",
                spec.name
            );
            assert_eq!(
                replayed.events, direct.events,
                "{} {mode:?}: event sequence",
                spec.name
            );
            // Counter/trace equivalence: the run's counters and its
            // event stream are two views of the same execution and
            // must agree — Translate-phase events are exactly the
            // translator instructions the counters claim, and
            // ClassLoad events are exactly the class-loading work.
            let translate_events = direct
                .events
                .iter()
                .filter(|e| e.phase.is_translate())
                .count() as u64;
            assert_eq!(
                translate_events, r.counters.translate_insts,
                "{} {mode:?}: translate events vs counter",
                spec.name
            );
            let classload_events = direct
                .events
                .iter()
                .filter(|e| e.phase == Phase::ClassLoad)
                .count() as u64;
            assert_eq!(
                classload_events, r.counters.classload_insts,
                "{} {mode:?}: classload events vs counter",
                spec.name
            );
            if matches!(mode, Mode::Interp) {
                // The non-folded dispatch loop emits exactly 6
                // InterpDispatch events per executed bytecode.
                let dispatches = direct
                    .events
                    .iter()
                    .filter(|e| e.phase == Phase::InterpDispatch)
                    .count() as u64;
                assert_eq!(
                    dispatches,
                    6 * r.counters.bytecodes,
                    "{} {mode:?}: dispatch events vs bytecode counter",
                    spec.name
                );
            }
            // Real traces are pc-sequential and spatially local; the
            // delta encoding should stay well under the 64-byte
            // in-memory event.
            let bytes_per_event = tape.size_bytes() as f64 / tape.len().max(1) as f64;
            assert!(
                bytes_per_event < 8.0,
                "{} {mode:?}: {bytes_per_event} bytes/event",
                spec.name
            );
        }
    }
}

/// GC trace/counter equivalence: [`Phase::Gc`] events are exactly the
/// collector instructions the counters claim, [`Phase::GcBarrier`]
/// events exactly the barrier instructions — for every GC workload
/// under a forcing nursery, across the emitter families. The tape
/// must also round-trip the collector phases losslessly.
#[test]
fn gc_events_match_counters_and_round_trip() {
    for spec in gc_suite() {
        let program = (spec.build)(Size::Tiny);
        for (label, cfg) in [
            ("interp", VmConfig::interpreter()),
            ("jit", VmConfig::jit()),
            ("ir-interp", VmConfig::ir_interp()),
            ("ir-jit", VmConfig::ir_jit()),
        ] {
            let cfg = cfg.with_gc(GcConfig::tiny_nursery());
            let mut direct = RecordingSink::new();
            let r = Vm::new(&program, cfg.clone())
                .run(&mut direct)
                .unwrap_or_else(|e| panic!("{}/{label}: {e}", spec.name));
            assert_eq!(r.exit_value, Some((spec.expected)(Size::Tiny)));

            let gc_events = direct
                .events
                .iter()
                .filter(|e| e.phase == Phase::Gc)
                .count() as u64;
            let barrier_events = direct
                .events
                .iter()
                .filter(|e| e.phase == Phase::GcBarrier)
                .count() as u64;
            assert_eq!(
                gc_events, r.counters.gc_insts,
                "{}/{label}: Gc events vs counter",
                spec.name
            );
            assert_eq!(
                barrier_events, r.counters.gc_barrier_insts,
                "{}/{label}: GcBarrier events vs counter",
                spec.name
            );
            assert!(
                gc_events > 0 && barrier_events > 0,
                "{}/{label}: the tiny nursery must exercise both phases",
                spec.name
            );
            assert!(r.counters.gc_minor > 0, "{}/{label}: minors", spec.name);

            let tape = Tape::record(|rec| {
                Vm::new(&program, cfg.clone()).run(rec).unwrap();
            });
            let mut replayed = RecordingSink::new();
            tape.replay(&mut replayed);
            assert_eq!(
                replayed.events, direct.events,
                "{}/{label}: GC-phase events must survive the tape",
                spec.name
            );
        }
    }
}
