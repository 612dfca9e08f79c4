//! Stack-to-register lowering over real workload programs.
//!
//! The `jrt-ir` unit tests pin micro-shapes (a quad fusing to one
//! instruction, constants folding through a store). This suite runs
//! the lowering pass over every method of every workload program and
//! checks the whole-program properties the IR engines rely on:
//! lowering is deterministic, the per-pc plan exactly partitions the
//! method, the encoded word stream matches the plan's offsets, and
//! each optimization pass actually fires somewhere in the suite.

use javart::ir::{lower, IrMethod, PcPlan};
use javart::workloads::{suite_with_hello, Size};

/// Every non-native method of every workload program, lowered.
fn lowered_suite() -> Vec<(String, Vec<u8>, IrMethod)> {
    let mut out = Vec::new();
    for spec in suite_with_hello() {
        let program = (spec.build)(Size::Tiny);
        for class in program.classes() {
            for m in &class.methods {
                if m.flags.is_native {
                    continue;
                }
                let ir = lower(&m.code)
                    .unwrap_or_else(|e| panic!("{}/{}.{}: {e}", spec.name, class.name, m.name));
                out.push((
                    format!("{}/{}.{}", spec.name, class.name, m.name),
                    m.code.clone(),
                    ir,
                ));
            }
        }
    }
    out
}

#[test]
fn lowering_is_deterministic() {
    // Same bytecode in => bit-identical IR out, down to the encoded
    // word stream and the disassembly listing.
    for (name, code, first) in lowered_suite() {
        let second = lower(&code).unwrap();
        assert_eq!(first.insts, second.insts, "{name}: instruction stream");
        assert_eq!(first.stats, second.stats, "{name}: stats");
        assert_eq!(
            first.encode_words(),
            second.encode_words(),
            "{name}: encoding"
        );
        assert_eq!(first.disasm(), second.disasm(), "{name}: disassembly");
    }
}

#[test]
fn plan_partitions_every_method() {
    for (name, code, ir) in lowered_suite() {
        let s = ir.stats;
        // The three plan kinds exactly partition the bytecodes.
        assert_eq!(
            s.bytecodes,
            s.ir_insts + s.covered + s.elided,
            "{name}: plan does not partition the method"
        );
        // One IR instruction per Exec pc, and the stats agree.
        assert_eq!(ir.insts.len() as u32, s.ir_insts, "{name}: inst count");
        // Walk the decoded instruction boundaries beside the pc-ordered
        // instructions: every Exec pc must carry the next instruction
        // and its opcode, every non-Exec pc none, and the Exec word
        // offsets must tile the encoded stream in order.
        let mut insts = ir.insts.iter().peekable();
        let mut pc = 0u32;
        let mut expect_off = 0u32;
        while (pc as usize) < code.len() {
            let (op, len) = javart::bytecode::Op::decode(&code, pc as usize)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let inst = insts.next_if(|(at, _)| *at == pc).map(|(_, inst)| inst);
            match ir.plan_at(pc) {
                PcPlan::Exec {
                    word_off,
                    words,
                    opcode,
                } => {
                    assert_eq!(word_off, expect_off, "{name}@{pc}: {op:?} off");
                    assert!(words > 0, "{name}@{pc}: zero-width inst");
                    let inst = inst.unwrap_or_else(|| panic!("{name}@{pc}: missing inst"));
                    assert_eq!(opcode, inst.opcode(), "{name}@{pc}: {inst:?} opcode");
                    expect_off += u32::from(words);
                }
                PcPlan::Covered | PcPlan::Elided => {
                    assert!(inst.is_none(), "{name}@{pc}: stray inst");
                }
            }
            pc += len as u32;
        }
        assert!(
            insts.next().is_none(),
            "{name}: inst off a bytecode boundary"
        );
        assert_eq!(expect_off, s.total_words, "{name}: words don't tile");
        assert_eq!(
            ir.encode_words().len() as u32,
            s.total_words,
            "{name}: encoding length"
        );
        // Branch-target mapping is monotonic and in range.
        let mut last = 0u32;
        for p in 0..=pc {
            let t = ir.word_target(p);
            assert!(t >= last && t <= s.total_words, "{name}@{p}: target {t}");
            last = t;
        }
    }
}

#[test]
fn every_pass_fires_somewhere_in_the_suite() {
    let suite = lowered_suite();
    let sum = |f: fn(&IrMethod) -> u32| suite.iter().map(|(_, _, ir)| f(ir)).sum::<u32>();
    let bytecodes = sum(|ir| ir.stats.bytecodes);
    let ir_insts = sum(|ir| ir.stats.ir_insts);
    assert!(
        ir_insts < bytecodes,
        "lowering saved no dispatches: {ir_insts} >= {bytecodes}"
    );
    assert!(sum(|ir| ir.stats.fused) > 0, "no operand ever fused");
    assert!(sum(|ir| ir.stats.folded) > 0, "no constant ever folded");
    assert!(
        sum(|ir| ir.stats.loads_forwarded) > 0,
        "no redundant load ever eliminated"
    );
    assert!(sum(|ir| ir.stats.covered) > 0, "no pc ever covered");
    assert!(sum(|ir| ir.stats.elided) > 0, "no pc ever elided");
}
