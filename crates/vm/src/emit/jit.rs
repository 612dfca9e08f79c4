//! Trace emission for JIT-translated native code.

use super::interp::{emit_alloc, emit_sync};
use super::{Emit, InvokeKind};
use jrt_sync::LockCost;
use jrt_trace::{Addr, InstClass, NativeInst, Phase, TraceSink};

/// Register assigned to operand-stack depth `d`: translated code keeps
/// the expression stack in registers (the paper's explanation for the
/// JIT mode's lower memory-access frequency).
fn stack_reg(depth: usize) -> u8 {
    8 + (depth % 16) as u8
}

fn local_reg(n: usize) -> u8 {
    1 + n as u8
}

/// Emitter modelling execution of code the translator installed in
/// the code cache. `addr_of` maps bytecode offsets to installed
/// native addresses (provided by the
/// [`CompiledMethod`](crate::jit::CompiledMethod)); it is a type
/// parameter, so the lookup inlines.
pub(crate) struct JitEmitter<F> {
    addr_of: F,
    cur_pc: Addr,
    depth: usize,
    /// Leading locals the translation tier keeps in registers; the
    /// rest spill to the frame.
    reg_locals: usize,
    count: u64,
}

impl<F: Fn(u32) -> Addr> JitEmitter<F> {
    /// Creates an emitter positioned at the installed code for the
    /// bytecode at `pc`, with the operand stack currently `depth`
    /// slots deep and the method's first `reg_locals` locals held in
    /// registers.
    pub(crate) fn new(addr_of: F, pc: u32, depth: usize, reg_locals: usize) -> Self {
        JitEmitter {
            cur_pc: addr_of(pc),
            addr_of,
            depth,
            reg_locals,
            count: 0,
        }
    }

    fn step_pc(&mut self) -> Addr {
        let pc = self.cur_pc;
        self.cur_pc += 4;
        pc
    }

    fn emit<S: TraceSink>(&mut self, sink: &mut S, inst: NativeInst) {
        sink.accept(&inst);
        self.count += 1;
    }
}

impl<S: TraceSink, F: Fn(u32) -> Addr> Emit<S> for JitEmitter<F> {
    fn count(&self) -> u64 {
        self.count
    }

    fn begin(&mut self, _sink: &mut S) {
        // No dispatch: control simply flows to the installed code.
    }

    fn operand_fetch(&mut self, _sink: &mut S, _n: u32) {
        // Immediates were baked into the generated instructions.
    }

    fn stack_pop(&mut self, _sink: &mut S, _addr: Addr) {
        self.depth = self.depth.saturating_sub(1);
    }

    fn stack_push(&mut self, _sink: &mut S, _addr: Addr) {
        self.depth += 1;
    }

    fn local_read(&mut self, sink: &mut S, n: usize, addr: Addr) {
        let pc = self.step_pc();
        let dst = stack_reg(self.depth);
        if n < self.reg_locals {
            // Register-to-register move.
            self.emit(
                sink,
                NativeInst::alu(pc, Phase::NativeExec)
                    .with_dst(dst)
                    .with_srcs(local_reg(n), None),
            );
        } else {
            self.emit(
                sink,
                NativeInst::load(pc, addr, 4, Phase::NativeExec).with_dst(dst),
            );
        }
    }

    fn local_write(&mut self, sink: &mut S, n: usize, addr: Addr) {
        let pc = self.step_pc();
        let src = stack_reg(self.depth.saturating_sub(1));
        if n < self.reg_locals {
            self.emit(
                sink,
                NativeInst::alu(pc, Phase::NativeExec)
                    .with_dst(local_reg(n))
                    .with_srcs(src, None),
            );
        } else {
            self.emit(
                sink,
                NativeInst::store(pc, addr, 4, Phase::NativeExec).with_srcs(src, None),
            );
        }
    }

    fn heap_load(&mut self, sink: &mut S, addr: Addr, size: u8) {
        let pc = self.step_pc();
        let base = stack_reg(self.depth.saturating_sub(1));
        let dst = stack_reg(self.depth);
        self.emit(
            sink,
            NativeInst::load(pc, addr, size, Phase::NativeExec)
                .with_dst(dst)
                .with_srcs(base, None),
        );
    }

    fn heap_store(&mut self, sink: &mut S, addr: Addr, size: u8) {
        let pc = self.step_pc();
        let src = stack_reg(self.depth.saturating_sub(1));
        self.emit(
            sink,
            NativeInst::store(pc, addr, size, Phase::NativeExec).with_srcs(src, None),
        );
    }

    fn ref_store_barrier(&mut self, sink: &mut S, card: Addr) -> u64 {
        // Translated code inlines the same two-instruction card
        // barrier after every reference store.
        let pc = self.step_pc();
        let src = stack_reg(self.depth.saturating_sub(1));
        self.emit(
            sink,
            NativeInst::alu(pc, Phase::GcBarrier)
                .with_dst(24)
                .with_srcs(src, None),
        );
        let pc = self.step_pc();
        self.emit(
            sink,
            NativeInst::store(pc, card, 1, Phase::GcBarrier).with_srcs(24, None),
        );
        2
    }

    fn alu(&mut self, sink: &mut S, class: InstClass) {
        let pc = self.step_pc();
        // Binary op over the two top stack registers: a real
        // register-allocated dependence chain.
        let s1 = stack_reg(self.depth.saturating_sub(1));
        let s2 = stack_reg(self.depth.saturating_sub(2));
        self.emit(
            sink,
            NativeInst::new(pc, class, Phase::NativeExec)
                .with_dst(s2)
                .with_srcs(s1, Some(s2)),
        );
    }

    fn null_check(&mut self, sink: &mut S) {
        let pc = self.step_pc();
        let src = stack_reg(self.depth.saturating_sub(1));
        self.emit(
            sink,
            NativeInst::branch(pc, pc + 0x200, false, Phase::NativeExec).with_srcs(src, None),
        );
    }

    fn bounds_check(&mut self, sink: &mut S) {
        let pc = self.step_pc();
        let src = stack_reg(self.depth.saturating_sub(1));
        self.emit(
            sink,
            NativeInst::new(pc, InstClass::IntAlu, Phase::NativeExec)
                .with_dst(30)
                .with_srcs(src, None),
        );
        let pc = self.step_pc();
        self.emit(
            sink,
            NativeInst::branch(pc, pc + 0x200, false, Phase::NativeExec).with_srcs(30, None),
        );
    }

    fn cond_branch(&mut self, sink: &mut S, taken: bool, bc_target: u32) {
        let pc = self.step_pc();
        let src = stack_reg(self.depth.saturating_sub(1));
        let target = (self.addr_of)(bc_target);
        self.emit(
            sink,
            NativeInst::branch(pc, target, taken, Phase::NativeExec).with_srcs(src, None),
        );
        if taken {
            self.cur_pc = target;
        }
    }

    fn goto_(&mut self, sink: &mut S, bc_target: u32) {
        let pc = self.step_pc();
        let target = (self.addr_of)(bc_target);
        self.emit(sink, NativeInst::jump(pc, target, Phase::NativeExec));
        self.cur_pc = target;
    }

    fn switch(&mut self, sink: &mut S, bc_target: u32, _ncases: usize) {
        // Translated tableswitch: bounds check, table load, indirect
        // jump — the JIT mode's residual indirect branches.
        self.bounds_check(sink);
        let pc = self.step_pc();
        let table = pc + 0x100;
        self.emit(
            sink,
            NativeInst::load(pc, table, 4, Phase::NativeExec).with_dst(29),
        );
        let pc = self.step_pc();
        let target = (self.addr_of)(bc_target);
        self.emit(
            sink,
            NativeInst::indirect_jump(pc, target, Phase::NativeExec).with_srcs(29, None),
        );
        self.cur_pc = target;
    }

    fn invoke(&mut self, sink: &mut S, kind: InvokeKind, entry: Addr) -> Addr {
        match kind {
            InvokeKind::Direct | InvokeKind::VirtualMono => {
                // Devirtualized / static: one direct call (mono sites
                // keep an inline class guard).
                if kind == InvokeKind::VirtualMono {
                    let pc = self.step_pc();
                    self.emit(
                        sink,
                        NativeInst::branch(pc, pc + 0x200, false, Phase::NativeExec),
                    );
                }
                let pc = self.step_pc();
                self.emit(sink, NativeInst::call(pc, entry, Phase::NativeExec));
                self.cur_pc = entry;
                pc + 4
            }
            InvokeKind::VirtualPoly => {
                // vtable dispatch: class word load, vtable entry load
                // (both in VM data), indirect call.
                let vtable = jrt_trace::layout::VM_DATA_BASE + (entry & 0xFFFF);
                let pc = self.step_pc();
                self.emit(
                    sink,
                    NativeInst::load(pc, vtable, 4, Phase::NativeExec).with_dst(28),
                );
                let pc = self.step_pc();
                self.emit(
                    sink,
                    NativeInst::load(pc, vtable + 0x40, 4, Phase::NativeExec)
                        .with_dst(29)
                        .with_srcs(28, None),
                );
                let pc = self.step_pc();
                self.emit(
                    sink,
                    NativeInst::indirect_call(pc, entry, Phase::NativeExec).with_srcs(29, None),
                );
                self.cur_pc = entry;
                pc + 4
            }
        }
    }

    fn ret(&mut self, sink: &mut S, ret_to: Addr) {
        let pc = self.step_pc();
        self.emit(sink, NativeInst::ret(pc, ret_to, Phase::NativeExec));
        self.cur_pc = ret_to;
    }

    fn frame_setup(&mut self, sink: &mut S, nlocals: usize, locals_addr: Addr) {
        // Translated prologue: register-window style, much lighter
        // than the interpreter's frame build.
        let pc = self.step_pc();
        self.emit(sink, NativeInst::alu(pc, Phase::Runtime).with_dst(31));
        let pc = self.step_pc();
        self.emit(sink, NativeInst::alu(pc, Phase::Runtime));
        // Only spilled locals (beyond the register file) hit memory.
        for n in self.reg_locals..nlocals.min(self.reg_locals + 8) {
            let pc = self.step_pc();
            self.emit(
                sink,
                NativeInst::store(pc, locals_addr + 4 * n as u64, 4, Phase::Runtime),
            );
        }
    }

    fn sync_op(&mut self, sink: &mut S, cost: LockCost, lock_addr: Addr) {
        emit_sync(sink, cost, lock_addr, &mut self.count);
    }

    fn alloc(&mut self, sink: &mut S, addr: Addr, bytes: u32) {
        emit_alloc(sink, addr, bytes, &mut self.count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jrt_trace::{layout, InstMix, RecordingSink};

    fn addr_of(pc: u32) -> Addr {
        layout::CODE_CACHE_BASE + 0x100 + Addr::from(pc) * 8
    }

    #[test]
    fn stack_ops_emit_no_memory_traffic() {
        let mut mix = InstMix::new();
        let mut e = JitEmitter::new(addr_of, 0, 0, 6);
        e.begin(&mut mix);
        e.stack_push(&mut mix, 0);
        e.stack_push(&mut mix, 0);
        e.alu(&mut mix, InstClass::IntAlu);
        e.stack_pop(&mut mix, 0);
        // iadd compiles to exactly one ALU op.
        assert_eq!(mix.total(), 1);
        assert_eq!(mix.memory_fraction(), 0.0);
    }

    #[test]
    fn code_addresses_live_in_code_cache() {
        let mut r = RecordingSink::new();
        let mut e = JitEmitter::new(addr_of, 12, 0, 6);
        e.alu(&mut r, InstClass::IntAlu);
        assert_eq!(
            jrt_trace::Region::classify(r.events[0].pc),
            Some(jrt_trace::Region::CodeCache)
        );
        assert_eq!(r.events[0].pc, addr_of(12));
    }

    #[test]
    fn leading_locals_are_registers_others_spill() {
        let mut r = RecordingSink::new();
        let mut e = JitEmitter::new(addr_of, 0, 0, 6);
        e.local_read(&mut r, 0, layout::STACK_BASE);
        e.local_read(&mut r, 10, layout::STACK_BASE + 40);
        assert_eq!(r.events[0].class, InstClass::IntAlu);
        assert_eq!(r.events[1].class, InstClass::Load);
    }

    #[test]
    fn branches_target_translated_addresses() {
        let mut r = RecordingSink::new();
        let mut e = JitEmitter::new(addr_of, 0, 1, 6);
        e.cond_branch(&mut r, true, 40);
        assert_eq!(r.events[0].ctrl.unwrap().target, addr_of(40));
        assert!(r.events[0].ctrl.unwrap().taken);
    }

    #[test]
    fn mono_calls_are_direct_poly_calls_indirect() {
        let mut r = RecordingSink::new();
        let mut e = JitEmitter::new(addr_of, 0, 0, 6);
        e.invoke(&mut r, InvokeKind::VirtualMono, 0x0200_9000);
        assert!(r.events.iter().any(|i| i.class == InstClass::Call));
        assert!(!r.events.iter().any(|i| i.class == InstClass::IndirectCall));

        let mut r2 = RecordingSink::new();
        let mut e2 = JitEmitter::new(addr_of, 0, 0, 6);
        e2.invoke(&mut r2, InvokeKind::VirtualPoly, 0x0200_9000);
        assert!(r2.events.iter().any(|i| i.class == InstClass::IndirectCall));
    }

    #[test]
    fn call_ret_addresses_pair() {
        let mut r = RecordingSink::new();
        let mut e = JitEmitter::new(addr_of, 0, 0, 6);
        let ret_to = e.invoke(&mut r, InvokeKind::Direct, 0x0200_9000);
        e.ret(&mut r, ret_to);
        let ret = r.events.iter().find(|i| i.class == InstClass::Ret).unwrap();
        assert_eq!(ret.ctrl.unwrap().target, ret_to);
    }

    #[test]
    fn switch_keeps_an_indirect_jump() {
        let mut r = RecordingSink::new();
        let mut e = JitEmitter::new(addr_of, 0, 1, 6);
        e.switch(&mut r, 16, 5);
        assert!(r.events.iter().any(|i| i.class == InstClass::IndirectJump));
    }
}
