//! Trace emission for the register-IR execution tier.
//!
//! Two emitters live here:
//!
//! * [`IrInterpEmitter`] — the IR interpreter. Like the stack
//!   interpreter it is a threaded dispatch loop, but it walks the
//!   method's packed IR words (VM data) instead of the bytecode
//!   stream, its operand stack lives in a register file (push/pop are
//!   free, as in translated code), and fused pcs ride along without a
//!   dispatch of their own. Locals stay in memory — that is the
//!   residual traffic the register IR cannot remove without a
//!   translation tier.
//! * [`IrJitEmitter`] — a filter over [`JitEmitter`] for code the
//!   IR-backed translator installed: fused register moves disappear
//!   from the native stream, and elided pcs cost nothing at all.

use super::interp::{emit_alloc, emit_sync};
use super::{Emit, InvokeKind, JitEmitter};
use jrt_ir::PcPlan;
use jrt_sync::LockCost;
use jrt_trace::{layout, Addr, InstClass, NativeInst, Phase, TraceSink};

/// Base of the IR interpreter's handler table — its own text region
/// past the stack interpreter's handlers, runtime helpers, and
/// intrinsics, so the two tiers have disjoint I-footprints.
pub(crate) const IR_HANDLER_BASE: Addr = layout::VM_TEXT_BASE + 0x8_0000;
const IR_HANDLER_STRIDE: Addr = 0x100;
/// Offset of the replicated dispatch tail within each handler's slot
/// (mirrors the stack interpreter's threaded-dispatch layout).
const IR_DISPATCH_TAIL_OFFSET: Addr = 0xC0;

/// Native address of the IR handler for opcode `slot`.
pub(crate) fn ir_handler_addr(slot: u8) -> Addr {
    IR_HANDLER_BASE + Addr::from(slot) * IR_HANDLER_STRIDE
}

/// Emitter modelling the register-IR interpreter.
///
/// The per-pc [`PcPlan`] computed by lowering drives the cost:
/// `Exec` pcs pay a dispatch (IR-word fetches + decode + indirect
/// jump into the handler); `Covered` pcs emit only their own memory
/// and ALU micro-ops inside the covering handler; `Elided` pcs emit
/// nothing.
pub(crate) struct IrInterpEmitter {
    plan: PcPlan,
    /// Handler slot: the pc's IR opcode (`Exec`) or the slot whose
    /// handler text hosts this pc's fused micro-ops (`Covered`).
    slot: u8,
    /// Previous dispatch's handler slot (owns the dispatch tail).
    prev_slot: u8,
    /// Simulated VM-data base address of the method's packed IR words.
    ir_base: Addr,
    cur_pc: Addr,
    count: u64,
    next_reg: u8,
    last_dst: u8,
}

impl IrInterpEmitter {
    /// Creates an emitter for one bytecode whose lowering plan is
    /// `plan`, handled at slot `slot`, dispatched from `prev_slot`'s
    /// tail, with the method's IR words at `ir_base`.
    pub(crate) fn new(plan: PcPlan, slot: u8, prev_slot: u8, ir_base: Addr) -> Self {
        IrInterpEmitter {
            plan,
            slot,
            prev_slot,
            ir_base,
            cur_pc: ir_handler_addr(slot),
            count: 0,
            next_reg: 8,
            last_dst: 8,
        }
    }

    fn elided(&self) -> bool {
        matches!(self.plan, PcPlan::Elided)
    }

    fn reg(&mut self) -> u8 {
        let r = self.next_reg;
        self.next_reg = if self.next_reg >= 15 {
            8
        } else {
            self.next_reg + 1
        };
        self.last_dst = r;
        r
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

    fn handler_load<S: TraceSink>(&mut self, sink: &mut S, addr: Addr, size: u8) {
        let pc = self.step_pc();
        let dst = self.reg();
        self.emit(
            sink,
            NativeInst::load(pc, addr, size, Phase::InterpHandler).with_dst(dst),
        );
    }

    fn handler_store<S: TraceSink>(&mut self, sink: &mut S, addr: Addr, size: u8) {
        let pc = self.step_pc();
        let src = self.last_dst;
        self.emit(
            sink,
            NativeInst::store(pc, addr, size, Phase::InterpHandler).with_srcs(src, None),
        );
    }

    fn handler_alu<S: TraceSink>(&mut self, sink: &mut S, class: InstClass) {
        let pc = self.step_pc();
        let (s1, s2) = (self.last_dst, self.next_reg);
        let dst = self.reg();
        self.emit(
            sink,
            NativeInst::new(pc, class, Phase::InterpHandler)
                .with_dst(dst)
                .with_srcs(s1, Some(s2)),
        );
    }
}

impl<S: TraceSink> Emit<S> for IrInterpEmitter {
    fn count(&self) -> u64 {
        self.count
    }

    fn begin(&mut self, sink: &mut S) {
        let PcPlan::Exec {
            word_off, words, ..
        } = self.plan
        else {
            // Covered and elided pcs dispatch nothing: their work (if
            // any) rides inside the covering handler.
            return;
        };
        // Dispatch from the previous handler's tail: fetch the packed
        // IR words (data loads from the IR buffer in VM data), decode
        // the operand bytes, jump through a register into the handler.
        let tail = ir_handler_addr(self.prev_slot) + IR_DISPATCH_TAIL_OFFSET;
        for k in 0..u32::from(words) {
            self.emit(
                sink,
                NativeInst::load(
                    tail + Addr::from(4 * k),
                    self.ir_base + Addr::from(word_off + k) * 4,
                    4,
                    Phase::InterpDispatch,
                )
                .with_dst(1),
            );
        }
        let off = Addr::from(4 * u32::from(words));
        self.emit(
            sink,
            NativeInst::alu(tail + off, Phase::InterpDispatch)
                .with_dst(2)
                .with_srcs(1, None),
        );
        self.emit(
            sink,
            NativeInst::indirect_jump(
                tail + off + 4,
                ir_handler_addr(self.slot),
                Phase::InterpDispatch,
            ),
        );
        self.cur_pc = ir_handler_addr(self.slot);
    }

    fn operand_fetch(&mut self, _sink: &mut S, _n: u32) {
        // Operands travel inside the IR words fetched at dispatch.
    }

    fn stack_pop(&mut self, _sink: &mut S, _addr: Addr) {
        // The IR interpreter keeps the operand stack in registers.
    }

    fn stack_push(&mut self, _sink: &mut S, _addr: Addr) {}

    fn local_read(&mut self, sink: &mut S, _n: usize, addr: Addr) {
        if !self.elided() {
            self.handler_load(sink, addr, 4);
        }
    }

    fn local_write(&mut self, sink: &mut S, _n: usize, addr: Addr) {
        if !self.elided() {
            self.handler_store(sink, addr, 4);
        }
    }

    fn heap_load(&mut self, sink: &mut S, addr: Addr, size: u8) {
        if !self.elided() {
            self.handler_load(sink, addr, size);
        }
    }

    fn heap_store(&mut self, sink: &mut S, addr: Addr, size: u8) {
        if !self.elided() {
            self.handler_store(sink, addr, size);
        }
    }

    fn ref_store_barrier(&mut self, sink: &mut S, card: Addr) -> u64 {
        // Fusion cannot remove a barrier whose store survived, but an
        // elided pc has no store and therefore no barrier either.
        if self.elided() {
            return 0;
        }
        let pc = self.step_pc();
        let src = self.last_dst;
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
        if !self.elided() {
            self.handler_alu(sink, class);
        }
    }

    fn null_check(&mut self, sink: &mut S) {
        if self.elided() {
            return;
        }
        let pc = self.step_pc();
        let src = self.last_dst;
        self.emit(
            sink,
            NativeInst::branch(pc, pc + 0x40, false, Phase::InterpHandler).with_srcs(src, None),
        );
    }

    fn bounds_check(&mut self, sink: &mut S) {
        if self.elided() {
            return;
        }
        self.handler_alu(sink, InstClass::IntAlu);
        let pc = self.step_pc();
        let src = self.last_dst;
        self.emit(
            sink,
            NativeInst::branch(pc, pc + 0x40, false, Phase::InterpHandler).with_srcs(src, None),
        );
    }

    fn cond_branch(&mut self, sink: &mut S, taken: bool, _bc_target: u32) {
        // Compare, branch with the bytecode direction, IR-cursor
        // update — branch pcs are always `Exec`.
        self.handler_alu(sink, InstClass::IntAlu);
        let pc = self.step_pc();
        let src = self.last_dst;
        self.emit(
            sink,
            NativeInst::branch(pc, pc + 0x20, taken, Phase::InterpHandler).with_srcs(src, None),
        );
        self.handler_alu(sink, InstClass::IntAlu);
    }

    fn goto_(&mut self, sink: &mut S, _bc_target: u32) {
        self.handler_alu(sink, InstClass::IntAlu); // IR cursor = target
    }

    fn switch(&mut self, sink: &mut S, _bc_target: u32, _ncases: usize) {
        // Bounds test + table read from the IR words + cursor update.
        self.handler_alu(sink, InstClass::IntAlu);
        let pc = self.step_pc();
        let src = self.last_dst;
        self.emit(
            sink,
            NativeInst::branch(pc, pc + 0x40, false, Phase::InterpHandler).with_srcs(src, None),
        );
        let table = match self.plan {
            PcPlan::Exec { word_off, .. } => self.ir_base + Addr::from(word_off) * 4 + 8,
            _ => self.ir_base,
        };
        self.handler_load(sink, table, 4);
        self.handler_alu(sink, InstClass::IntAlu);
    }

    fn invoke(&mut self, sink: &mut S, _kind: InvokeKind, entry: Addr) -> Addr {
        // Method-block lookup through pointers, same as the stack
        // interpreter's call path.
        let mb = layout::VM_DATA_BASE + (entry % 0x8000);
        self.handler_load(sink, mb, 4);
        self.handler_load(sink, mb + 8, 4);
        let pc = self.step_pc();
        let src = self.last_dst;
        self.emit(
            sink,
            NativeInst::indirect_call(pc, entry, Phase::InterpHandler).with_srcs(src, None),
        );
        let ret_to = pc + 4;
        self.cur_pc = entry;
        ret_to
    }

    fn ret(&mut self, sink: &mut S, ret_to: Addr) {
        let fp = layout::VM_DATA_BASE + 0x100;
        self.handler_load(sink, fp, 4);
        self.handler_load(sink, fp + 8, 4);
        let pc = self.step_pc();
        self.emit(sink, NativeInst::ret(pc, ret_to, Phase::InterpHandler));
    }

    fn frame_setup(&mut self, sink: &mut S, nlocals: usize, locals_addr: Addr) {
        // Same VM runtime helper as the stack interpreter: locals are
        // memory in both interpreted tiers.
        let mut pc = layout::VM_TEXT_BASE + 0x2_0000;
        let mut emit = |i: NativeInst, count: &mut u64| {
            sink.accept(&i);
            *count += 1;
        };
        for k in 0..3 {
            emit(
                NativeInst::alu(pc, Phase::Runtime).with_dst(16 + k),
                &mut self.count,
            );
            pc += 4;
        }
        for n in 0..nlocals.min(32) {
            emit(
                NativeInst::store(pc, locals_addr + 4 * n as u64, 4, Phase::Runtime),
                &mut self.count,
            );
            pc += 4;
        }
        emit(
            NativeInst::store(pc, layout::VM_DATA_BASE + 0x100, 4, Phase::Runtime),
            &mut self.count,
        );
    }

    fn sync_op(&mut self, sink: &mut S, cost: LockCost, lock_addr: Addr) {
        emit_sync(sink, cost, lock_addr, &mut self.count);
    }

    fn alloc(&mut self, sink: &mut S, addr: Addr, bytes: u32) {
        emit_alloc(sink, addr, bytes, &mut self.count);
    }
}

/// Emitter for code installed by the IR-backed translator: delegates
/// to [`JitEmitter`] but suppresses what fusion removed — covered
/// register moves and everything at elided pcs.
pub(crate) struct IrJitEmitter<F> {
    inner: JitEmitter<F>,
    plan: PcPlan,
    reg_locals: usize,
}

impl<F> IrJitEmitter<F> {
    /// Wraps `inner` with the lowering plan for the current pc.
    pub(crate) fn new(inner: JitEmitter<F>, plan: PcPlan, reg_locals: usize) -> Self {
        IrJitEmitter {
            inner,
            plan,
            reg_locals,
        }
    }

    fn elided(&self) -> bool {
        matches!(self.plan, PcPlan::Elided)
    }
}

impl<S: TraceSink, F: Fn(u32) -> Addr> Emit<S> for IrJitEmitter<F> {
    fn count(&self) -> u64 {
        Emit::<S>::count(&self.inner)
    }

    fn begin(&mut self, sink: &mut S) {
        self.inner.begin(sink);
    }

    fn operand_fetch(&mut self, sink: &mut S, n: u32) {
        self.inner.operand_fetch(sink, n);
    }

    fn stack_pop(&mut self, sink: &mut S, addr: Addr) {
        // Always forwarded: the inner emitter tracks register-stack
        // depth through these (they emit nothing).
        self.inner.stack_pop(sink, addr);
    }

    fn stack_push(&mut self, sink: &mut S, addr: Addr) {
        self.inner.stack_push(sink, addr);
    }

    fn local_read(&mut self, sink: &mut S, n: usize, addr: Addr) {
        // A covered local access whose slot is register-allocated was
        // fused into its consumer: the move disappears. Spilled locals
        // still hit memory even when fused.
        if self.elided() || (matches!(self.plan, PcPlan::Covered) && n < self.reg_locals) {
            return;
        }
        self.inner.local_read(sink, n, addr);
    }

    fn local_write(&mut self, sink: &mut S, n: usize, addr: Addr) {
        if self.elided() || (matches!(self.plan, PcPlan::Covered) && n < self.reg_locals) {
            return;
        }
        self.inner.local_write(sink, n, addr);
    }

    fn heap_load(&mut self, sink: &mut S, addr: Addr, size: u8) {
        if !self.elided() {
            self.inner.heap_load(sink, addr, size);
        }
    }

    fn heap_store(&mut self, sink: &mut S, addr: Addr, size: u8) {
        if !self.elided() {
            self.inner.heap_store(sink, addr, size);
        }
    }

    fn ref_store_barrier(&mut self, sink: &mut S, card: Addr) -> u64 {
        if self.elided() {
            0
        } else {
            self.inner.ref_store_barrier(sink, card)
        }
    }

    fn alu(&mut self, sink: &mut S, class: InstClass) {
        if !self.elided() {
            self.inner.alu(sink, class);
        }
    }

    fn null_check(&mut self, sink: &mut S) {
        if !self.elided() {
            self.inner.null_check(sink);
        }
    }

    fn bounds_check(&mut self, sink: &mut S) {
        if !self.elided() {
            self.inner.bounds_check(sink);
        }
    }

    fn cond_branch(&mut self, sink: &mut S, taken: bool, bc_target: u32) {
        self.inner.cond_branch(sink, taken, bc_target);
    }

    fn goto_(&mut self, sink: &mut S, bc_target: u32) {
        self.inner.goto_(sink, bc_target);
    }

    fn switch(&mut self, sink: &mut S, bc_target: u32, ncases: usize) {
        self.inner.switch(sink, bc_target, ncases);
    }

    fn invoke(&mut self, sink: &mut S, kind: InvokeKind, entry: Addr) -> Addr {
        self.inner.invoke(sink, kind, entry)
    }

    fn ret(&mut self, sink: &mut S, ret_to: Addr) {
        self.inner.ret(sink, ret_to);
    }

    fn frame_setup(&mut self, sink: &mut S, nlocals: usize, locals_addr: Addr) {
        self.inner.frame_setup(sink, nlocals, locals_addr);
    }

    fn sync_op(&mut self, sink: &mut S, cost: LockCost, lock_addr: Addr) {
        self.inner.sync_op(sink, cost, lock_addr);
    }

    fn alloc(&mut self, sink: &mut S, addr: Addr, bytes: u32) {
        self.inner.alloc(sink, addr, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jrt_trace::{InstMix, RecordingSink, Region};

    #[test]
    fn exec_dispatch_fetches_ir_words_and_jumps() {
        let mut r = RecordingSink::new();
        let ir_base = layout::VM_DATA_BASE + 0x100_0000;
        let mut e = IrInterpEmitter::new(
            PcPlan::Exec {
                word_off: 3,
                words: 2,
                opcode: 7,
            },
            7,
            1,
            ir_base,
        );
        e.begin(&mut r);
        // 2 word fetches + decode + indirect jump.
        assert_eq!(r.events.len(), 4);
        assert_eq!(r.events[0].class, InstClass::Load);
        assert_eq!(r.events[0].mem.unwrap().addr, ir_base + 12);
        assert_eq!(
            Region::classify(r.events[0].mem.unwrap().addr),
            Some(Region::VmData)
        );
        assert_eq!(r.events[3].class, InstClass::IndirectJump);
        assert_eq!(r.events[3].ctrl.unwrap().target, ir_handler_addr(7));
        // Dispatch text sits at the previous handler's tail, in its
        // own region past the stack interpreter's handlers.
        assert_eq!(r.events[0].pc, ir_handler_addr(1) + IR_DISPATCH_TAIL_OFFSET);
    }

    #[test]
    fn covered_pc_skips_dispatch_but_keeps_micro_ops() {
        let mut mix = InstMix::new();
        let mut e = IrInterpEmitter::new(PcPlan::Covered, 6, 0, layout::VM_DATA_BASE);
        e.begin(&mut mix);
        assert_eq!(mix.total(), 0, "no dispatch for covered pcs");
        e.local_read(&mut mix, 0, layout::STACK_BASE);
        e.alu(&mut mix, InstClass::IntAlu);
        assert_eq!(mix.total(), 2, "memory and ALU micro-ops still run");
    }

    #[test]
    fn elided_pc_emits_nothing() {
        let mut mix = InstMix::new();
        let mut e = IrInterpEmitter::new(PcPlan::Elided, 0, 0, layout::VM_DATA_BASE);
        e.begin(&mut mix);
        e.local_read(&mut mix, 0, layout::STACK_BASE);
        e.alu(&mut mix, InstClass::IntAlu);
        e.stack_push(&mut mix, layout::STACK_BASE);
        assert_eq!(mix.total(), 0);
        assert_eq!(Emit::<InstMix>::count(&e), 0);
    }

    #[test]
    fn ir_stack_traffic_stays_in_registers() {
        // The fused iadd under the IR interpreter: dispatch (1 word +
        // decode + jump) + two local reads + alu + local write, with
        // zero operand-stack memory traffic.
        let mut mix = InstMix::new();
        let mut e = IrInterpEmitter::new(
            PcPlan::Exec {
                word_off: 0,
                words: 1,
                opcode: 6,
            },
            6,
            6,
            layout::VM_DATA_BASE,
        );
        e.begin(&mut mix);
        e.stack_pop(&mut mix, layout::STACK_BASE);
        e.stack_pop(&mut mix, layout::STACK_BASE + 4);
        e.alu(&mut mix, InstClass::IntAlu);
        e.stack_push(&mut mix, layout::STACK_BASE);
        // 3 dispatch + 1 alu; compare 14 for the stack interpreter.
        assert_eq!(mix.total(), 4);
    }

    #[test]
    fn ir_handlers_are_disjoint_from_stack_handlers() {
        assert!(ir_handler_addr(0) > super::super::interp::handler_addr(255));
    }

    #[test]
    fn ir_jit_suppresses_covered_register_moves() {
        let addr_of = |pc: u32| layout::CODE_CACHE_BASE + 0x100 + Addr::from(pc) * 8;
        let mut r = RecordingSink::new();
        let inner = JitEmitter::new(addr_of, 0, 0, 6);
        let mut e = IrJitEmitter::new(inner, PcPlan::Covered, 6);
        e.local_read(&mut r, 0, layout::STACK_BASE); // register-allocated: fused away
        e.local_read(&mut r, 10, layout::STACK_BASE + 40); // spilled: still a load
        assert_eq!(r.events.len(), 1);
        assert_eq!(r.events[0].class, InstClass::Load);
    }

    #[test]
    fn ir_jit_elided_pc_is_free_but_tracks_depth() {
        let addr_of = |pc: u32| layout::CODE_CACHE_BASE + 0x100 + Addr::from(pc) * 8;
        let mut r = RecordingSink::new();
        let inner = JitEmitter::new(addr_of, 0, 0, 6);
        let mut e = IrJitEmitter::new(inner, PcPlan::Elided, 6);
        e.begin(&mut r);
        e.alu(&mut r, InstClass::IntAlu);
        e.stack_push(&mut r, layout::STACK_BASE);
        assert_eq!(r.events.len(), 0);
    }
}
