//! Trace emission for the switch-threaded interpreter.

use super::{Emit, InvokeKind};
use jrt_sync::LockCost;
use jrt_trace::{layout, Addr, InstClass, NativeInst, Phase, TraceSink};

/// Address of the dispatch loop (fetch/decode/indirect-jump).
pub(crate) const DISPATCH_BASE: Addr = layout::VM_TEXT_BASE + 0x100;
/// Base of the handler table; each of the ~220-case `switch`'s
/// handlers occupies up to 256 bytes, mirroring the paper's
/// description of the interpreter.
pub(crate) const HANDLER_BASE: Addr = layout::VM_TEXT_BASE + 0x1000;
const HANDLER_STRIDE: Addr = 0x100;
/// Offset of the replicated dispatch tail within each handler's
/// 256-byte slot (handler bodies use the first 0xC0 bytes).
const DISPATCH_TAIL_OFFSET: Addr = 0xC0;
/// VM runtime helpers (frame setup, allocation).
const RUNTIME_BASE: Addr = layout::VM_TEXT_BASE + 0x2_0000;
/// Monitor code.
const SYNC_BASE: Addr = layout::VM_TEXT_BASE + 0x3_0000;
/// Per-method invoke helpers: hashing the callee spreads targets so
/// the interpreter's call-dispatch behaves polymorphically, as the
/// paper observes.
const INVOKE_HELPER_BASE: Addr = layout::VM_TEXT_BASE + 0x4_0000;

/// Native address of the interpreter helper that enters `method_key`
/// (a small hash of the method id).
pub(crate) fn invoke_helper_addr(method_key: u64) -> Addr {
    INVOKE_HELPER_BASE + (method_key % 1024) * 0x40
}

/// Native address of the handler for `opcode`.
pub(crate) fn handler_addr(opcode: u8) -> Addr {
    HANDLER_BASE + Addr::from(opcode) * HANDLER_STRIDE
}

/// Emitter modelling a C interpreter on a SPARC-class RISC.
///
/// The dispatch sequence is emitted at the *tail of the previous
/// bytecode's handler* (threaded dispatch): optimizing C compilers
/// replicate the `switch` back-edge into each case arm, which is what
/// lets the BTB learn per-opcode successor correlations instead of
/// thrashing on a single jump site.
pub(crate) struct InterpEmitter {
    /// Bytecode base address of the current method (class area).
    code_addr: Addr,
    /// Bytecode offset of the current instruction.
    pc: u32,
    /// Opcode byte (selects the handler).
    opcode: u8,
    /// Previous bytecode's opcode (owns the dispatch tail).
    prev_opcode: u8,
    /// Simulated address of the current frame header (hot).
    frame_addr: Addr,
    /// Folded continuation: skip the dispatch/prologue (picoJava-style
    /// folding groups up to four simple bytecodes under one dispatch).
    folded: bool,
    cur_pc: Addr,
    count: u64,
    next_reg: u8,
    last_dst: u8,
}

impl InterpEmitter {
    /// Creates an emitter for the bytecode at `code_addr + pc`,
    /// dispatched from `prev_opcode`'s handler tail, with the current
    /// frame header at `frame_addr`.
    pub(crate) fn new(
        code_addr: Addr,
        pc: u32,
        opcode: u8,
        prev_opcode: u8,
        frame_addr: Addr,
    ) -> Self {
        InterpEmitter {
            code_addr,
            pc,
            opcode,
            prev_opcode,
            frame_addr,
            folded: false,
            cur_pc: handler_addr(opcode),
            count: 0,
            next_reg: 8,
            last_dst: 8,
        }
    }

    /// Marks this bytecode as folded into the previous dispatch group
    /// (its `begin` emits only the operand fetch the folded handler
    /// still performs).
    pub(crate) fn folded(mut self) -> Self {
        self.folded = true;
        self
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
}

impl<S: TraceSink> Emit<S> for InterpEmitter {
    fn count(&self) -> u64 {
        self.count
    }

    fn begin(&mut self, sink: &mut S) {
        if self.folded {
            // Folded: the previous dispatch already selected a fused
            // handler; only the opcode byte is consumed (one load),
            // with no table lookup, no checks, no indirect jump.
            let bc = self.code_addr + Addr::from(self.pc);
            self.emit(
                sink,
                NativeInst::load(self.cur_pc, bc, 1, Phase::InterpHandler).with_dst(1),
            );
            self.cur_pc += 4;
            return;
        }
        // Dispatch: load the opcode byte (bytecode-as-data!), index
        // the handler table, jump through a register. The sequence
        // sits at the tail of the previous handler (threaded
        // dispatch), so each of the ~50 dispatch-jump sites lets the
        // BTB learn that opcode's most likely successor.
        let tail = handler_addr(self.prev_opcode) + DISPATCH_TAIL_OFFSET;
        let bc = self.code_addr + Addr::from(self.pc);
        self.emit(
            sink,
            NativeInst::load(tail, bc, 1, Phase::InterpDispatch).with_dst(1),
        );
        // Handler-table index computation.
        self.emit(
            sink,
            NativeInst::alu(tail + 4, Phase::InterpDispatch)
                .with_dst(2)
                .with_srcs(1, None),
        );
        // Virtual-pc increment.
        self.emit(
            sink,
            NativeInst::alu(tail + 8, Phase::InterpDispatch).with_dst(3),
        );
        // Operand-pointer setup for the handler.
        self.emit(
            sink,
            NativeInst::alu(tail + 12, Phase::InterpDispatch)
                .with_dst(4)
                .with_srcs(3, None),
        );
        // Pending-exception / quantum check: a highly-biased
        // not-taken branch every iteration of the dispatch loop.
        self.emit(
            sink,
            NativeInst::branch(
                tail + 16,
                DISPATCH_BASE + 0x80,
                false,
                Phase::InterpDispatch,
            ),
        );
        // The jump's target register was computed well before the
        // tail (interpreters software-pipeline the next-opcode load),
        // so the jump carries no outstanding dependence: it resolves
        // at issue, and only the *prediction* of its target matters.
        self.emit(
            sink,
            NativeInst::indirect_jump(tail + 20, handler_addr(self.opcode), Phase::InterpDispatch),
        );
        self.cur_pc = handler_addr(self.opcode);
        // Handler prologue: frame/operand-stack bookkeeping every
        // handler performs (stack-pointer reload, tag checks) — the
        // per-bytecode overhead that made JDK 1.1.6's interpreter
        // slow, and that amortizes dispatch mispredictions.
        let pc1 = self.step_pc();
        self.emit(sink, NativeInst::alu(pc1, Phase::InterpHandler).with_dst(5));
        let pc2 = self.step_pc();
        self.emit(
            sink,
            NativeInst::load(pc2, self.frame_addr, 4, Phase::InterpHandler).with_dst(6),
        );
        let pc3 = self.step_pc();
        self.emit(
            sink,
            NativeInst::alu(pc3, Phase::InterpHandler)
                .with_dst(7)
                .with_srcs(6, None),
        );
        let pc4 = self.step_pc();
        self.emit(sink, NativeInst::alu(pc4, Phase::InterpHandler).with_dst(5));
    }

    fn operand_fetch(&mut self, sink: &mut S, n: u32) {
        // Immediates come from the bytecode stream: more data loads.
        for k in 0..n.div_ceil(4) {
            let addr = self.code_addr + Addr::from(self.pc) + 1 + Addr::from(k * 4);
            self.handler_load(sink, addr, 4.min(n as u8));
        }
    }

    fn stack_pop(&mut self, sink: &mut S, addr: Addr) {
        self.handler_load(sink, addr, 4);
    }

    fn stack_push(&mut self, sink: &mut S, addr: Addr) {
        self.handler_store(sink, addr, 4);
    }

    fn local_read(&mut self, sink: &mut S, _n: usize, addr: Addr) {
        self.handler_load(sink, addr, 4);
    }

    fn local_write(&mut self, sink: &mut S, _n: usize, addr: Addr) {
        self.handler_store(sink, addr, 4);
    }

    fn heap_load(&mut self, sink: &mut S, addr: Addr, size: u8) {
        self.handler_load(sink, addr, size);
    }

    fn heap_store(&mut self, sink: &mut S, addr: Addr, size: u8) {
        self.handler_store(sink, addr, size);
    }

    fn ref_store_barrier(&mut self, sink: &mut S, card: Addr) -> u64 {
        // Address-to-card shift, then the unconditional dirty-byte
        // store (the classic two-instruction card barrier).
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

    fn null_check(&mut self, sink: &mut S) {
        let pc = self.step_pc();
        let src = self.last_dst;
        self.emit(
            sink,
            NativeInst::branch(pc, pc + 0x40, false, Phase::InterpHandler).with_srcs(src, None),
        );
    }

    fn bounds_check(&mut self, sink: &mut S) {
        self.alu(sink, InstClass::IntAlu);
        let pc = self.step_pc();
        let src = self.last_dst;
        self.emit(
            sink,
            NativeInst::branch(pc, pc + 0x40, false, Phase::InterpHandler).with_srcs(src, None),
        );
    }

    fn cond_branch(&mut self, sink: &mut S, taken: bool, _bc_target: u32) {
        // The handler's native branch direction mirrors the bytecode
        // branch: `if (cond) vpc = target; else vpc += len`.
        self.alu(sink, InstClass::IntAlu);
        let pc = self.step_pc();
        let src = self.last_dst;
        self.emit(
            sink,
            NativeInst::branch(pc, pc + 0x20, taken, Phase::InterpHandler).with_srcs(src, None),
        );
        // vpc update.
        self.alu(sink, InstClass::IntAlu);
    }

    fn goto_(&mut self, sink: &mut S, _bc_target: u32) {
        self.alu(sink, InstClass::IntAlu); // vpc = target
    }

    fn switch(&mut self, sink: &mut S, _bc_target: u32, _ncases: usize) {
        // Bounds test + table read from the bytecode stream + vpc
        // update; the actual transfer is the next dispatch.
        self.alu(sink, InstClass::IntAlu);
        let pc = self.step_pc();
        let src = self.last_dst;
        self.emit(
            sink,
            NativeInst::branch(pc, pc + 0x40, false, Phase::InterpHandler).with_srcs(src, None),
        );
        let table = self.code_addr + Addr::from(self.pc) + 11;
        self.handler_load(sink, table, 4);
        self.alu(sink, InstClass::IntAlu);
    }

    fn invoke(&mut self, sink: &mut S, _kind: InvokeKind, entry: Addr) -> Addr {
        // Method-block lookup (always through pointers in an
        // interpreter, regardless of the bytecode's invoke kind).
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
        // Restore caller frame pointers, then return.
        let fp = layout::VM_DATA_BASE + 0x100;
        self.handler_load(sink, fp, 4);
        self.handler_load(sink, fp + 8, 4);
        let pc = self.step_pc();
        self.emit(sink, NativeInst::ret(pc, ret_to, Phase::InterpHandler));
    }

    fn frame_setup(&mut self, sink: &mut S, nlocals: usize, locals_addr: Addr) {
        let mut pc = RUNTIME_BASE;
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

/// Shared monitor-path emission (same VM runtime code for both
/// engines).
pub(crate) fn emit_sync<S: TraceSink + ?Sized>(
    sink: &mut S,
    cost: LockCost,
    lock_addr: Addr,
    count: &mut u64,
) {
    let mut pc = SYNC_BASE;
    for k in 0..cost.loads {
        sink.accept(
            &NativeInst::load(pc, lock_addr + Addr::from(k % 4) * 8, 4, Phase::Sync).with_dst(20),
        );
        *count += 1;
        pc += 4;
    }
    for _ in 0..cost.stores {
        sink.accept(&NativeInst::store(pc, lock_addr, 4, Phase::Sync).with_srcs(20, None));
        *count += 1;
        pc += 4;
    }
    if cost.atomic {
        sink.accept(
            &NativeInst::alu(pc, Phase::Sync)
                .with_dst(21)
                .with_srcs(20, None),
        );
        *count += 1;
        pc += 4;
    }
    let alus = cost
        .cycles
        .saturating_sub(u64::from(cost.loads + cost.stores + u32::from(cost.atomic)))
        .min(32);
    for _ in 0..alus {
        sink.accept(&NativeInst::alu(pc, Phase::Sync));
        *count += 1;
        pc += 4;
    }
}

/// Shared allocation-path emission.
pub(crate) fn emit_alloc<S: TraceSink + ?Sized>(
    sink: &mut S,
    addr: Addr,
    bytes: u32,
    count: &mut u64,
) {
    let mut pc = RUNTIME_BASE + 0x400;
    let emit_one = |sink: &mut S, i: NativeInst, count: &mut u64| {
        sink.accept(&i);
        *count += 1;
    };
    // Bump-pointer arithmetic.
    emit_one(
        sink,
        NativeInst::alu(pc, Phase::Runtime).with_dst(22),
        count,
    );
    pc += 4;
    emit_one(
        sink,
        NativeInst::alu(pc, Phase::Runtime)
            .with_dst(23)
            .with_srcs(22, None),
        count,
    );
    pc += 4;
    // Header stores + zeroing (capped; large arrays use block zeroing).
    emit_one(sink, NativeInst::store(pc, addr, 4, Phase::Runtime), count);
    pc += 4;
    emit_one(
        sink,
        NativeInst::store(pc, addr + 4, 4, Phase::Runtime),
        count,
    );
    pc += 4;
    let zero_stores = (bytes / 8).min(64);
    for k in 0..zero_stores {
        emit_one(
            sink,
            NativeInst::store(pc, addr + 8 + Addr::from(k) * 8, 8, Phase::Runtime),
            count,
        );
        pc += 4;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jrt_trace::{InstMix, RecordingSink};

    #[test]
    fn dispatch_emits_indirect_jump() {
        let mut r = RecordingSink::new();
        let mut e = InterpEmitter::new(layout::CLASS_AREA_BASE, 10, 11, 0, layout::STACK_BASE);
        e.begin(&mut r);
        assert_eq!(r.events.len(), 10); // 6 dispatch + 4 prologue
        assert_eq!(r.events[0].class, InstClass::Load);
        assert_eq!(r.events[0].mem.unwrap().addr, layout::CLASS_AREA_BASE + 10);
        assert_eq!(r.events[5].class, InstClass::IndirectJump);
        assert_eq!(r.events[5].ctrl.unwrap().target, handler_addr(11));
        assert_eq!(Emit::<RecordingSink>::count(&e), 10);
    }

    #[test]
    fn distinct_opcodes_use_distinct_handlers() {
        assert_ne!(handler_addr(1), handler_addr(2));
        let mut r1 = RecordingSink::new();
        let mut e1 = InterpEmitter::new(layout::CLASS_AREA_BASE, 0, 1, 0, layout::STACK_BASE);
        e1.begin(&mut r1);
        e1.alu(&mut r1, InstClass::IntAlu);
        assert_eq!(r1.events[6].pc, handler_addr(1)); // first prologue inst
    }

    #[test]
    fn stack_traffic_is_memory_traffic() {
        let mut mix = InstMix::new();
        let mut e = InterpEmitter::new(layout::CLASS_AREA_BASE, 0, 11, 0, layout::STACK_BASE);
        e.begin(&mut mix);
        e.stack_pop(&mut mix, layout::STACK_BASE);
        e.stack_pop(&mut mix, layout::STACK_BASE + 4);
        e.alu(&mut mix, InstClass::IntAlu);
        e.stack_push(&mut mix, layout::STACK_BASE);
        // iadd: 6 dispatch + 4 prologue + 2 loads + 1 alu + 1 store.
        assert_eq!(mix.total(), 14);
        assert!(mix.memory_fraction() > 0.3);
    }

    #[test]
    fn invoke_is_indirect_and_pairs_with_ret() {
        let mut r = RecordingSink::new();
        let mut e = InterpEmitter::new(layout::CLASS_AREA_BASE, 0, 42, 0, layout::STACK_BASE);
        e.begin(&mut r);
        let entry = invoke_helper_addr(123);
        let ret_to = e.invoke(&mut r, InvokeKind::VirtualPoly, entry);
        let call = r
            .events
            .iter()
            .find(|i| i.class == InstClass::IndirectCall)
            .expect("indirect call");
        assert_eq!(call.ctrl.unwrap().target, entry);
        assert_eq!(ret_to, call.pc + 4);
        e.ret(&mut r, ret_to);
        let ret = r
            .events
            .iter()
            .find(|i| i.class == InstClass::Ret)
            .expect("ret");
        assert_eq!(ret.ctrl.unwrap().target, ret_to);
    }

    #[test]
    fn cond_branch_direction_mirrors_bytecode() {
        for taken in [true, false] {
            let mut r = RecordingSink::new();
            let mut e = InterpEmitter::new(layout::CLASS_AREA_BASE, 0, 24, 0, layout::STACK_BASE);
            e.cond_branch(&mut r, taken, 99);
            let br = r
                .events
                .iter()
                .find(|i| i.class == InstClass::CondBranch)
                .expect("branch");
            assert_eq!(br.ctrl.unwrap().taken, taken);
        }
    }

    #[test]
    fn sync_emission_matches_cost() {
        let mut r = RecordingSink::new();
        let mut count = 0;
        emit_sync(
            &mut r,
            LockCost::new(10, 2, 1, true),
            layout::HEAP_BASE,
            &mut count,
        );
        let loads = r
            .events
            .iter()
            .filter(|i| i.class == InstClass::Load)
            .count();
        let stores = r
            .events
            .iter()
            .filter(|i| i.class == InstClass::Store)
            .count();
        assert_eq!(loads, 2);
        assert_eq!(stores, 1);
        assert_eq!(count as usize, r.events.len());
        assert!(r.events.iter().all(|i| i.phase == Phase::Sync));
    }

    #[test]
    fn alloc_zeroing_scales_with_size_but_is_capped() {
        let mut small = RecordingSink::new();
        let mut c1 = 0;
        emit_alloc(&mut small, layout::HEAP_BASE, 16, &mut c1);
        let mut big = RecordingSink::new();
        let mut c2 = 0;
        emit_alloc(&mut big, layout::HEAP_BASE, 100_000, &mut c2);
        assert!(big.events.len() > small.events.len());
        assert!(big.events.len() <= 70, "zeroing capped");
    }

    #[test]
    fn operand_fetch_reads_bytecode_stream() {
        let mut r = RecordingSink::new();
        let mut e = InterpEmitter::new(layout::CLASS_AREA_BASE, 20, 1, 0, layout::STACK_BASE);
        e.operand_fetch(&mut r, 4);
        assert_eq!(r.events.len(), 1);
        assert_eq!(r.events[0].mem.unwrap().addr, layout::CLASS_AREA_BASE + 21);
        assert_eq!(
            jrt_trace::Region::classify(r.events[0].mem.unwrap().addr),
            Some(jrt_trace::Region::ClassArea)
        );
    }
}
