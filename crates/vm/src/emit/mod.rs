//! Native-trace emission for the two execution engines.
//!
//! Both engines run the same semantic core ([`crate::step`]); an
//! [`Emit`] implementation translates each semantic micro-action into
//! the native instructions the corresponding real engine would
//! execute:
//!
//! * [`InterpEmitter`] — the `switch`-threaded interpreter: every
//!   bytecode starts with a dispatch (opcode *data* load from the
//!   bytecode area + table lookup + register-indirect jump into the
//!   handler), operands live on an in-memory operand stack, and
//!   immediates are fetched from the bytecode stream (more data
//!   loads);
//! * [`JitEmitter`] — translated native code: instructions are fetched
//!   from the method's code-cache addresses (per-method I-footprint),
//!   operand-stack and leading locals live in registers, bytecode
//!   branches become direct native branches, and calls are direct
//!   when the site is monomorphic;
//! * [`IrInterpEmitter`] / [`IrJitEmitter`] — the register-IR tier
//!   (`emit::ir`): the IR interpreter dispatches packed IR words with
//!   the operand stack in registers, and the IR-backed JIT filter
//!   drops the traffic fusion removed from translated code.

pub(crate) mod interp;
pub(crate) mod ir;
pub(crate) mod jit;

pub(crate) use interp::InterpEmitter;
pub(crate) use ir::{IrInterpEmitter, IrJitEmitter};
pub(crate) use jit::JitEmitter;

use jrt_sync::LockCost;
use jrt_trace::{Addr, InstClass, TraceSink};

/// The flavor of a method invocation, which decides the native call
/// instruction the engines emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InvokeKind {
    /// `invokestatic` / `invokespecial`: direct call.
    Direct,
    /// `invokevirtual` at a site that has only ever seen one target:
    /// the JIT devirtualizes it into a direct call.
    VirtualMono,
    /// `invokevirtual` with multiple observed targets: indirect call.
    VirtualPoly,
}

/// Emission interface shared by the engines. One emitter instance
/// lives for the duration of a single bytecode.
///
/// The trait is generic over the sink type, so the step loop, which
/// is monomorphized per sink, feeds every instruction through a
/// static `S::accept` that inlines (two adds for a
/// [`CountingSink`](jrt_trace::CountingSink), nothing for a
/// [`NullSink`](jrt_trace::NullSink)); only the choice of emitter is
/// dynamic.
pub(crate) trait Emit<S: TraceSink> {
    /// Instructions emitted so far by this emitter.
    fn count(&self) -> u64;

    /// Per-bytecode prologue (interpreter dispatch; nothing for JIT).
    fn begin(&mut self, sink: &mut S);

    /// Fetch `n` bytes of instruction operands from the bytecode
    /// stream (interpreter only — translated code has immediates
    /// inline).
    fn operand_fetch(&mut self, sink: &mut S, n: u32);

    /// Pop one operand-stack slot whose simulated address is `addr`.
    fn stack_pop(&mut self, sink: &mut S, addr: Addr);

    /// Push one operand-stack slot.
    fn stack_push(&mut self, sink: &mut S, addr: Addr);

    /// Read local `n`.
    fn local_read(&mut self, sink: &mut S, n: usize, addr: Addr);

    /// Write local `n`.
    fn local_write(&mut self, sink: &mut S, n: usize, addr: Addr);

    /// A data load from the heap/class/VM-data areas.
    fn heap_load(&mut self, sink: &mut S, addr: Addr, size: u8);

    /// A data store.
    fn heap_store(&mut self, sink: &mut S, addr: Addr, size: u8);

    /// Card-marking write barrier following a reference store: the
    /// address-to-card shift and the one-byte dirty store to `card`,
    /// emitted under [`Phase::GcBarrier`](jrt_trace::Phase). Returns
    /// the number of instructions emitted, so the VM's
    /// `gc_barrier_insts` counter matches the trace exactly (the IR
    /// tier emits nothing at elided pcs).
    fn ref_store_barrier(&mut self, sink: &mut S, card: Addr) -> u64;

    /// An arithmetic operation of the given class.
    fn alu(&mut self, sink: &mut S, class: InstClass);

    /// A (never-taken) null-pointer check.
    fn null_check(&mut self, sink: &mut S);

    /// A (never-taken) array-bounds check.
    fn bounds_check(&mut self, sink: &mut S);

    /// A bytecode conditional branch resolved with direction `taken`.
    fn cond_branch(&mut self, sink: &mut S, taken: bool, bc_target: u32);

    /// A bytecode `goto`.
    fn goto_(&mut self, sink: &mut S, bc_target: u32);

    /// A `tableswitch` landing on `bc_target`.
    fn switch(&mut self, sink: &mut S, bc_target: u32, ncases: usize);

    /// A method invocation to native entry `entry`; returns the
    /// native return address the callee should return to.
    fn invoke(&mut self, sink: &mut S, kind: InvokeKind, entry: Addr) -> Addr;

    /// A method return to `ret_to`.
    fn ret(&mut self, sink: &mut S, ret_to: Addr);

    /// Callee frame setup (locals zeroing, bookkeeping) — VM runtime
    /// work.
    fn frame_setup(&mut self, sink: &mut S, nlocals: usize, locals_addr: Addr);

    /// A monitor operation of the given modelled cost, touching the
    /// lock word / monitor-cache structures at `lock_addr`.
    fn sync_op(&mut self, sink: &mut S, cost: LockCost, lock_addr: Addr);

    /// Object/array allocation of `bytes` at `addr` (header
    /// initialization and allocator bookkeeping).
    fn alloc(&mut self, sink: &mut S, addr: Addr, bytes: u32);
}
