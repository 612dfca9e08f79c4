//! Green threads, frames, and their simulated stack addresses.
//!
//! The VM multiplexes deterministic green threads over one host
//! thread with a round-robin scheduler (quantum in bytecodes), which
//! keeps every experiment bit-reproducible. Each thread owns a region
//! of the simulated [`Stack`](jrt_trace::Region::Stack) address space;
//! frames carve locals and operand-stack slots out of it, so the
//! interpreter's push/pop traffic gets realistic, hot, per-thread
//! addresses.

use crate::heap::{Handle, Value};
use crate::jit::CompiledMethod;
use jrt_bytecode::{MethodDef, MethodId};
use jrt_trace::{layout, Addr};
use std::sync::Arc;

/// Scheduler state of one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadStatus {
    /// Runnable.
    Ready,
    /// Blocked entering the monitor of the given object.
    Blocked(Handle),
    /// Waiting for another thread to finish (`Sys.join`).
    Joining(u16),
    /// Finished.
    Done,
}

/// One activation record.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The executing method.
    pub method: MethodId,
    /// Bytecode offset of the next instruction.
    pub pc: u32,
    /// Local variable slots.
    pub locals: Vec<Value>,
    /// Operand stack.
    pub stack: Vec<Value>,
    /// Simulated base address of the locals.
    pub locals_addr: Addr,
    /// Simulated base address of the operand stack.
    pub stack_addr: Addr,
    /// Monitor to release on return (synchronized methods).
    pub sync_obj: Option<Handle>,
    /// Monitor still to acquire before the first instruction runs
    /// (synchronized methods block here under contention).
    pub sync_pending: Option<Handle>,
    /// Whether this activation runs translated (JIT) code.
    pub jit: bool,
    /// Native return address (the instruction after the call that
    /// created this frame); pairs calls with returns so the modelled
    /// return-address stack predicts correctly.
    pub ret_to: Addr,
    /// The translated code this activation runs, as found at JIT epoch
    /// `code_epoch`: the step loop looks it up again only after the
    /// code cache changed, instead of on every bytecode.
    pub(crate) code: Option<Arc<CompiledMethod>>,
    pub(crate) code_epoch: u64,
}

impl Frame {
    /// Simulated address of operand-stack slot `depth`.
    pub fn stack_slot_addr(&self, depth: usize) -> Addr {
        self.stack_addr + 4 * depth as u64
    }

    /// Simulated address of local slot `n`.
    pub fn local_addr(&self, n: usize) -> Addr {
        self.locals_addr + 4 * n as u64
    }
}

/// Per-thread stack region size (4 MB).
const THREAD_STACK_SIZE: Addr = 0x40_0000;
const FRAME_HEADER: Addr = 32;

/// A frame for `method` at the thread's stack `cursor`, which it
/// advances past the frame, with `args` in its first local slots.
fn new_frame(cursor: &mut Addr, method: MethodId, def: &MethodDef, args: &[Value]) -> Frame {
    let max_locals = usize::from(def.max_locals.max(def.arg_slots()));
    let mut locals = vec![Value::Null; max_locals];
    locals[..args.len()].copy_from_slice(args);

    let locals_addr = *cursor + FRAME_HEADER;
    let stack_addr = locals_addr + 4 * max_locals as u64;
    *cursor = stack_addr + 4 * u64::from(def.max_stack.max(4));

    Frame {
        method,
        pc: 0,
        locals,
        stack: Vec::with_capacity(usize::from(def.max_stack)),
        locals_addr,
        stack_addr,
        sync_obj: None,
        sync_pending: None,
        jit: false,
        ret_to: 0,
        code: None,
        code_epoch: 0,
    }
}

/// One green thread.
#[derive(Debug, Clone)]
pub struct ThreadState {
    /// Thread id (also the sync engine's thread id).
    pub id: u16,
    /// Activation stack; the last frame is the current one.
    pub frames: Vec<Frame>,
    /// Scheduler status.
    pub status: ThreadStatus,
    /// Value returned by the thread's root method.
    pub result: Option<Value>,
    /// Opcode of the last interpreted bytecode (selects the threaded
    /// dispatch site for the next one).
    pub last_opcode: u8,
    /// Length of the current interpreter folding run (0 = the next
    /// bytecode must dispatch).
    pub fold_run: u8,
    cursor: Addr,
}

impl ThreadState {
    /// Creates thread `id` with an empty activation stack.
    ///
    /// # Panics
    ///
    /// Panics if `id` would place the stack outside the stack region.
    pub fn new(id: u16) -> Self {
        let base = layout::STACK_BASE + Addr::from(id) * THREAD_STACK_SIZE;
        assert!(
            base + THREAD_STACK_SIZE <= layout::STACK_END,
            "too many threads for the stack region"
        );
        ThreadState {
            id,
            frames: Vec::new(),
            status: ThreadStatus::Ready,
            result: None,
            last_opcode: 0,
            fold_run: 0,
            cursor: base,
        }
    }

    /// Pushes a frame for `method`, moving `args` into its first
    /// local slots.
    pub fn push_frame(&mut self, method: MethodId, def: &MethodDef, args: Vec<Value>) -> &Frame {
        let frame = new_frame(&mut self.cursor, method, def, &args);
        self.frames.push(frame);
        self.frames.last().expect("just pushed")
    }

    /// Pushes a frame for `method` called from the current frame,
    /// moving the caller's top `argc` operand-stack slots into the new
    /// frame's first local slots. The new frame's locals and operand
    /// stack are the only host allocations of a call.
    ///
    /// # Panics
    ///
    /// Panics if there is no current frame or its operand stack holds
    /// fewer than `argc` slots.
    pub fn push_call(&mut self, method: MethodId, def: &MethodDef, argc: usize) -> &Frame {
        let caller = self.frames.last_mut().expect("a calling frame");
        let base = caller.stack.len() - argc;
        let frame = new_frame(&mut self.cursor, method, def, &caller.stack[base..]);
        caller.stack.truncate(base);
        self.frames.push(frame);
        self.frames.last().expect("just pushed")
    }

    /// Pops the current frame, releasing its stack space.
    ///
    /// # Panics
    ///
    /// Panics if there is no frame.
    pub fn pop_frame(&mut self) -> Frame {
        let f = self.frames.pop().expect("frame to pop");
        self.cursor = f.locals_addr - FRAME_HEADER;
        f
    }

    /// The current frame.
    #[inline]
    pub fn frame(&self) -> &Frame {
        self.frames.last().expect("running thread has a frame")
    }

    /// The current frame, mutably.
    #[inline]
    pub fn frame_mut(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("running thread has a frame")
    }

    /// Whether the thread has finished (no frames left).
    pub fn is_done(&self) -> bool {
        self.frames.is_empty()
    }

    /// Depth of the activation stack.
    pub fn call_depth(&self) -> usize {
        self.frames.len()
    }

    /// All reference values reachable from this thread's frames
    /// (GC roots).
    pub fn roots(&self) -> impl Iterator<Item = Handle> + '_ {
        self.frames.iter().flat_map(|f| {
            f.locals
                .iter()
                .chain(f.stack.iter())
                .filter_map(|v| match v {
                    Value::Ref(h) => Some(*h),
                    _ => None,
                })
                .chain(f.sync_obj.iter().copied())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jrt_bytecode::{ClassId, MethodFlags, RetKind};

    fn def(max_locals: u16, max_stack: u16) -> MethodDef {
        MethodDef {
            name: "m".into(),
            nargs: 1,
            ret: RetKind::Void,
            max_locals,
            max_stack,
            code: vec![44], // return
            flags: MethodFlags {
                is_static: true,
                ..MethodFlags::default()
            },
        }
    }

    fn mid() -> MethodId {
        MethodId {
            class: ClassId(0),
            index: 0,
        }
    }

    #[test]
    fn frames_nest_and_release() {
        let mut t = ThreadState::new(0);
        t.push_frame(mid(), &def(4, 4), vec![Value::Int(1)]);
        let outer_stack = t.frame().stack_addr;
        t.push_frame(mid(), &def(2, 2), vec![Value::Int(2)]);
        assert!(t.frame().locals_addr > outer_stack);
        assert_eq!(t.call_depth(), 2);
        t.pop_frame();
        // Pushing again reuses the released space.
        t.push_frame(mid(), &def(2, 2), vec![Value::Int(3)]);
        assert_eq!(t.frame().locals[0], Value::Int(3));
        t.pop_frame();
        t.pop_frame();
        assert!(t.is_done());
    }

    #[test]
    fn addresses_are_per_thread() {
        let mut a = ThreadState::new(0);
        let mut b = ThreadState::new(1);
        a.push_frame(mid(), &def(2, 2), vec![Value::Null]);
        b.push_frame(mid(), &def(2, 2), vec![Value::Null]);
        assert!(b.frame().locals_addr - a.frame().locals_addr >= THREAD_STACK_SIZE);
        for f in [a.frame(), b.frame()] {
            assert_eq!(
                jrt_trace::Region::classify(f.stack_slot_addr(0)),
                Some(jrt_trace::Region::Stack)
            );
        }
    }

    #[test]
    fn a_call_moves_the_callers_top_slots_into_its_locals() {
        let mut t = ThreadState::new(0);
        t.push_frame(mid(), &def(1, 4), Vec::new());
        let caller = t.frame_mut();
        caller
            .stack
            .extend([Value::Int(9), Value::Int(7), Value::Ref(3)]);
        t.push_call(mid(), &def(4, 2), 2);
        let want = [Value::Int(7), Value::Ref(3), Value::Null, Value::Null];
        assert_eq!(t.frame().locals, want);
        t.pop_frame();
        assert_eq!(t.frame().stack, [Value::Int(9)]);
    }

    #[test]
    fn args_fill_leading_locals() {
        let mut t = ThreadState::new(0);
        t.push_frame(mid(), &def(5, 2), vec![Value::Int(7), Value::Ref(3)]);
        assert_eq!(t.frame().locals[0], Value::Int(7));
        assert_eq!(t.frame().locals[1], Value::Ref(3));
        assert_eq!(t.frame().locals[4], Value::Null);
    }

    #[test]
    fn roots_cover_locals_stack_and_sync() {
        let mut t = ThreadState::new(0);
        t.push_frame(mid(), &def(2, 4), vec![Value::Ref(11)]);
        t.frame_mut().stack.push(Value::Ref(22));
        t.frame_mut().sync_obj = Some(33);
        let roots: Vec<Handle> = t.roots().collect();
        assert!(roots.contains(&11));
        assert!(roots.contains(&22));
        assert!(roots.contains(&33));
    }

    #[test]
    fn slot_addresses_are_contiguous() {
        let mut t = ThreadState::new(0);
        t.push_frame(mid(), &def(3, 4), vec![Value::Null]);
        let f = t.frame();
        assert_eq!(f.local_addr(1) - f.local_addr(0), 4);
        assert_eq!(f.stack_slot_addr(1) - f.stack_slot_addr(0), 4);
        assert!(f.stack_slot_addr(0) >= f.local_addr(2) + 4);
    }
}
