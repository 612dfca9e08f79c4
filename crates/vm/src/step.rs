//! The shared semantic core: executes one bytecode of one thread.
//!
//! Both engines run through this function; the [`Emit`] implementation
//! chosen for the current frame (interpreter vs. translated code)
//! decides what native instructions the action costs. This guarantees
//! the two execution modes compute identical results — the paper's
//! contrast is purely architectural, and so is ours.

use crate::emit::interp::invoke_helper_addr;
use crate::emit::{Emit, InterpEmitter, InvokeKind, IrInterpEmitter, IrJitEmitter, JitEmitter};
use crate::heap::{Handle, Value};
use crate::intrinsics::{self, IntrinsicOutcome};
use crate::jit::{CallSite, CompiledMethod, JitState};
use crate::thread::{ThreadState, ThreadStatus};
use crate::vm::{StepEnv, VmError};
use jrt_bytecode::{MethodId, Op, RetKind};
use jrt_ir::PcPlan;
use jrt_sync::{EnterOutcome, ExitOutcome};
use jrt_trace::{layout, Addr, InstClass, TraceSink};
use std::sync::Arc;

/// What the scheduler should do after one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepOutcome {
    /// Keep running this thread.
    Continue,
    /// The thread blocked on a monitor; reschedule.
    Blocked,
    /// The thread's root method returned.
    ThreadDone,
    /// `Sys.spawn(target)` — the VM must create a thread running
    /// `target.run()` and push the new thread id on this thread's
    /// stack.
    Spawn {
        /// The runnable object.
        target: Handle,
    },
    /// `Sys.join(tid)` — the VM must block this thread until `tid`
    /// finishes.
    Join(u16),
}

/// Simulated address of the lock structure touched by a monitor
/// operation: header word for header-bit schemes, monitor-cache
/// bucket for the fat-only scheme.
fn lock_addr(env: &StepEnv<'_>, h: Handle) -> Addr {
    if env.sync.header_bits() > 0 {
        env.heap.header_addr(h).unwrap_or(layout::HEAP_BASE) + 4
    } else {
        layout::VM_DATA_BASE + u64::from(h % 128) * 32
    }
}

/// Executes one bytecode of `thread`.
///
/// Monomorphized per sink type, so the emitters' `sink.accept` calls
/// are static; the cold paths it calls (class loading, translation,
/// lowering, intrinsics) take the sink as `&mut dyn TraceSink`. Kept
/// out of line: inlined into the scheduler loop, it measured slower on
/// the JIT engines.
///
/// # Errors
///
/// Surfaces runtime faults (`NullPointerException`-equivalents,
/// division by zero, heap exhaustion, monitor misuse) as [`VmError`].
#[inline(never)]
pub(crate) fn step<S: TraceSink>(
    env: &mut StepEnv<'_>,
    thread: &mut ThreadState,
    sink: &mut S,
) -> Result<StepOutcome, VmError> {
    // A translated frame's code handle leaves the frame for the step
    // and goes back unless the step returned from the frame.
    let frame = thread.call_depth() - 1;
    let mut code = None;
    let outcome = step_frame(env, thread, sink, &mut code);
    if let (Some(code), Some(f)) = (code, thread.frames.get_mut(frame)) {
        f.code = Some(code);
    }
    outcome
}

/// The translated code of the current frame, taken out of the frame:
/// its own handle while the JIT epoch is the one it was found at,
/// otherwise what a lookup finds now. `None` means the code was
/// evicted while the frame ran.
#[inline]
fn take_code(jit: &JitState, thread: &mut ThreadState) -> Option<Arc<CompiledMethod>> {
    let tid = thread.id;
    let f = thread.frame_mut();
    if f.code.is_none() || f.code_epoch != jit.epoch() {
        f.code = jit.compiled_for_frame(f.method, tid);
        f.code_epoch = jit.epoch();
    }
    f.code.take()
}

/// [`step`] with the frame's code handle, once taken, in `code`.
/// Always inlined, so that the result is written once, into the slot
/// the scheduler reads: out of line, `step` copied it from a slot of
/// its own with a wide load of what had just been written in narrow
/// stores, which stalls store forwarding on every bytecode.
#[inline(always)]
fn step_frame<S: TraceSink>(
    env: &mut StepEnv<'_>,
    thread: &mut ThreadState,
    sink: &mut S,
    code: &mut Option<Arc<CompiledMethod>>,
) -> Result<StepOutcome, VmError> {
    let program = env.program;
    let f = thread.frame();
    let (mid, mut jit_frame, pc, sync_pending) = (f.method, f.jit, f.pc, f.sync_pending);
    let def = program.method_def(mid);
    let pool = &program.class_file(mid.class).pool;

    // Pending synchronized-method entry?
    if let Some(obj) = sync_pending {
        match env.sync.monitor_enter(obj, thread.id) {
            EnterOutcome::Acquired { cost, .. } => {
                let mut n = 0u64;
                crate::emit::interp::emit_sync(sink, cost, lock_addr(env, obj), &mut n);
                charge(env, mid, jit_frame, n);
                let f = thread.frame_mut();
                f.sync_pending = None;
                f.sync_obj = Some(obj);
            }
            EnterOutcome::Blocked { cost } => {
                let mut n = 0u64;
                crate::emit::interp::emit_sync(sink, cost, lock_addr(env, obj), &mut n);
                charge(env, mid, jit_frame, n);
                thread.status = ThreadStatus::Blocked(obj);
                return Ok(StepOutcome::Blocked);
            }
        }
    }

    // A frame whose translated code was evicted mid-flight demotes to
    // interpretation — the eviction's cost is precisely this fallback
    // (slower bytecodes, and possible re-translation on the next
    // invocation).
    let cm = if jit_frame {
        *code = take_code(env.jit, thread);
        if code.is_none() {
            thread.frame_mut().jit = false;
            jit_frame = false;
        }
        code.as_deref()
    } else {
        None
    };
    // Decode from the method's bytes, translated frame or not: the
    // decode allocates nothing except a `tableswitch`'s target list.
    let Some((decoded, len)) = Op::try_decode(&def.code, pc as usize) else {
        return Err(decode_error(&def.code, pc));
    };
    let op = &decoded;
    let len = len as u32;
    let opcode = op.dispatch_index();

    // Differential-fuzzing observability: histogram the decoded
    // opcode before it acts, so faulting bytecodes are counted too
    // and engines compare at bytecode granularity.
    if let Some(counts) = env.opcode_counts.as_mut() {
        counts[usize::from(opcode)] += 1;
    }

    // In IR modes every non-native method is lowered by
    // `ensure_compiled` before its frame is pushed (thread starts and
    // invokes share that decision point), so the record exists. Only
    // Copy values leave the borrow: this runs per bytecode, so the
    // lookup must not clone the Arc.
    let ir_plan = if env.mode.is_ir() {
        let lm = env
            .jit
            .lowered(mid)
            .expect("IR mode lowers before stepping");
        let plan = lm.ir.plan_at(pc);
        // An `Exec` pc dispatches to its IR opcode's handler; a covered
        // pc's micro-ops run at its bytecode's slot.
        let slot = match plan {
            PcPlan::Exec {
                opcode: ir_opcode, ..
            } => ir_opcode,
            PcPlan::Covered | PcPlan::Elided => opcode,
        };
        Some((plan, slot, lm.base))
    } else {
        None
    };
    // Emitter for this bytecode: one of four stack locals, used
    // through `em`, so a step allocates nothing on the host heap.
    let addr_of = |p: u32| cm.map_or(0, |cm| cm.addr(p));
    let mut jit_em;
    let mut ir_jit_em;
    let mut ir_interp_em;
    let mut interp_em;
    let em: &mut dyn Emit<S> = if jit_frame {
        let reg_locals = cm.map_or(0, |cm| cm.reg_locals);
        let inner = JitEmitter::new(addr_of, pc, thread.frame().stack.len(), reg_locals);
        match ir_plan {
            // IR-translated code: fused register moves and elided pcs
            // emit nothing.
            Some((plan, _, _)) => {
                ir_jit_em = IrJitEmitter::new(inner, plan, reg_locals);
                &mut ir_jit_em
            }
            None => {
                jit_em = inner;
                &mut jit_em
            }
        }
    } else if let Some((plan, slot, ir_base)) = ir_plan {
        // Register-IR interpreter: only `Exec` pcs dispatch (through
        // their IR opcode's handler); covered pcs run their micro-ops
        // inside the covering handler's text, elided pcs are free.
        ir_interp_em = IrInterpEmitter::new(plan, slot, thread.last_opcode, ir_base);
        if matches!(plan, PcPlan::Exec { .. }) {
            env.jit.ir.dispatches += 1;
            thread.last_opcode = slot;
        }
        &mut ir_interp_em
    } else {
        let em = InterpEmitter::new(
            env.linker.code_addr(mid),
            pc,
            opcode,
            thread.last_opcode,
            thread.frame().locals_addr - 16,
        );
        // picoJava-style folding: up to four consecutive simple
        // bytecodes share the previous dispatch.
        let fold = env.folding && is_foldable(op) && (1..4).contains(&thread.fold_run);
        if env.folding {
            thread.fold_run = if is_foldable(op) {
                if thread.fold_run >= 4 {
                    1
                } else {
                    thread.fold_run + 1
                }
            } else {
                0
            };
        }
        thread.last_opcode = opcode;
        interp_em = if fold { em.folded() } else { em };
        &mut interp_em
    };
    em.begin(sink);
    if len > 1 {
        em.operand_fetch(sink, len - 1);
    }

    macro_rules! pop {
        () => {{
            let f = thread.frame_mut();
            let v = f.stack.pop().expect("verified stack");
            let addr = f.stack_slot_addr(f.stack.len());
            em.stack_pop(sink, addr);
            v
        }};
    }
    macro_rules! push {
        ($v:expr) => {{
            let v = $v;
            let f = thread.frame_mut();
            f.stack.push(v);
            let addr = f.stack_slot_addr(f.stack.len() - 1);
            em.stack_push(sink, addr);
        }};
    }
    macro_rules! npe {
        ($v:expr) => {{
            em.null_check(sink);
            match $v.as_ref() {
                Some(h) => h,
                None => return Err(null_pointer(env, mid, pc)),
            }
        }};
    }

    let mut next_pc = pc + len;

    match op {
        Op::Nop => {}
        Op::IConst(v) => {
            em.alu(sink, InstClass::IntAlu);
            push!(Value::Int(*v));
        }
        Op::AConstNull => {
            em.alu(sink, InstClass::IntAlu);
            push!(Value::Null);
        }
        Op::ILoad(n) | Op::ALoad(n) => {
            let n = usize::from(*n);
            let addr = thread.frame().local_addr(n);
            em.local_read(sink, n, addr);
            let v = thread.frame().locals[n];
            push!(v);
        }
        Op::IStore(n) | Op::AStore(n) => {
            let n = usize::from(*n);
            let v = pop!();
            let addr = thread.frame().local_addr(n);
            em.local_write(sink, n, addr);
            thread.frame_mut().locals[n] = v;
        }
        Op::Pop => {
            pop!();
        }
        Op::Dup => {
            let v = pop!();
            push!(v);
            push!(v);
        }
        Op::DupX1 => {
            let v1 = pop!();
            let v2 = pop!();
            push!(v1);
            push!(v2);
            push!(v1);
        }
        Op::Swap => {
            let v1 = pop!();
            let v2 = pop!();
            push!(v1);
            push!(v2);
        }
        Op::IAdd
        | Op::ISub
        | Op::IMul
        | Op::IDiv
        | Op::IRem
        | Op::IShl
        | Op::IShr
        | Op::IUshr
        | Op::IAnd
        | Op::IOr
        | Op::IXor => {
            let b = pop!().as_int();
            let a = pop!().as_int();
            let class = match op {
                Op::IMul => InstClass::IntMul,
                Op::IDiv | Op::IRem => InstClass::IntDiv,
                _ => InstClass::IntAlu,
            };
            em.alu(sink, class);
            let r = match op {
                Op::IAdd => a.wrapping_add(b),
                Op::ISub => a.wrapping_sub(b),
                Op::IMul => a.wrapping_mul(b),
                Op::IDiv => {
                    if b == 0 {
                        return Err(divide_by_zero(env, mid, pc));
                    }
                    a.wrapping_div(b)
                }
                Op::IRem => {
                    if b == 0 {
                        return Err(divide_by_zero(env, mid, pc));
                    }
                    a.wrapping_rem(b)
                }
                Op::IShl => a.wrapping_shl(b as u32 & 31),
                Op::IShr => a.wrapping_shr(b as u32 & 31),
                Op::IUshr => ((a as u32) >> (b as u32 & 31)) as i32,
                Op::IAnd => a & b,
                Op::IOr => a | b,
                Op::IXor => a ^ b,
                _ => unreachable!(),
            };
            push!(Value::Int(r));
        }
        Op::INeg => {
            let a = pop!().as_int();
            em.alu(sink, InstClass::IntAlu);
            push!(Value::Int(a.wrapping_neg()));
        }
        Op::IInc(n, d) => {
            let n = usize::from(*n);
            let addr = thread.frame().local_addr(n);
            em.local_read(sink, n, addr);
            em.alu(sink, InstClass::IntAlu);
            em.local_write(sink, n, addr);
            let f = thread.frame_mut();
            f.locals[n] = Value::Int(f.locals[n].as_int().wrapping_add(i32::from(*d)));
        }
        Op::If(cond, t) => {
            let v = pop!().as_int();
            let taken = cond.eval(v, 0);
            em.cond_branch(sink, taken, *t);
            if taken {
                next_pc = *t;
            }
        }
        Op::IfICmp(cond, t) => {
            let b = pop!().as_int();
            let a = pop!().as_int();
            let taken = cond.eval(a, b);
            em.cond_branch(sink, taken, *t);
            if taken {
                next_pc = *t;
            }
        }
        Op::IfNull(t) | Op::IfNonNull(t) => {
            let v = pop!();
            let is_null = matches!(v, Value::Null);
            let taken = if matches!(op, Op::IfNull(_)) {
                is_null
            } else {
                !is_null
            };
            em.cond_branch(sink, taken, *t);
            if taken {
                next_pc = *t;
            }
        }
        Op::IfACmpEq(t) | Op::IfACmpNe(t) => {
            let b = pop!();
            let a = pop!();
            let eq = a == b;
            let taken = if matches!(op, Op::IfACmpEq(_)) {
                eq
            } else {
                !eq
            };
            em.cond_branch(sink, taken, *t);
            if taken {
                next_pc = *t;
            }
        }
        Op::Goto(t) => {
            em.goto_(sink, *t);
            next_pc = *t;
        }
        Op::TableSwitch {
            low,
            default,
            targets,
        } => {
            let key = pop!().as_int();
            let idx = key.wrapping_sub(*low);
            let target = if idx >= 0 && (idx as usize) < targets.len() {
                targets[idx as usize]
            } else {
                *default
            };
            em.switch(sink, target, targets.len());
            next_pc = target;
        }
        Op::New(cp) => {
            let cname = pool
                .class_ref(*cp)
                .map_err(|e| VmError::Internal(e.to_string()))?;
            let cid = program.class(cname).expect("verified class");
            let loaded = env.linker.ensure_loaded(cid, program, env.heap, sink);
            *env.classload_insts += loaded;
            let nfields = env.linker.class(cid).num_fields();
            let h = env.heap.alloc_object(cid, nfields).map_err(VmError::Heap)?;
            let addr = env.heap.header_addr(h).expect("fresh object");
            em.alloc(sink, addr, 8 + 4 * nfields as u32);
            push!(Value::Ref(h));
        }
        Op::GetField(cp) => {
            let (_, fname) = pool
                .field_ref(*cp)
                .map_err(|e| VmError::Internal(e.to_string()))?;
            let objv = pop!();
            let h = npe!(objv);
            let rcls = env.heap.class_of(h).map_err(VmError::Heap)?;
            let slot = env
                .linker
                .class(rcls)
                .field_slot(fname)
                .ok_or_else(|| VmError::Internal(format!("field {fname} missing")))?;
            let addr = env.heap.field_addr(h, slot).map_err(VmError::Heap)?;
            em.heap_load(sink, addr, 4);
            let v = env.heap.get_field(h, slot).map_err(VmError::Heap)?;
            push!(v);
        }
        Op::PutField(cp) => {
            let (_, fname) = pool
                .field_ref(*cp)
                .map_err(|e| VmError::Internal(e.to_string()))?;
            let v = pop!();
            let objv = pop!();
            let h = npe!(objv);
            let rcls = env.heap.class_of(h).map_err(VmError::Heap)?;
            let slot = env
                .linker
                .class(rcls)
                .field_slot(fname)
                .ok_or_else(|| VmError::Internal(format!("field {fname} missing")))?;
            let addr = env.heap.field_addr(h, slot).map_err(VmError::Heap)?;
            em.heap_store(sink, addr, 4);
            env.heap.set_field(h, slot, v).map_err(VmError::Heap)?;
            if env.gc_barriers && matches!(v, Value::Ref(_)) {
                *env.gc_barrier_insts += em.ref_store_barrier(sink, crate::heap::card_addr(addr));
            }
        }
        Op::GetStatic(cp) | Op::PutStatic(cp) => {
            let (field, loaded) = env
                .linker
                .static_field(program, mid.class, *cp, env.heap, sink)?;
            *env.classload_insts += loaded;
            let (owner, slot) = (field.owner, field.slot as usize);
            let addr = env.linker.static_slot_addr(owner, slot);
            if matches!(op, Op::GetStatic(_)) {
                em.heap_load(sink, addr, 4);
                let v = env.linker.get_static(owner, slot);
                push!(v);
            } else {
                let v = pop!();
                em.heap_store(sink, addr, 4);
                env.linker.set_static(owner, slot, v);
                if env.gc_barriers && matches!(v, Value::Ref(_)) {
                    *env.gc_barrier_insts +=
                        em.ref_store_barrier(sink, crate::heap::card_addr(addr));
                }
            }
        }
        Op::NewArray(kind) => {
            let n = pop!().as_int();
            let h = env.heap.alloc_array(*kind, n).map_err(VmError::Heap)?;
            let addr = env.heap.header_addr(h).expect("fresh array");
            em.alloc(sink, addr, 12 + kind.elem_size() * n.max(0) as u32);
            push!(Value::Ref(h));
        }
        Op::ArrayLength => {
            let objv = pop!();
            let h = npe!(objv);
            let len = env.heap.array_len(h).map_err(VmError::Heap)?;
            let addr = env.heap.header_addr(h).map_err(VmError::Heap)? + 8;
            em.heap_load(sink, addr, 4);
            push!(Value::Int(len as i32));
        }
        Op::ArrLoad(kind) => {
            let idx = pop!().as_int();
            let objv = pop!();
            let h = npe!(objv);
            em.bounds_check(sink);
            let raw = env.heap.array_get(h, idx).map_err(VmError::Heap)?;
            let addr = env.heap.elem_addr(h, idx).map_err(VmError::Heap)?;
            em.heap_load(sink, addr, kind.elem_size() as u8);
            push!(if matches!(kind, jrt_bytecode::ArrayKind::Ref) {
                Value::ref_from_raw(raw)
            } else {
                Value::Int(raw)
            });
        }
        Op::ArrStore(kind) => {
            let v = pop!();
            let idx = pop!().as_int();
            let objv = pop!();
            let h = npe!(objv);
            em.bounds_check(sink);
            let addr = env.heap.elem_addr(h, idx).map_err(VmError::Heap)?;
            em.heap_store(sink, addr, kind.elem_size() as u8);
            env.heap
                .array_set(h, idx, v.to_raw())
                .map_err(VmError::Heap)?;
            if env.gc_barriers
                && matches!(kind, jrt_bytecode::ArrayKind::Ref)
                && matches!(v, Value::Ref(_))
            {
                *env.gc_barrier_insts += em.ref_store_barrier(sink, crate::heap::card_addr(addr));
            }
        }
        Op::InvokeStatic(cp) | Op::InvokeVirtual(cp) | Op::InvokeSpecial(cp) => {
            let (cname, mname, nargs, ret_kind) = pool
                .method_ref(*cp)
                .map_err(|e| VmError::Internal(e.to_string()))?;
            let is_virtual = matches!(op, Op::InvokeVirtual(_));
            let is_static = matches!(op, Op::InvokeStatic(_));

            let declared_cid = program.class(cname).expect("verified class");
            let loaded = env
                .linker
                .ensure_loaded(declared_cid, program, env.heap, sink);
            *env.classload_insts += loaded;

            // Pop the arguments (receiver first for instance calls):
            // each pop is emitted, top of stack first, but the values
            // stay on the caller's stack, at `base..`, until the callee
            // frame takes them or a fault drops them, so an invoke
            // builds no argument list.
            let argc = usize::from(nargs) + usize::from(!is_static);
            let depth = thread.frame().stack.len();
            let base = depth.checked_sub(argc).expect("verified stack");
            for slot in (base..depth).rev() {
                let addr = thread.frame().stack_slot_addr(slot);
                em.stack_pop(sink, addr);
            }
            macro_rules! fault {
                ($e:expr) => {{
                    let e = $e;
                    thread.frame_mut().stack.truncate(base);
                    return Err(e);
                }};
            }

            // Resolve the callee.
            let callee = if is_virtual {
                em.null_check(sink);
                let Some(h) = thread.frame().stack[base].as_ref() else {
                    fault!(null_pointer(env, mid, pc))
                };
                let rcls = match env.heap.class_of(h) {
                    Ok(rcls) => rcls,
                    Err(e) => fault!(VmError::Heap(e)),
                };
                let target = env
                    .linker
                    .class(rcls)
                    .vtable_lookup(mname)
                    .or_else(|| program.resolve_method(cname, mname));
                match target {
                    Some(target) => target,
                    None => fault!(VmError::Internal(format!("no target for {mname}"))),
                }
            } else {
                program
                    .resolve_method(cname, mname)
                    .expect("verified method resolution")
            };
            let callee_def = program.method_def(callee);

            // Native methods dispatch to intrinsics.
            if callee_def.flags.is_native {
                let entry = layout::VM_TEXT_BASE
                    + 0x6_0000
                    + (u64::from(callee.class.0) * 131 + u64::from(callee.index)) % 0x1000 * 16;
                em.invoke(sink, InvokeKind::Direct, entry);
                let mut n = 0u64;
                let args = &thread.frame().stack[base..];
                let called = intrinsics::call(cname, mname, args, env.heap, env.out, sink, &mut n);
                thread.frame_mut().stack.truncate(base);
                let outcome = called.map_err(|e| VmError::Intrinsic(format!("{e:?}")))?;
                em.ret(sink, 0);
                charge(env, mid, jit_frame, em.count() + n);
                thread.frame_mut().pc = next_pc;
                return Ok(match outcome {
                    IntrinsicOutcome::Done(v) => {
                        debug_assert_eq!(v.is_some(), ret_kind != RetKind::Void);
                        if let Some(rv) = v {
                            thread.frame_mut().stack.push(rv);
                        }
                        StepOutcome::Continue
                    }
                    IntrinsicOutcome::Spawn { target } => StepOutcome::Spawn { target },
                    IntrinsicOutcome::Join(tid) => StepOutcome::Join(tid),
                });
            }

            // JIT policy decision for the callee: one decision point
            // (tiering, translation, touch bookkeeping) shared with
            // thread starts.
            let code_addr = env.linker.code_addr(callee);
            let use_jit = env.jit.ensure_compiled(
                env.mode,
                env.profile,
                crate::jit::CalleeSite {
                    callee,
                    tid: thread.id,
                    def: callee_def,
                    code_addr,
                },
                sink,
            );

            let entry = if use_jit {
                env.jit.entry_addr(callee, thread.id)
            } else {
                invoke_helper_addr((u64::from(callee.class.0) << 20) ^ u64::from(callee.index))
            };
            let kind = if !is_virtual {
                InvokeKind::Direct
            } else if jit_frame {
                match env.jit.observe_call_site(mid, pc, callee) {
                    CallSite::Mono(_) => InvokeKind::VirtualMono,
                    _ => InvokeKind::VirtualPoly,
                }
            } else {
                InvokeKind::VirtualPoly
            };

            let ret_to = em.invoke(sink, kind, entry);

            // Synchronized-method monitor target.
            let sync_target = if callee_def.flags.is_synchronized {
                Some(if callee_def.flags.is_static {
                    env.linker.class(callee.class).class_object
                } else {
                    thread.frame().stack[base]
                        .as_ref()
                        .expect("receiver checked above")
                })
            } else {
                None
            };

            if thread.call_depth() >= 512 {
                fault!(VmError::StackOverflow {
                    method: method_name(env, mid),
                });
            }
            thread.frame_mut().pc = next_pc;
            thread.push_call(callee, callee_def, argc);
            {
                let f = thread.frame_mut();
                f.jit = use_jit;
                f.ret_to = ret_to;
                f.sync_pending = sync_target;
            }
            let locals_addr = thread.frame().locals_addr;
            em.frame_setup(sink, usize::from(callee_def.max_locals), locals_addr);
            env.profile.record_invocation(callee);
            charge(env, mid, jit_frame, em.count());
            return Ok(StepOutcome::Continue);
        }
        Op::Return | Op::IReturn | Op::AReturn => {
            let value = if matches!(op, Op::Return) {
                None
            } else {
                Some(pop!())
            };
            let frame = thread.pop_frame();
            if let Some(h) = frame.sync_obj {
                match env.sync.monitor_exit(h, thread.id) {
                    Ok(ExitOutcome::Released { cost } | ExitOutcome::StillHeld { cost }) => {
                        em.sync_op(sink, cost, lock_addr(env, h));
                    }
                    Err(e) => return Err(VmError::Monitor(e.to_string())),
                }
            }
            em.ret(sink, frame.ret_to);
            if thread.is_done() {
                thread.result = value;
                thread.status = ThreadStatus::Done;
                charge(env, mid, jit_frame, em.count());
                return Ok(StepOutcome::ThreadDone);
            }
            if let Some(v) = value {
                let f = thread.frame_mut();
                f.stack.push(v);
                let addr = f.stack_slot_addr(f.stack.len() - 1);
                em.stack_push(sink, addr);
            }
            charge(env, mid, jit_frame, em.count());
            return Ok(StepOutcome::Continue);
        }
        Op::MonitorEnter => {
            let top = *thread.frame().stack.last().expect("verified stack");
            let h = npe!(top);
            match env.sync.monitor_enter(h, thread.id) {
                EnterOutcome::Acquired { cost, .. } => {
                    pop!();
                    em.sync_op(sink, cost, lock_addr(env, h));
                }
                EnterOutcome::Blocked { cost } => {
                    em.sync_op(sink, cost, lock_addr(env, h));
                    charge(env, mid, jit_frame, em.count());
                    thread.status = ThreadStatus::Blocked(h);
                    return Ok(StepOutcome::Blocked);
                }
            }
        }
        Op::MonitorExit => {
            let v = pop!();
            let h = npe!(v);
            match env.sync.monitor_exit(h, thread.id) {
                Ok(ExitOutcome::Released { cost } | ExitOutcome::StillHeld { cost }) => {
                    em.sync_op(sink, cost, lock_addr(env, h));
                }
                Err(e) => return Err(VmError::Monitor(e.to_string())),
            }
        }
    }

    // Backward branches are the tiered policy's loop-hotness signal
    // (invoke/return paths exit earlier, so only branches land here).
    if next_pc < pc {
        env.profile.get_mut(mid).backedges += 1;
    }
    thread.frame_mut().pc = next_pc;
    charge(env, mid, jit_frame, em.count());
    Ok(StepOutcome::Continue)
}

/// Simple bytecodes the picoJava folding unit can fuse: constants,
/// local moves, stack shuffles, and ALU operations.
fn is_foldable(op: &Op) -> bool {
    matches!(
        op,
        Op::Nop
            | Op::IConst(_)
            | Op::AConstNull
            | Op::ILoad(_)
            | Op::IStore(_)
            | Op::ALoad(_)
            | Op::AStore(_)
            | Op::Pop
            | Op::Dup
            | Op::DupX1
            | Op::Swap
            | Op::IAdd
            | Op::ISub
            | Op::IMul
            | Op::IDiv
            | Op::IRem
            | Op::INeg
            | Op::IShl
            | Op::IShr
            | Op::IUshr
            | Op::IAnd
            | Op::IOr
            | Op::IXor
            | Op::IInc(_, _)
    )
}

#[inline]
fn charge(env: &mut StepEnv<'_>, mid: MethodId, jit_frame: bool, count: u64) {
    let p = env.profile.get_mut(mid);
    if jit_frame {
        p.native_cycles += count;
    } else {
        p.interp_cycles += count;
    }
}

/// The fault of a bytecode that does not decode: verified code always
/// decodes, so this never runs in a step that succeeds. [`Op::decode`]
/// says what is wrong.
#[cold]
fn decode_error(code: &[u8], pc: u32) -> VmError {
    let e = Op::decode(code, pc as usize).expect_err("`try_decode` found no instruction");
    VmError::Internal(format!("decode at {pc}: {e}"))
}

/// A null dereference at `pc` of `mid`.
#[cold]
fn null_pointer(env: &StepEnv<'_>, mid: MethodId, pc: u32) -> VmError {
    VmError::NullPointer {
        method: method_name(env, mid),
        pc,
    }
}

/// An integer division by zero at `pc` of `mid`.
#[cold]
fn divide_by_zero(env: &StepEnv<'_>, mid: MethodId, pc: u32) -> VmError {
    VmError::DivideByZero {
        method: method_name(env, mid),
        pc,
    }
}

fn method_name(env: &StepEnv<'_>, mid: MethodId) -> String {
    let cf = env.program.class_file(mid.class);
    format!("{}::{}", cf.name, cf.methods[mid.index as usize].name)
}
