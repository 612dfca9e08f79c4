//! Single-pass stack-to-register lowering.
//!
//! The pass abstractly interprets the operand stack over one linear
//! scan of the method. Within an extended basic block (leaders =
//! entry plus every branch target) it defers *producers* — constants
//! and local loads — instead of emitting them, and fuses them into
//! their consumer as typed operands. Deferral never crosses a block
//! boundary, so the plan is a pure static property of each pc: the
//! same bytecode always carries the same cost no matter which path
//! reached it, which is what lets the IR engines stay in lockstep
//! with the stack interpreter's semantics.

use crate::inst::{AluOp, CallKind, Dst, IrInst, RefCond, Src, Ty};
use jrt_bytecode::{BytecodeError, Op};

/// What a bytecode pc costs under the register IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PcPlan {
    /// The pc dispatches its own IR instruction: `words` 4-byte words
    /// starting at word offset `word_off` in the method's IR buffer.
    Exec {
        /// Word offset of the instruction in the encoded IR.
        word_off: u32,
        /// Encoded size in words.
        words: u16,
        /// The instruction's [`IrInst::opcode`], which selects the IR
        /// interpreter's handler.
        opcode: u8,
    },
    /// The pc's work rides inside a fused neighbour (e.g. a local
    /// load absorbed as a register operand): no dispatch, but its
    /// own memory micro-ops still happen.
    Covered,
    /// The pc was optimized away entirely (folded constant, dead
    /// value, stack rename): no dispatch, no micro-ops.
    Elided,
}

/// Aggregate statistics from one lowering, surfaced to the
/// experiments layer and to `LowerStats`-driven golden tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LowerStats {
    /// Decoded bytecode instructions.
    pub bytecodes: u32,
    /// IR instructions emitted (`Exec` pcs).
    pub ir_insts: u32,
    /// Pcs fused into a neighbour (`Covered`).
    pub covered: u32,
    /// Pcs optimized away (`Elided`).
    pub elided: u32,
    /// Constant-folding events (ALU over two known constants).
    pub folded: u32,
    /// Operands fused into a consumer (immediates and locals).
    pub fused: u32,
    /// Loads of a local whose constant value was forwarded.
    pub loads_forwarded: u32,
    /// Total encoded IR size in 4-byte words.
    pub total_words: u32,
}

/// A lowered method: the IR instruction stream plus the per-pc plan.
#[derive(Debug, Clone)]
pub struct IrMethod {
    /// IR instructions, sorted by the bytecode pc they replace (at
    /// most one per pc).
    pub insts: Vec<(u32, IrInst)>,
    /// Lowering statistics.
    pub stats: LowerStats,
    plan: Vec<PcPlan>,
    exec_word: Vec<u32>,
}

impl IrMethod {
    /// The plan for the bytecode instruction starting at `pc`.
    #[inline]
    pub fn plan_at(&self, pc: u32) -> PcPlan {
        self.plan
            .get(pc as usize)
            .copied()
            .unwrap_or(PcPlan::Elided)
    }

    /// Word offset of the first executable IR instruction at or
    /// after bytecode `pc` — the branch-target mapping.
    pub fn word_target(&self, pc: u32) -> u32 {
        self.exec_word
            .get(pc as usize)
            .copied()
            .unwrap_or(self.stats.total_words)
    }

    /// Total encoded size in 4-byte words.
    pub fn total_words(&self) -> u32 {
        self.stats.total_words
    }

    /// Packs the instruction stream into its word encoding.
    pub fn encode_words(&self) -> Vec<u32> {
        let mut bytes = Vec::with_capacity(self.stats.total_words as usize * 4);
        for (_, inst) in &self.insts {
            inst.encode_into(&mut bytes);
        }
        bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }

    /// Renders a stable disassembly listing, one line per IR
    /// instruction: `@pc+word: inst`.
    pub fn disasm(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (pc, inst) in &self.insts {
            let PcPlan::Exec { word_off, .. } = self.plan_at(*pc) else {
                unreachable!("inst at non-exec pc");
            };
            let _ = writeln!(out, "@{pc}+{word_off}: {inst}");
        }
        out
    }
}

/// Abstract value on the modelled operand stack.
enum Abs {
    /// A value in a register whose producer is not rewritable.
    Opaque,
    /// Deferred integer constant produced at `pc`.
    Const { pc: u32, val: i32 },
    /// Deferred null produced at `pc`.
    Null { pc: u32 },
    /// Deferred int local load produced at `pc`.
    LoadI { pc: u32, n: u8 },
    /// Deferred ref local load produced at `pc`.
    LoadA { pc: u32, n: u8 },
}

/// Internal per-pc classification before word offsets are known.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Exec,
    Covered,
    Elided,
}

/// Known integer constants per local slot. Locals are `u8`-indexed,
/// so a direct-index table plus a dirty list beats hashing on the
/// lowering hot loop; block-boundary clears touch only written slots.
struct LocalConsts {
    vals: [Option<i32>; 256],
    dirty: Vec<u8>,
}

impl LocalConsts {
    fn new() -> Self {
        LocalConsts {
            vals: [None; 256],
            dirty: Vec::new(),
        }
    }

    fn get(&self, n: u8) -> Option<i32> {
        self.vals[usize::from(n)]
    }

    fn set(&mut self, n: u8, v: i32) {
        if self.vals[usize::from(n)].is_none() {
            self.dirty.push(n);
        }
        self.vals[usize::from(n)] = Some(v);
    }

    fn kill(&mut self, n: u8) {
        self.vals[usize::from(n)] = None;
    }

    fn clear(&mut self) {
        for n in self.dirty.drain(..) {
            self.vals[usize::from(n)] = None;
        }
    }
}

struct Lowerer<'a> {
    ops: &'a [(u32, Op, usize)],
    leader: Vec<bool>,
    kind: Vec<Kind>,
    insts: Vec<(u32, IrInst)>,
    stack: Vec<Abs>,
    local_ints: LocalConsts,
    skip_next_store: bool,
    stats: LowerStats,
}

impl Lowerer<'_> {
    fn pop(&mut self) -> Abs {
        // Values flowing in across a block boundary are opaque.
        self.stack.pop().unwrap_or(Abs::Opaque)
    }

    /// Turns a deferred producer into its own IR instruction at the
    /// producer's pc.
    fn materialize(&mut self, e: &Abs) {
        let (pc, inst) = match *e {
            Abs::Opaque => return,
            Abs::Const { pc, val } => (pc, IrInst::LoadImm { imm: val }),
            Abs::Null { pc } => (pc, IrInst::LoadNull),
            Abs::LoadI { pc, n } => (
                pc,
                IrInst::LoadLocal {
                    ty: Ty::Int,
                    n: n.into(),
                },
            ),
            Abs::LoadA { pc, n } => (
                pc,
                IrInst::LoadLocal {
                    ty: Ty::Ref,
                    n: n.into(),
                },
            ),
        };
        self.kind[pc as usize] = Kind::Exec;
        self.insts.push((pc, inst));
    }

    /// Materializes every deferred entry in place (the values stay
    /// on the stack, now opaque).
    fn flush(&mut self) {
        for i in 0..self.stack.len() {
            if !matches!(self.stack[i], Abs::Opaque) {
                let e = std::mem::replace(&mut self.stack[i], Abs::Opaque);
                self.materialize(&e);
            }
        }
    }

    /// Consumes an abstract value as a fused operand: deferred
    /// constants become immediates (producer elided), deferred loads
    /// become in-place local reads (producer covered).
    fn fuse(&mut self, e: Abs) -> Src {
        match e {
            Abs::Opaque => Src::Stack,
            Abs::Const { val, .. } => {
                self.stats.fused += 1;
                Src::Imm(val)
            }
            Abs::Null { .. } => {
                self.stats.fused += 1;
                Src::Null
            }
            Abs::LoadI { pc, n } | Abs::LoadA { pc, n } => {
                self.kind[pc as usize] = Kind::Covered;
                self.stats.fused += 1;
                Src::Local(n.into())
            }
        }
    }

    fn exec(&mut self, pc: u32, inst: IrInst) {
        self.kind[pc as usize] = Kind::Exec;
        self.insts.push((pc, inst));
    }

    /// Peek-ahead store fusion: if the next instruction is an
    /// `istore` in the same block, the ALU retires straight to the
    /// local and the store pc is covered.
    fn fused_store_dst(&mut self, i: usize) -> Dst {
        if let Some((npc, Op::IStore(n), _)) = self.ops.get(i + 1) {
            if !self.leader[*npc as usize] {
                self.kind[*npc as usize] = Kind::Covered;
                self.skip_next_store = true;
                self.local_ints.kill(*n);
                self.stats.fused += 1;
                return Dst::Local(u16::from(*n));
            }
        }
        Dst::Stack
    }

    /// Mirrors the interpreter's ALU semantics exactly; `None` when
    /// the operation would trap (never folded).
    fn fold(op: &Op, a: i32, b: i32) -> Option<i32> {
        Some(match op {
            Op::IAdd => a.wrapping_add(b),
            Op::ISub => a.wrapping_sub(b),
            Op::IMul => a.wrapping_mul(b),
            Op::IDiv if b != 0 => a.wrapping_div(b),
            Op::IRem if b != 0 => a.wrapping_rem(b),
            Op::IShl => a.wrapping_shl(b as u32 & 31),
            Op::IShr => a.wrapping_shr(b as u32 & 31),
            Op::IUshr => ((a as u32) >> (b as u32 & 31)) as i32,
            Op::IAnd => a & b,
            Op::IOr => a | b,
            Op::IXor => a ^ b,
            _ => return None,
        })
    }

    fn alu_op(op: &Op) -> AluOp {
        match op {
            Op::IAdd => AluOp::Add,
            Op::ISub => AluOp::Sub,
            Op::IMul => AluOp::Mul,
            Op::IDiv => AluOp::Div,
            Op::IRem => AluOp::Rem,
            Op::IShl => AluOp::Shl,
            Op::IShr => AluOp::Shr,
            Op::IUshr => AluOp::Ushr,
            Op::IAnd => AluOp::And,
            Op::IOr => AluOp::Or,
            Op::IXor => AluOp::Xor,
            _ => unreachable!("not a binary ALU op"),
        }
    }

    fn run(&mut self) {
        for i in 0..self.ops.len() {
            let (pc, ref op, _) = self.ops[i];
            if self.leader[pc as usize] {
                // Values live across an incoming edge must exist in
                // registers before the merge; constant facts about
                // locals do not survive a merge.
                self.flush();
                self.stack.clear();
                self.local_ints.clear();
            }
            if self.skip_next_store {
                // This store was fused into the preceding ALU
                // instruction (kind already set to Covered).
                self.skip_next_store = false;
                continue;
            }
            match *op {
                Op::Nop => {}
                Op::IConst(v) => self.stack.push(Abs::Const { pc, val: v }),
                Op::AConstNull => self.stack.push(Abs::Null { pc }),
                Op::ILoad(n) => {
                    if let Some(v) = self.local_ints.get(n) {
                        // Redundant-load elimination: the local's
                        // value is known in this block.
                        self.stats.loads_forwarded += 1;
                        self.stack.push(Abs::Const { pc, val: v });
                    } else {
                        self.stack.push(Abs::LoadI { pc, n });
                    }
                }
                Op::ALoad(n) => self.stack.push(Abs::LoadA { pc, n }),
                Op::IStore(n) => {
                    let e = self.pop();
                    let known = match &e {
                        Abs::Const { val, .. } => Some(*val),
                        _ => None,
                    };
                    let src = self.fuse(e);
                    self.exec(
                        pc,
                        IrInst::StoreLocal {
                            ty: Ty::Int,
                            n: n.into(),
                            src,
                        },
                    );
                    match known {
                        Some(v) => self.local_ints.set(n, v),
                        None => self.local_ints.kill(n),
                    }
                }
                Op::AStore(n) => {
                    let e = self.pop();
                    let src = self.fuse(e);
                    self.exec(
                        pc,
                        IrInst::StoreLocal {
                            ty: Ty::Ref,
                            n: n.into(),
                            src,
                        },
                    );
                    // Locals share one slot space; a ref store kills
                    // any known int constant in that slot.
                    self.local_ints.kill(n);
                }
                Op::Pop => {
                    // Dropping a register is free; a dropped deferred
                    // producer is dead code and stays elided.
                    let _ = self.pop();
                }
                Op::Dup => {
                    let e = self.pop();
                    self.materialize(&e);
                    self.stack.push(Abs::Opaque);
                    self.stack.push(Abs::Opaque);
                }
                Op::DupX1 => {
                    let top = self.pop();
                    let under = self.pop();
                    self.materialize(&under);
                    self.materialize(&top);
                    self.stack.push(Abs::Opaque);
                    self.stack.push(Abs::Opaque);
                    self.stack.push(Abs::Opaque);
                }
                Op::Swap => {
                    let top = self.pop();
                    let under = self.pop();
                    self.materialize(&under);
                    self.materialize(&top);
                    self.stack.push(Abs::Opaque);
                    self.stack.push(Abs::Opaque);
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
                    let b = self.pop();
                    let a = self.pop();
                    if let (Abs::Const { val: av, .. }, Abs::Const { val: bv, .. }) = (&a, &b) {
                        if let Some(val) = Self::fold(op, *av, *bv) {
                            // Both producers die elided; this pc
                            // becomes the deferred folded constant.
                            self.stats.folded += 1;
                            self.stack.push(Abs::Const { pc, val });
                            continue;
                        }
                    }
                    let bsrc = self.fuse(b);
                    let asrc = self.fuse(a);
                    let dst = self.fused_store_dst(i);
                    self.exec(
                        pc,
                        IrInst::Alu {
                            op: Self::alu_op(op),
                            a: asrc,
                            b: bsrc,
                            dst,
                        },
                    );
                    if dst == Dst::Stack {
                        self.stack.push(Abs::Opaque);
                    }
                }
                Op::INeg => {
                    let a = self.pop();
                    if let Abs::Const { val, .. } = a {
                        self.stats.folded += 1;
                        self.stack.push(Abs::Const {
                            pc,
                            val: val.wrapping_neg(),
                        });
                        continue;
                    }
                    let asrc = self.fuse(a);
                    let dst = self.fused_store_dst(i);
                    self.exec(pc, IrInst::Neg { a: asrc, dst });
                    if dst == Dst::Stack {
                        self.stack.push(Abs::Opaque);
                    }
                }
                Op::IInc(n, d) => {
                    self.exec(
                        pc,
                        IrInst::Inc {
                            n: n.into(),
                            delta: d,
                        },
                    );
                    if let Some(v) = self.local_ints.get(n) {
                        self.local_ints.set(n, v.wrapping_add(i32::from(d)));
                    }
                }
                Op::If(cond, target) => {
                    let a = self.pop();
                    let asrc = self.fuse(a);
                    self.exec(
                        pc,
                        IrInst::CmpBr {
                            cond,
                            a: asrc,
                            b: Src::Imm(0),
                            target,
                        },
                    );
                    self.flush();
                }
                Op::IfICmp(cond, target) => {
                    let b = self.pop();
                    let a = self.pop();
                    let bsrc = self.fuse(b);
                    let asrc = self.fuse(a);
                    self.exec(
                        pc,
                        IrInst::CmpBr {
                            cond,
                            a: asrc,
                            b: bsrc,
                            target,
                        },
                    );
                    self.flush();
                }
                Op::IfNull(target) | Op::IfNonNull(target) => {
                    let cond = if matches!(op, Op::IfNull(_)) {
                        RefCond::IsNull
                    } else {
                        RefCond::NonNull
                    };
                    let a = self.pop();
                    let asrc = self.fuse(a);
                    self.exec(
                        pc,
                        IrInst::RefBr {
                            cond,
                            a: asrc,
                            b: Src::Null,
                            target,
                        },
                    );
                    self.flush();
                }
                Op::IfACmpEq(target) | Op::IfACmpNe(target) => {
                    let cond = if matches!(op, Op::IfACmpEq(_)) {
                        RefCond::CmpEq
                    } else {
                        RefCond::CmpNe
                    };
                    let b = self.pop();
                    let a = self.pop();
                    let bsrc = self.fuse(b);
                    let asrc = self.fuse(a);
                    self.exec(
                        pc,
                        IrInst::RefBr {
                            cond,
                            a: asrc,
                            b: bsrc,
                            target,
                        },
                    );
                    self.flush();
                }
                Op::Goto(target) => {
                    // Deferred values are live across the jump.
                    self.flush();
                    self.exec(pc, IrInst::Br { target });
                }
                Op::TableSwitch {
                    low,
                    default,
                    ref targets,
                } => {
                    let k = self.pop();
                    let key = self.fuse(k);
                    self.flush();
                    self.exec(
                        pc,
                        IrInst::Switch {
                            low,
                            default,
                            targets: targets.clone(),
                            key,
                        },
                    );
                }
                Op::New(cp) => {
                    self.exec(pc, IrInst::New { cp: cp.0 });
                    self.stack.push(Abs::Opaque);
                }
                Op::NewArray(kind) => {
                    let l = self.pop();
                    let len = self.fuse(l);
                    self.exec(pc, IrInst::NewArray { kind, len });
                    self.stack.push(Abs::Opaque);
                }
                Op::GetField(cp) => {
                    let o = self.pop();
                    let obj = self.fuse(o);
                    self.exec(pc, IrInst::GetField { cp: cp.0, obj });
                    self.stack.push(Abs::Opaque);
                }
                Op::PutField(cp) => {
                    let v = self.pop();
                    let o = self.pop();
                    let val = self.fuse(v);
                    let obj = self.fuse(o);
                    self.exec(pc, IrInst::PutField { cp: cp.0, obj, val });
                }
                Op::GetStatic(cp) => {
                    self.exec(pc, IrInst::GetStatic { cp: cp.0 });
                    self.stack.push(Abs::Opaque);
                }
                Op::PutStatic(cp) => {
                    let v = self.pop();
                    let val = self.fuse(v);
                    self.exec(pc, IrInst::PutStatic { cp: cp.0, val });
                }
                Op::ArrayLength => {
                    let a = self.pop();
                    let arr = self.fuse(a);
                    self.exec(pc, IrInst::ArrayLength { arr });
                    self.stack.push(Abs::Opaque);
                }
                Op::ArrLoad(kind) => {
                    let i_ = self.pop();
                    let a = self.pop();
                    let idx = self.fuse(i_);
                    let arr = self.fuse(a);
                    self.exec(pc, IrInst::ArrLoad { kind, arr, idx });
                    self.stack.push(Abs::Opaque);
                }
                Op::ArrStore(kind) => {
                    let v = self.pop();
                    let i_ = self.pop();
                    let a = self.pop();
                    let val = self.fuse(v);
                    let idx = self.fuse(i_);
                    let arr = self.fuse(a);
                    self.exec(
                        pc,
                        IrInst::ArrStore {
                            kind,
                            arr,
                            idx,
                            val,
                        },
                    );
                }
                Op::InvokeStatic(cp) | Op::InvokeVirtual(cp) | Op::InvokeSpecial(cp) => {
                    let kind = match op {
                        Op::InvokeStatic(_) => CallKind::Static,
                        Op::InvokeVirtual(_) => CallKind::Virtual,
                        _ => CallKind::Special,
                    };
                    // Arguments must be materialized for the call;
                    // the callee cannot touch caller locals, so
                    // constant facts survive. Argument count is a
                    // pool property, so the abstract stack resets
                    // (everything on it is opaque by now anyway).
                    self.flush();
                    self.stack.clear();
                    self.exec(pc, IrInst::Call { kind, cp: cp.0 });
                }
                Op::Return => {
                    // Anything still deferred dies with the frame.
                    self.exec(pc, IrInst::Ret { val: None });
                }
                Op::IReturn | Op::AReturn => {
                    let ty = if matches!(op, Op::IReturn) {
                        Ty::Int
                    } else {
                        Ty::Ref
                    };
                    let v = self.pop();
                    let src = self.fuse(v);
                    self.exec(
                        pc,
                        IrInst::Ret {
                            val: Some((ty, src)),
                        },
                    );
                }
                Op::MonitorEnter | Op::MonitorExit => {
                    // Synchronization is a block boundary for the
                    // optimizer: materialize everything first.
                    self.flush();
                    let _ = self.pop();
                    self.exec(
                        pc,
                        IrInst::Monitor {
                            enter: matches!(op, Op::MonitorEnter),
                            obj: Src::Stack,
                        },
                    );
                }
            }
            if !op.falls_through() {
                self.stack.clear();
                self.local_ints.clear();
            }
        }
    }
}

/// Lowers a verified method body into its register IR.
///
/// # Errors
///
/// Returns an error only when `code` is not decodable; verified
/// methods always lower.
pub fn lower(code: &[u8]) -> Result<IrMethod, BytecodeError> {
    let mut ops = Vec::new();
    let mut pc = 0usize;
    while pc < code.len() {
        let (op, len) = Op::decode(code, pc)?;
        ops.push((pc as u32, op, len));
        pc += len;
    }
    let mut leader = vec![false; code.len().max(1)];
    leader[0] = true;
    for (_, op, _) in &ops {
        for t in op.branch_targets() {
            if let Some(slot) = leader.get_mut(t as usize) {
                *slot = true;
            }
        }
    }
    let mut l = Lowerer {
        ops: &ops,
        leader,
        kind: vec![Kind::Elided; code.len()],
        insts: Vec::new(),
        stack: Vec::new(),
        local_ints: LocalConsts::new(),
        skip_next_store: false,
        stats: LowerStats::default(),
    };
    l.run();
    let mut stats = l.stats;
    let kind = l.kind;
    let mut insts = l.insts;

    // Materialization can emit a producer's instruction after later
    // pcs already emitted theirs; restore pc order (one inst per pc).
    insts.sort_by_key(|(pc, _)| *pc);

    // Assign word offsets and build the dense plan.
    let mut plan = vec![PcPlan::Elided; code.len()];
    let mut word = 0u32;
    for (pc, inst) in &insts {
        let words = inst.words();
        plan[*pc as usize] = PcPlan::Exec {
            word_off: word,
            words,
            opcode: inst.opcode(),
        };
        word += u32::from(words);
    }
    for (pc, _, _) in &ops {
        if kind[*pc as usize] == Kind::Covered {
            plan[*pc as usize] = PcPlan::Covered;
        }
    }
    stats.bytecodes = ops.len() as u32;
    stats.total_words = word;
    for (pc, _, _) in &ops {
        match plan[*pc as usize] {
            PcPlan::Exec { .. } => stats.ir_insts += 1,
            PcPlan::Covered => stats.covered += 1,
            PcPlan::Elided => stats.elided += 1,
        }
    }

    // Branch-target map: word offset of the first Exec pc >= each pc.
    let mut exec_word = vec![word; code.len()];
    let mut next = word;
    for p in (0..code.len()).rev() {
        if let PcPlan::Exec { word_off, .. } = plan[p] {
            next = word_off;
        }
        exec_word[p] = next;
    }

    Ok(IrMethod {
        insts,
        stats,
        plan,
        exec_word,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jrt_bytecode::Cond;

    fn asm(ops: &[Op]) -> Vec<u8> {
        let mut code = Vec::new();
        for op in ops {
            op.encode(&mut code);
        }
        code
    }

    /// pc of the `i`th instruction in `ops`.
    fn pc_of(ops: &[Op], i: usize) -> u32 {
        let mut buf = Vec::new();
        let mut pc = 0u32;
        for op in &ops[..i] {
            buf.clear();
            op.encode(&mut buf);
            pc += buf.len() as u32;
        }
        pc
    }

    #[test]
    fn quad_fuses_to_one_inst() {
        // iload 0; iload 1; iadd; istore 2 -> add l0, l1 -> l2
        let ops = [
            Op::ILoad(0),
            Op::ILoad(1),
            Op::IAdd,
            Op::IStore(2),
            Op::Return,
        ];
        let ir = lower(&asm(&ops)).unwrap();
        assert_eq!(ir.insts.len(), 2);
        assert_eq!(
            ir.insts[0].1,
            IrInst::Alu {
                op: AluOp::Add,
                a: Src::Local(0),
                b: Src::Local(1),
                dst: Dst::Local(2),
            }
        );
        assert_eq!(ir.insts[1].1, IrInst::Ret { val: None });
        // Loads are covered (their memory reads still happen); the
        // store is covered by the ALU's fused destination.
        assert_eq!(ir.plan_at(pc_of(&ops, 0)), PcPlan::Covered);
        assert_eq!(ir.plan_at(pc_of(&ops, 1)), PcPlan::Covered);
        assert!(matches!(ir.plan_at(pc_of(&ops, 2)), PcPlan::Exec { .. }));
        assert_eq!(ir.plan_at(pc_of(&ops, 3)), PcPlan::Covered);
        assert_eq!(ir.stats.ir_insts, 2);
        assert_eq!(ir.stats.covered, 3);
    }

    #[test]
    fn constants_fold_and_forward() {
        // iconst 6; iconst 7; imul; istore 0; iload 0; ireturn
        // folds to: st.i #42 -> l0; ret.i #42
        let ops = [
            Op::IConst(6),
            Op::IConst(7),
            Op::IMul,
            Op::IStore(0),
            Op::ILoad(0),
            Op::IReturn,
        ];
        let ir = lower(&asm(&ops)).unwrap();
        assert_eq!(ir.insts.len(), 2);
        assert_eq!(
            ir.insts[0].1,
            IrInst::StoreLocal {
                ty: Ty::Int,
                n: 0,
                src: Src::Imm(42),
            }
        );
        assert_eq!(
            ir.insts[1].1,
            IrInst::Ret {
                val: Some((Ty::Int, Src::Imm(42))),
            }
        );
        assert_eq!(ir.stats.folded, 1);
        assert_eq!(ir.stats.loads_forwarded, 1);
        // Both iconst pcs and the imul and iload pcs are gone.
        assert_eq!(ir.stats.elided, 4);
    }

    #[test]
    fn division_by_zero_never_folds() {
        let ops = [Op::IConst(1), Op::IConst(0), Op::IDiv, Op::Pop, Op::Return];
        let ir = lower(&asm(&ops)).unwrap();
        // The div must remain an executable instruction (it traps).
        assert!(ir
            .insts
            .iter()
            .any(|(_, i)| matches!(i, IrInst::Alu { op: AluOp::Div, .. })));
        assert_eq!(ir.stats.folded, 0);
    }

    #[test]
    fn deferral_stops_at_leaders() {
        // iconst 5; L(goto target): istore 0 — the constant cannot
        // fuse across the leader, so it materializes.
        let ops = [
            Op::IConst(5),
            Op::Goto(10), // pc 5, len 5 -> target 10 = istore pc
            Op::IStore(0),
            Op::Return,
        ];
        let ir = lower(&asm(&ops)).unwrap();
        assert_eq!(
            ir.insts.iter().map(|(_, i)| i.clone()).collect::<Vec<_>>(),
            vec![
                IrInst::LoadImm { imm: 5 },
                IrInst::Br { target: 10 },
                IrInst::StoreLocal {
                    ty: Ty::Int,
                    n: 0,
                    src: Src::Stack,
                },
                IrInst::Ret { val: None },
            ]
        );
    }

    #[test]
    fn branch_operands_fuse() {
        // iload 0; iconst 10; if_icmplt T -> br.lt l0, #10
        let ops = [
            Op::ILoad(0),
            Op::IConst(10),
            Op::IfICmp(Cond::Lt, 0),
            Op::Return,
        ];
        let ir = lower(&asm(&ops)).unwrap();
        assert_eq!(
            ir.insts[0].1,
            IrInst::CmpBr {
                cond: Cond::Lt,
                a: Src::Local(0),
                b: Src::Imm(10),
                target: 0,
            }
        );
    }

    #[test]
    fn dead_constant_is_elided() {
        let ops = [Op::IConst(99), Op::Pop, Op::Return];
        let ir = lower(&asm(&ops)).unwrap();
        assert_eq!(ir.insts.len(), 1);
        assert_eq!(ir.plan_at(0), PcPlan::Elided);
        assert_eq!(ir.plan_at(pc_of(&ops, 1)), PcPlan::Elided);
    }

    #[test]
    fn lowering_is_deterministic() {
        let ops = [
            Op::ILoad(0),
            Op::IConst(3),
            Op::IAdd,
            Op::IStore(1),
            Op::ILoad(1),
            Op::If(Cond::Gt, 0),
            Op::Return,
        ];
        let code = asm(&ops);
        let a = lower(&code).unwrap();
        let b = lower(&code).unwrap();
        assert_eq!(a.insts, b.insts);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.encode_words(), b.encode_words());
        assert_eq!(a.disasm(), b.disasm());
    }

    #[test]
    fn every_pc_has_exactly_one_plan_state() {
        let ops = [
            Op::IConst(1),
            Op::IStore(0),
            Op::ILoad(0),
            Op::IConst(100),
            Op::IfICmp(Cond::Ge, 29),
            Op::IInc(0, 1),
            Op::Goto(7),
            Op::Return,
        ];
        let code = asm(&ops);
        let ir = lower(&code).unwrap();
        let mut pc = 0usize;
        let mut seen = 0;
        while pc < code.len() {
            let (_, len) = Op::decode(&code, pc).unwrap();
            // plan_at never panics and each pc maps to one state.
            let _ = ir.plan_at(pc as u32);
            seen += 1;
            pc += len;
        }
        assert_eq!(seen as u32, ir.stats.bytecodes);
        assert_eq!(
            ir.stats.ir_insts + ir.stats.covered + ir.stats.elided,
            ir.stats.bytecodes
        );
        assert_eq!(ir.stats.ir_insts as usize, ir.insts.len());
    }

    #[test]
    fn word_offsets_are_dense_and_targets_resolve() {
        let ops = [
            Op::ILoad(0),
            Op::If(Cond::Eq, 8), // target = pc of iinc
            Op::IInc(0, -1),
            Op::Return,
        ];
        let ir = lower(&asm(&ops)).unwrap();
        let words = ir.encode_words();
        assert_eq!(words.len() as u32, ir.total_words());
        let mut expect = 0u32;
        for (pc, inst) in &ir.insts {
            let PcPlan::Exec {
                word_off, words, ..
            } = ir.plan_at(*pc)
            else {
                panic!("inst pc must be Exec");
            };
            assert_eq!(word_off, expect);
            assert_eq!(words, inst.words());
            expect += u32::from(words);
        }
        // The branch target (pc 8, the iinc) resolves to its word.
        let PcPlan::Exec { word_off, .. } = ir.plan_at(8) else {
            panic!("iinc must be Exec");
        };
        assert_eq!(ir.word_target(8), word_off);
        // Past the end resolves to total_words.
        assert_eq!(ir.word_target(1000), ir.total_words());
    }

    #[test]
    fn encoded_stream_decodes_back() {
        let ops = [
            Op::ILoad(0),
            Op::ILoad(1),
            Op::IAdd,
            Op::IStore(2),
            Op::ILoad(2),
            Op::TableSwitch {
                low: 0,
                default: 28,
                targets: vec![28, 28],
            },
            Op::Return,
        ];
        let ir = lower(&asm(&ops)).unwrap();
        let mut bytes = Vec::new();
        for (_, inst) in &ir.insts {
            inst.encode_into(&mut bytes);
        }
        let mut off = 0usize;
        let mut decoded = Vec::new();
        while off < bytes.len() {
            let (inst, used) = IrInst::decode(&bytes, off).expect("stream decodes");
            decoded.push(inst);
            off += used;
        }
        assert_eq!(
            decoded,
            ir.insts.iter().map(|(_, i)| i.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn dup_materializes_then_renames() {
        // iconst 4; dup; istore 0; istore 1 — the dup forces the
        // constant into a register; both stores are plain.
        let ops = [
            Op::IConst(4),
            Op::Dup,
            Op::IStore(0),
            Op::IStore(1),
            Op::Return,
        ];
        let ir = lower(&asm(&ops)).unwrap();
        assert_eq!(ir.insts[0].1, IrInst::LoadImm { imm: 4 });
        assert_eq!(ir.plan_at(pc_of(&ops, 1)), PcPlan::Elided);
        assert_eq!(
            ir.insts[1].1,
            IrInst::StoreLocal {
                ty: Ty::Int,
                n: 0,
                src: Src::Stack,
            }
        );
    }
}
