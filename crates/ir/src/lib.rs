//! Stack-to-register lowering for the 49-opcode stack ISA.
//!
//! The paper's instruction-mix analysis (Fig 2, Table 1) is framed
//! around a stack machine, where every value flows through push/pop
//! traffic and every bytecode pays a full dispatch. This crate lowers
//! verified stack bytecode into a register IR — the design point the
//! paper could not study in 2000 — so the VM can grow execution
//! engines whose dispatch and memory-traffic characteristics are
//! measurably different while the *semantic core stays the stack
//! machine's*: lowering produces a per-bytecode cost plan consumed by
//! the IR emitters, never an alternate executor, so `Observables`
//! are identical by construction.
//!
//! The pipeline (see [`lower`](fn@lower)):
//!
//! 1. **Stack map** — a single forward pass abstractly interprets the
//!    operand stack per extended basic block, tracking which stack
//!    slots hold deferrable producers (constants, local loads) and
//!    which integer locals hold known constants.
//! 2. **Constant folding** — ALU ops over two known constants fold at
//!    lowering time; the operand producers are elided and the ALU pc
//!    itself becomes a deferred constant.
//! 3. **Redundant-load elimination** — a load of a local whose value
//!    is a known constant within the block becomes a deferred
//!    constant instead of a memory read.
//! 4. **Superinstruction fusion** — deferred operands fuse into their
//!    consumer as typed [`Src`] operands (`load+load+add+store`
//!    collapses into one `add l0, l1 -> l2` IR instruction), and an
//!    ALU immediately followed by a store retires straight to the
//!    local.
//!
//! The result is an [`IrMethod`]: a pc-ordered list of [`IrInst`]
//! register instructions with a packed 4-byte-word encoding (flat
//! opcode byte plus operand bytes, in the style of rwasm's flat
//! `InstructionSet` and eval-rs's packed register words — see
//! SNIPPETS.md §1 and §3), and a dense per-pc [`PcPlan`] that tells
//! an execution engine, for every bytecode pc, whether it dispatches
//! an IR instruction ([`PcPlan::Exec`]), rides along inside a fused
//! neighbour ([`PcPlan::Covered`]), or was optimized away entirely
//! ([`PcPlan::Elided`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod inst;
mod lower;

pub use inst::{AluOp, CallKind, Dst, IrInst, RefCond, Src, Ty};
pub use lower::{lower, IrMethod, LowerStats, PcPlan};
