//! The native instruction event model.
//!
//! Every architectural study in this project is trace-driven: execution
//! engines emit one [`NativeInst`] per simulated native (SPARC-like)
//! instruction. An event carries everything the downstream simulators
//! need — the program counter, an instruction class, an optional data
//! memory reference, optional control-transfer information, small
//! virtual register operands (for dependence modelling in the ILP
//! simulator), and the execution [`Phase`] that produced it.

use crate::Addr;
use std::fmt;

/// A virtual architectural register id.
///
/// The synthetic ISA models a RISC register file of [`NUM_REGS`]
/// integer registers. Register ids only matter to the ILP simulator,
/// which uses them to reconstruct true data-dependence chains.
pub type Reg = u8;

/// Number of architectural registers in the synthetic ISA.
pub const NUM_REGS: usize = 32;

/// Classification of a native instruction.
///
/// The classes mirror the categories the paper reports in its
/// instruction-mix study (Figure 2): ALU operations, memory accesses,
/// and the control-transfer family split by directness, which is what
/// distinguishes the interpreter (indirect-jump heavy) from JIT output
/// (direct branches and calls).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InstClass {
    /// Simple integer ALU operation (add, sub, logical, shift, compare).
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide (long latency).
    IntDiv,
    /// Floating-point/fixed-point arithmetic unit operation.
    FpAlu,
    /// Load from data memory.
    Load,
    /// Store to data memory.
    Store,
    /// Conditional branch (direction predicted by the branch predictor).
    CondBranch,
    /// Unconditional direct jump.
    Jump,
    /// Register-indirect jump (e.g. the interpreter `switch` dispatch).
    IndirectJump,
    /// Direct call.
    Call,
    /// Register-indirect call (e.g. virtual method dispatch).
    IndirectCall,
    /// Return from call.
    Ret,
    /// No-operation / pipeline filler.
    Nop,
}

impl InstClass {
    /// All instruction classes, in display order.
    pub const ALL: [InstClass; 13] = [
        InstClass::IntAlu,
        InstClass::IntMul,
        InstClass::IntDiv,
        InstClass::FpAlu,
        InstClass::Load,
        InstClass::Store,
        InstClass::CondBranch,
        InstClass::Jump,
        InstClass::IndirectJump,
        InstClass::Call,
        InstClass::IndirectCall,
        InstClass::Ret,
        InstClass::Nop,
    ];

    /// This class's position in [`InstClass::ALL`], which lists the
    /// classes in declaration order.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Returns `true` for any control-transfer instruction
    /// (branch, jump, call, or return).
    pub fn is_transfer(self) -> bool {
        matches!(
            self,
            InstClass::CondBranch
                | InstClass::Jump
                | InstClass::IndirectJump
                | InstClass::Call
                | InstClass::IndirectCall
                | InstClass::Ret
        )
    }

    /// Returns `true` if the transfer target comes from a register
    /// (and therefore needs target prediction rather than decode-time
    /// target computation).
    pub fn is_indirect(self) -> bool {
        matches!(
            self,
            InstClass::IndirectJump | InstClass::IndirectCall | InstClass::Ret
        )
    }

    /// Returns `true` for loads and stores.
    pub fn is_mem(self) -> bool {
        matches!(self, InstClass::Load | InstClass::Store)
    }

    /// Short mnemonic used in table output.
    pub fn mnemonic(self) -> &'static str {
        match self {
            InstClass::IntAlu => "alu",
            InstClass::IntMul => "mul",
            InstClass::IntDiv => "div",
            InstClass::FpAlu => "fpu",
            InstClass::Load => "ld",
            InstClass::Store => "st",
            InstClass::CondBranch => "br",
            InstClass::Jump => "jmp",
            InstClass::IndirectJump => "ijmp",
            InstClass::Call => "call",
            InstClass::IndirectCall => "icall",
            InstClass::Ret => "ret",
            InstClass::Nop => "nop",
        }
    }
}

impl fmt::Display for InstClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Whether a data memory access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// A data-memory reference attached to a load or store instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// Simulated virtual address accessed.
    pub addr: Addr,
    /// Access size in bytes (1, 2, 4, or 8).
    pub size: u8,
    /// Read or write.
    pub kind: AccessKind,
}

/// Control-transfer information attached to branch/jump/call/return
/// instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CtrlInfo {
    /// Actual (resolved) target of the transfer.
    pub target: Addr,
    /// Whether the transfer was taken. Always `true` for unconditional
    /// transfers; meaningful for [`InstClass::CondBranch`].
    pub taken: bool,
}

/// The part of the runtime that produced an instruction.
///
/// Phase attribution is what lets the cache studies isolate the
/// *translate* portion of JIT execution (Figure 5 of the paper) from the
/// execution of generated code, and lets Figure 1 split JIT time into
/// translation vs. execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Interpreter dispatch loop: opcode fetch + `switch` indirect jump.
    InterpDispatch,
    /// Interpreter bytecode handler body.
    InterpHandler,
    /// JIT translator: reading bytecodes, code generation, installation.
    Translate,
    /// Execution of JIT-generated native code.
    NativeExec,
    /// VM runtime services (frame setup, allocation, intrinsics).
    Runtime,
    /// Garbage collection.
    Gc,
    /// Monitor enter/exit paths.
    Sync,
    /// Class loading and resolution.
    ClassLoad,
    /// Ahead-of-time compiled "C-like" application code (used by the
    /// native comparison mode for Figure 4).
    NativeApp,
    /// Generational-GC write barrier (card mark) work, emitted inline
    /// at reference stores. Kept separate from [`Phase::Gc`] so the
    /// cache studies can attribute mutator barrier overhead apart
    /// from collection work.
    GcBarrier,
}

impl Phase {
    /// All phases, in display order. `GcBarrier` stays last: the tape
    /// format encodes a phase as its index in this array, so new
    /// phases must append.
    pub const ALL: [Phase; 10] = [
        Phase::InterpDispatch,
        Phase::InterpHandler,
        Phase::Translate,
        Phase::NativeExec,
        Phase::Runtime,
        Phase::Gc,
        Phase::Sync,
        Phase::ClassLoad,
        Phase::NativeApp,
        Phase::GcBarrier,
    ];

    /// This phase's position in [`Phase::ALL`], which lists the phases
    /// in declaration order.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Returns `true` if this phase belongs to the JIT translator
    /// (the "translate portion" isolated in Figures 1 and 5).
    pub fn is_translate(self) -> bool {
        matches!(self, Phase::Translate)
    }

    /// Short label used in table output.
    pub fn label(self) -> &'static str {
        match self {
            Phase::InterpDispatch => "dispatch",
            Phase::InterpHandler => "handler",
            Phase::Translate => "translate",
            Phase::NativeExec => "native",
            Phase::Runtime => "runtime",
            Phase::Gc => "gc",
            Phase::Sync => "sync",
            Phase::ClassLoad => "classload",
            Phase::NativeApp => "nativeapp",
            Phase::GcBarrier => "gcbarrier",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One simulated native instruction event.
///
/// Constructed by the execution engines through the shorthand
/// constructors ([`NativeInst::alu`], [`NativeInst::load`],
/// [`NativeInst::branch`], …) and consumed by [`TraceSink`]s.
///
/// [`TraceSink`]: crate::TraceSink
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NativeInst {
    /// Simulated program counter of this instruction.
    pub pc: Addr,
    /// Instruction class.
    pub class: InstClass,
    /// Data memory reference, for loads and stores.
    pub mem: Option<MemRef>,
    /// Control-transfer outcome, for transfer instructions.
    pub ctrl: Option<CtrlInfo>,
    /// Destination register, if any.
    pub dst: Option<Reg>,
    /// First source register, if any.
    pub src1: Option<Reg>,
    /// Second source register, if any.
    pub src2: Option<Reg>,
    /// Which part of the runtime emitted this instruction.
    pub phase: Phase,
}

impl NativeInst {
    /// Creates a bare instruction of the given class with no operands.
    pub fn new(pc: Addr, class: InstClass, phase: Phase) -> Self {
        NativeInst {
            pc,
            class,
            mem: None,
            ctrl: None,
            dst: None,
            src1: None,
            src2: None,
            phase,
        }
    }

    /// Creates an integer ALU instruction.
    pub fn alu(pc: Addr, phase: Phase) -> Self {
        Self::new(pc, InstClass::IntAlu, phase)
    }

    /// Creates a load of `size` bytes from `addr`.
    pub fn load(pc: Addr, addr: Addr, size: u8, phase: Phase) -> Self {
        let mut i = Self::new(pc, InstClass::Load, phase);
        i.mem = Some(MemRef {
            addr,
            size,
            kind: AccessKind::Read,
        });
        i
    }

    /// Creates a store of `size` bytes to `addr`.
    pub fn store(pc: Addr, addr: Addr, size: u8, phase: Phase) -> Self {
        let mut i = Self::new(pc, InstClass::Store, phase);
        i.mem = Some(MemRef {
            addr,
            size,
            kind: AccessKind::Write,
        });
        i
    }

    /// Creates a conditional branch with resolved direction and target.
    pub fn branch(pc: Addr, target: Addr, taken: bool, phase: Phase) -> Self {
        let mut i = Self::new(pc, InstClass::CondBranch, phase);
        i.ctrl = Some(CtrlInfo { target, taken });
        i
    }

    /// Creates an unconditional direct jump.
    pub fn jump(pc: Addr, target: Addr, phase: Phase) -> Self {
        let mut i = Self::new(pc, InstClass::Jump, phase);
        i.ctrl = Some(CtrlInfo {
            target,
            taken: true,
        });
        i
    }

    /// Creates a register-indirect jump (e.g. interpreter dispatch).
    pub fn indirect_jump(pc: Addr, target: Addr, phase: Phase) -> Self {
        let mut i = Self::new(pc, InstClass::IndirectJump, phase);
        i.ctrl = Some(CtrlInfo {
            target,
            taken: true,
        });
        i
    }

    /// Creates a direct call.
    pub fn call(pc: Addr, target: Addr, phase: Phase) -> Self {
        let mut i = Self::new(pc, InstClass::Call, phase);
        i.ctrl = Some(CtrlInfo {
            target,
            taken: true,
        });
        i
    }

    /// Creates a register-indirect call (virtual dispatch).
    pub fn indirect_call(pc: Addr, target: Addr, phase: Phase) -> Self {
        let mut i = Self::new(pc, InstClass::IndirectCall, phase);
        i.ctrl = Some(CtrlInfo {
            target,
            taken: true,
        });
        i
    }

    /// Creates a return to `target`.
    pub fn ret(pc: Addr, target: Addr, phase: Phase) -> Self {
        let mut i = Self::new(pc, InstClass::Ret, phase);
        i.ctrl = Some(CtrlInfo {
            target,
            taken: true,
        });
        i
    }

    /// Sets the destination register (builder style).
    pub fn with_dst(mut self, r: Reg) -> Self {
        self.dst = Some(r % NUM_REGS as Reg);
        self
    }

    /// Sets one or two source registers (builder style).
    pub fn with_srcs(mut self, a: Reg, b: Option<Reg>) -> Self {
        self.src1 = Some(a % NUM_REGS as Reg);
        self.src2 = b.map(|r| r % NUM_REGS as Reg);
        self
    }

    /// Returns `true` if this instruction writes data memory.
    pub fn is_write(&self) -> bool {
        matches!(
            self.mem,
            Some(MemRef {
                kind: AccessKind::Write,
                ..
            })
        )
    }
}

impl fmt::Display for NativeInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x} {} [{}]", self.pc, self.class, self.phase)?;
        if let Some(m) = self.mem {
            write!(
                f,
                " {}{:#x}/{}",
                if m.kind == AccessKind::Write {
                    "W"
                } else {
                    "R"
                },
                m.addr,
                m.size
            )?;
        }
        if let Some(c) = self.ctrl {
            write!(f, " ->{:#x}{}", c.target, if c.taken { "" } else { " nt" })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_classification() {
        assert!(InstClass::CondBranch.is_transfer());
        assert!(InstClass::IndirectJump.is_transfer());
        assert!(InstClass::Call.is_transfer());
        assert!(InstClass::Ret.is_transfer());
        assert!(!InstClass::IntAlu.is_transfer());
        assert!(!InstClass::Load.is_transfer());
    }

    #[test]
    fn indirect_classification() {
        assert!(InstClass::IndirectJump.is_indirect());
        assert!(InstClass::IndirectCall.is_indirect());
        assert!(InstClass::Ret.is_indirect());
        assert!(!InstClass::CondBranch.is_indirect());
        assert!(!InstClass::Jump.is_indirect());
        assert!(!InstClass::Call.is_indirect());
    }

    #[test]
    fn mem_classification() {
        assert!(InstClass::Load.is_mem());
        assert!(InstClass::Store.is_mem());
        assert!(!InstClass::IntAlu.is_mem());
    }

    #[test]
    fn constructors_fill_fields() {
        let ld = NativeInst::load(0x100, 0x2000_0000, 4, Phase::InterpHandler);
        assert_eq!(ld.class, InstClass::Load);
        assert_eq!(
            ld.mem,
            Some(MemRef {
                addr: 0x2000_0000,
                size: 4,
                kind: AccessKind::Read
            })
        );
        assert!(!ld.is_write());

        let st = NativeInst::store(0x104, 0x2000_0004, 4, Phase::InterpHandler);
        assert!(st.is_write());

        let br = NativeInst::branch(0x108, 0x100, false, Phase::NativeExec);
        assert_eq!(
            br.ctrl,
            Some(CtrlInfo {
                target: 0x100,
                taken: false
            })
        );
    }

    #[test]
    fn register_builder_wraps_into_range() {
        let i = NativeInst::alu(0, Phase::Runtime)
            .with_dst(200)
            .with_srcs(40, Some(33));
        assert!(usize::from(i.dst.unwrap()) < NUM_REGS);
        assert!(usize::from(i.src1.unwrap()) < NUM_REGS);
        assert!(usize::from(i.src2.unwrap()) < NUM_REGS);
    }

    #[test]
    fn display_is_nonempty() {
        let i = NativeInst::indirect_jump(0x42, 0x1000, Phase::InterpDispatch);
        let s = i.to_string();
        assert!(s.contains("ijmp"));
        assert!(s.contains("dispatch"));
    }

    #[test]
    fn phase_translate_flag() {
        assert!(Phase::Translate.is_translate());
        assert!(!Phase::NativeExec.is_translate());
    }
}
