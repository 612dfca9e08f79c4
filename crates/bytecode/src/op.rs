//! Instruction set definition, encoding, and decoding.

use crate::error::BytecodeError;
use crate::pool::CpIndex;

/// Comparison condition for conditional branches, as in the JVM's
/// `if<cond>` / `if_icmp<cond>` families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Greater than or equal.
    Ge,
    /// Greater than.
    Gt,
    /// Less than or equal.
    Le,
}

impl Cond {
    /// Evaluates the condition on `lhs ? rhs`.
    pub fn eval(self, lhs: i32, rhs: i32) -> bool {
        match self {
            Cond::Eq => lhs == rhs,
            Cond::Ne => lhs != rhs,
            Cond::Lt => lhs < rhs,
            Cond::Ge => lhs >= rhs,
            Cond::Gt => lhs > rhs,
            Cond::Le => lhs <= rhs,
        }
    }

    fn code(self) -> u8 {
        match self {
            Cond::Eq => 0,
            Cond::Ne => 1,
            Cond::Lt => 2,
            Cond::Ge => 3,
            Cond::Gt => 4,
            Cond::Le => 5,
        }
    }

    fn from_code(c: u8) -> Option<Self> {
        Some(match c {
            0 => Cond::Eq,
            1 => Cond::Ne,
            2 => Cond::Lt,
            3 => Cond::Ge,
            4 => Cond::Gt,
            5 => Cond::Le,
            _ => return None,
        })
    }

    /// JVM-style mnemonic suffix (`eq`, `ne`, …).
    pub fn suffix(self) -> &'static str {
        match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Ge => "ge",
            Cond::Gt => "gt",
            Cond::Le => "le",
        }
    }
}

/// Array element kind. Determines the element size used when laying
/// out array storage in the simulated heap (which is what the paper's
/// line-size study, Figure 8, is sensitive to).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrayKind {
    /// 1-byte elements (`byte[]`).
    Byte,
    /// 2-byte elements (`char[]`).
    Char,
    /// 4-byte elements (`int[]`).
    Int,
    /// 4-byte reference elements (`Object[]`).
    Ref,
}

impl ArrayKind {
    /// Element size in bytes.
    pub fn elem_size(self) -> u32 {
        match self {
            ArrayKind::Byte => 1,
            ArrayKind::Char => 2,
            ArrayKind::Int | ArrayKind::Ref => 4,
        }
    }

    fn code(self) -> u8 {
        match self {
            ArrayKind::Byte => 0,
            ArrayKind::Char => 1,
            ArrayKind::Int => 2,
            ArrayKind::Ref => 3,
        }
    }

    fn from_code(c: u8) -> Option<Self> {
        Some(match c {
            0 => ArrayKind::Byte,
            1 => ArrayKind::Char,
            2 => ArrayKind::Int,
            3 => ArrayKind::Ref,
            _ => return None,
        })
    }

    /// Mnemonic prefix (`b`, `c`, `i`, `a`).
    pub fn prefix(self) -> &'static str {
        match self {
            ArrayKind::Byte => "b",
            ArrayKind::Char => "c",
            ArrayKind::Int => "i",
            ArrayKind::Ref => "a",
        }
    }
}

/// One bytecode instruction.
///
/// Branch targets are absolute byte offsets within the method's code
/// array. Constant-pool operands ([`CpIndex`]) refer to the enclosing
/// class's pool.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op {
    /// Do nothing.
    Nop,
    /// Push an integer constant.
    IConst(i32),
    /// Push the null reference.
    AConstNull,
    /// Push int local `n`.
    ILoad(u8),
    /// Pop into int local `n`.
    IStore(u8),
    /// Push reference local `n`.
    ALoad(u8),
    /// Pop into reference local `n`.
    AStore(u8),
    /// Discard the top of stack.
    Pop,
    /// Duplicate the top of stack.
    Dup,
    /// Duplicate the top of stack beneath the second element.
    DupX1,
    /// Swap the two top elements.
    Swap,
    /// Integer add.
    IAdd,
    /// Integer subtract.
    ISub,
    /// Integer multiply.
    IMul,
    /// Integer divide (traps on divide by zero).
    IDiv,
    /// Integer remainder (traps on divide by zero).
    IRem,
    /// Integer negate.
    INeg,
    /// Shift left.
    IShl,
    /// Arithmetic shift right.
    IShr,
    /// Logical shift right.
    IUshr,
    /// Bitwise and.
    IAnd,
    /// Bitwise or.
    IOr,
    /// Bitwise xor.
    IXor,
    /// Add an immediate to int local `n` without touching the stack.
    IInc(u8, i16),
    /// Branch if top-of-stack `<cond>` 0.
    If(Cond, u32),
    /// Branch comparing the two top ints.
    IfICmp(Cond, u32),
    /// Branch if top-of-stack reference is null.
    IfNull(u32),
    /// Branch if top-of-stack reference is non-null.
    IfNonNull(u32),
    /// Branch if the two top references are identical.
    IfACmpEq(u32),
    /// Branch if the two top references differ.
    IfACmpNe(u32),
    /// Unconditional branch.
    Goto(u32),
    /// Indexed jump table: pops a key, jumps to
    /// `targets[key - low]`, or `default` when out of range.
    TableSwitch {
        /// Lowest key covered by the table.
        low: i32,
        /// Target when the key is outside `[low, low + targets.len())`.
        default: u32,
        /// Jump targets for consecutive keys starting at `low`.
        targets: Vec<u32>,
    },
    /// Allocate an instance of the class named by the pool entry.
    New(CpIndex),
    /// Push field value: pops objectref.
    GetField(CpIndex),
    /// Store field value: pops objectref, value.
    PutField(CpIndex),
    /// Push a static field value.
    GetStatic(CpIndex),
    /// Pop into a static field.
    PutStatic(CpIndex),
    /// Allocate an array: pops length, pushes arrayref.
    NewArray(ArrayKind),
    /// Push the length of the popped arrayref.
    ArrayLength,
    /// Array load: pops arrayref, index; pushes element.
    ArrLoad(ArrayKind),
    /// Array store: pops arrayref, index, value.
    ArrStore(ArrayKind),
    /// Call a static method.
    InvokeStatic(CpIndex),
    /// Call a virtual method (dispatched on the receiver's class).
    InvokeVirtual(CpIndex),
    /// Call a method directly (constructors, private methods).
    InvokeSpecial(CpIndex),
    /// Return void.
    Return,
    /// Return an int.
    IReturn,
    /// Return a reference.
    AReturn,
    /// Enter the monitor of the popped objectref.
    MonitorEnter,
    /// Exit the monitor of the popped objectref.
    MonitorExit,
}

// Opcode byte values.
const OP_NOP: u8 = 0;
const OP_ICONST: u8 = 1;
const OP_ACONST_NULL: u8 = 2;
const OP_ILOAD: u8 = 3;
const OP_ISTORE: u8 = 4;
const OP_ALOAD: u8 = 5;
const OP_ASTORE: u8 = 6;
const OP_POP: u8 = 7;
const OP_DUP: u8 = 8;
const OP_DUP_X1: u8 = 9;
const OP_SWAP: u8 = 10;
const OP_IADD: u8 = 11;
const OP_ISUB: u8 = 12;
const OP_IMUL: u8 = 13;
const OP_IDIV: u8 = 14;
const OP_IREM: u8 = 15;
const OP_INEG: u8 = 16;
const OP_ISHL: u8 = 17;
const OP_ISHR: u8 = 18;
const OP_IUSHR: u8 = 19;
const OP_IAND: u8 = 20;
const OP_IOR: u8 = 21;
const OP_IXOR: u8 = 22;
const OP_IINC: u8 = 23;
const OP_IF: u8 = 24;
const OP_IF_ICMP: u8 = 25;
const OP_IFNULL: u8 = 26;
const OP_IFNONNULL: u8 = 27;
const OP_IF_ACMPEQ: u8 = 28;
const OP_IF_ACMPNE: u8 = 29;
const OP_GOTO: u8 = 30;
const OP_TABLESWITCH: u8 = 31;
const OP_NEW: u8 = 32;
const OP_GETFIELD: u8 = 33;
const OP_PUTFIELD: u8 = 34;
const OP_GETSTATIC: u8 = 35;
const OP_PUTSTATIC: u8 = 36;
const OP_NEWARRAY: u8 = 37;
const OP_ARRAYLENGTH: u8 = 38;
const OP_ARRLOAD: u8 = 39;
const OP_ARRSTORE: u8 = 40;
const OP_INVOKESTATIC: u8 = 41;
const OP_INVOKEVIRTUAL: u8 = 42;
const OP_INVOKESPECIAL: u8 = 43;
const OP_RETURN: u8 = 44;
const OP_IRETURN: u8 = 45;
const OP_ARETURN: u8 = 46;
const OP_MONITORENTER: u8 = 47;
const OP_MONITOREXIT: u8 = 48;

impl Op {
    /// Appends the byte encoding of this instruction to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Op::Nop => out.push(OP_NOP),
            Op::IConst(v) => {
                out.push(OP_ICONST);
                out.extend_from_slice(&v.to_be_bytes());
            }
            Op::AConstNull => out.push(OP_ACONST_NULL),
            Op::ILoad(n) => out.extend_from_slice(&[OP_ILOAD, *n]),
            Op::IStore(n) => out.extend_from_slice(&[OP_ISTORE, *n]),
            Op::ALoad(n) => out.extend_from_slice(&[OP_ALOAD, *n]),
            Op::AStore(n) => out.extend_from_slice(&[OP_ASTORE, *n]),
            Op::Pop => out.push(OP_POP),
            Op::Dup => out.push(OP_DUP),
            Op::DupX1 => out.push(OP_DUP_X1),
            Op::Swap => out.push(OP_SWAP),
            Op::IAdd => out.push(OP_IADD),
            Op::ISub => out.push(OP_ISUB),
            Op::IMul => out.push(OP_IMUL),
            Op::IDiv => out.push(OP_IDIV),
            Op::IRem => out.push(OP_IREM),
            Op::INeg => out.push(OP_INEG),
            Op::IShl => out.push(OP_ISHL),
            Op::IShr => out.push(OP_ISHR),
            Op::IUshr => out.push(OP_IUSHR),
            Op::IAnd => out.push(OP_IAND),
            Op::IOr => out.push(OP_IOR),
            Op::IXor => out.push(OP_IXOR),
            Op::IInc(n, d) => {
                out.extend_from_slice(&[OP_IINC, *n]);
                out.extend_from_slice(&d.to_be_bytes());
            }
            Op::If(c, t) => {
                out.extend_from_slice(&[OP_IF, c.code()]);
                out.extend_from_slice(&t.to_be_bytes());
            }
            Op::IfICmp(c, t) => {
                out.extend_from_slice(&[OP_IF_ICMP, c.code()]);
                out.extend_from_slice(&t.to_be_bytes());
            }
            Op::IfNull(t) => {
                out.push(OP_IFNULL);
                out.extend_from_slice(&t.to_be_bytes());
            }
            Op::IfNonNull(t) => {
                out.push(OP_IFNONNULL);
                out.extend_from_slice(&t.to_be_bytes());
            }
            Op::IfACmpEq(t) => {
                out.push(OP_IF_ACMPEQ);
                out.extend_from_slice(&t.to_be_bytes());
            }
            Op::IfACmpNe(t) => {
                out.push(OP_IF_ACMPNE);
                out.extend_from_slice(&t.to_be_bytes());
            }
            Op::Goto(t) => {
                out.push(OP_GOTO);
                out.extend_from_slice(&t.to_be_bytes());
            }
            Op::TableSwitch {
                low,
                default,
                targets,
            } => {
                out.push(OP_TABLESWITCH);
                out.extend_from_slice(&low.to_be_bytes());
                let count = u16::try_from(targets.len()).expect("switch table too large");
                out.extend_from_slice(&count.to_be_bytes());
                out.extend_from_slice(&default.to_be_bytes());
                for t in targets {
                    out.extend_from_slice(&t.to_be_bytes());
                }
            }
            Op::New(cp) => {
                out.push(OP_NEW);
                out.extend_from_slice(&cp.0.to_be_bytes());
            }
            Op::GetField(cp) => {
                out.push(OP_GETFIELD);
                out.extend_from_slice(&cp.0.to_be_bytes());
            }
            Op::PutField(cp) => {
                out.push(OP_PUTFIELD);
                out.extend_from_slice(&cp.0.to_be_bytes());
            }
            Op::GetStatic(cp) => {
                out.push(OP_GETSTATIC);
                out.extend_from_slice(&cp.0.to_be_bytes());
            }
            Op::PutStatic(cp) => {
                out.push(OP_PUTSTATIC);
                out.extend_from_slice(&cp.0.to_be_bytes());
            }
            Op::NewArray(k) => out.extend_from_slice(&[OP_NEWARRAY, k.code()]),
            Op::ArrayLength => out.push(OP_ARRAYLENGTH),
            Op::ArrLoad(k) => out.extend_from_slice(&[OP_ARRLOAD, k.code()]),
            Op::ArrStore(k) => out.extend_from_slice(&[OP_ARRSTORE, k.code()]),
            Op::InvokeStatic(cp) => {
                out.push(OP_INVOKESTATIC);
                out.extend_from_slice(&cp.0.to_be_bytes());
            }
            Op::InvokeVirtual(cp) => {
                out.push(OP_INVOKEVIRTUAL);
                out.extend_from_slice(&cp.0.to_be_bytes());
            }
            Op::InvokeSpecial(cp) => {
                out.push(OP_INVOKESPECIAL);
                out.extend_from_slice(&cp.0.to_be_bytes());
            }
            Op::Return => out.push(OP_RETURN),
            Op::IReturn => out.push(OP_IRETURN),
            Op::AReturn => out.push(OP_ARETURN),
            Op::MonitorEnter => out.push(OP_MONITORENTER),
            Op::MonitorExit => out.push(OP_MONITOREXIT),
        }
    }

    /// Decodes the instruction at byte offset `pc`.
    ///
    /// Returns the instruction and its encoded length in bytes.
    ///
    /// # Errors
    ///
    /// Returns an error if `pc` is out of range, the opcode byte is
    /// unknown, or the instruction's operands are truncated.
    pub fn decode(code: &[u8], pc: usize) -> Result<(Op, usize), BytecodeError> {
        Op::try_decode(code, pc).ok_or_else(|| decode_fault(code, pc))
    }

    /// [`Op::decode`] without the reason for a failure: `None` where
    /// `decode` returns an error. The VM's step loop decodes every
    /// bytecode it runs through this, so the success path carries no
    /// error value, and it is `#[inline]` so that it can inline across
    /// crates.
    #[inline]
    pub fn try_decode(code: &[u8], pc: usize) -> Option<(Op, usize)> {
        let byte = |i: usize| code.get(pc + i).copied();
        let u16_at = |i: usize| {
            let b = code.get(pc + i..pc + i + 2)?;
            Some(u16::from_be_bytes([b[0], b[1]]))
        };
        let u32_at = |i: usize| {
            let b = code.get(pc + i..pc + i + 4)?;
            Some(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
        };
        let i32_at = |i: usize| Some(u32_at(i)? as i32);

        Some(match byte(0)? {
            OP_NOP => (Op::Nop, 1),
            OP_ICONST => (Op::IConst(i32_at(1)?), 5),
            OP_ACONST_NULL => (Op::AConstNull, 1),
            OP_ILOAD => (Op::ILoad(byte(1)?), 2),
            OP_ISTORE => (Op::IStore(byte(1)?), 2),
            OP_ALOAD => (Op::ALoad(byte(1)?), 2),
            OP_ASTORE => (Op::AStore(byte(1)?), 2),
            OP_POP => (Op::Pop, 1),
            OP_DUP => (Op::Dup, 1),
            OP_DUP_X1 => (Op::DupX1, 1),
            OP_SWAP => (Op::Swap, 1),
            OP_IADD => (Op::IAdd, 1),
            OP_ISUB => (Op::ISub, 1),
            OP_IMUL => (Op::IMul, 1),
            OP_IDIV => (Op::IDiv, 1),
            OP_IREM => (Op::IRem, 1),
            OP_INEG => (Op::INeg, 1),
            OP_ISHL => (Op::IShl, 1),
            OP_ISHR => (Op::IShr, 1),
            OP_IUSHR => (Op::IUshr, 1),
            OP_IAND => (Op::IAnd, 1),
            OP_IOR => (Op::IOr, 1),
            OP_IXOR => (Op::IXor, 1),
            OP_IINC => (Op::IInc(byte(1)?, u16_at(2)? as i16), 4),
            OP_IF => (Op::If(Cond::from_code(byte(1)?)?, u32_at(2)?), 6),
            OP_IF_ICMP => (Op::IfICmp(Cond::from_code(byte(1)?)?, u32_at(2)?), 6),
            OP_IFNULL => (Op::IfNull(u32_at(1)?), 5),
            OP_IFNONNULL => (Op::IfNonNull(u32_at(1)?), 5),
            OP_IF_ACMPEQ => (Op::IfACmpEq(u32_at(1)?), 5),
            OP_IF_ACMPNE => (Op::IfACmpNe(u32_at(1)?), 5),
            OP_GOTO => (Op::Goto(u32_at(1)?), 5),
            OP_TABLESWITCH => {
                let low = i32_at(1)?;
                let count = u16_at(5)? as usize;
                let default = u32_at(7)?;
                let mut targets = Vec::with_capacity(count);
                for k in 0..count {
                    targets.push(u32_at(11 + 4 * k)?);
                }
                (
                    Op::TableSwitch {
                        low,
                        default,
                        targets,
                    },
                    11 + 4 * count,
                )
            }
            OP_NEW => (Op::New(CpIndex(u16_at(1)?)), 3),
            OP_GETFIELD => (Op::GetField(CpIndex(u16_at(1)?)), 3),
            OP_PUTFIELD => (Op::PutField(CpIndex(u16_at(1)?)), 3),
            OP_GETSTATIC => (Op::GetStatic(CpIndex(u16_at(1)?)), 3),
            OP_PUTSTATIC => (Op::PutStatic(CpIndex(u16_at(1)?)), 3),
            OP_NEWARRAY => (Op::NewArray(ArrayKind::from_code(byte(1)?)?), 2),
            OP_ARRAYLENGTH => (Op::ArrayLength, 1),
            OP_ARRLOAD => (Op::ArrLoad(ArrayKind::from_code(byte(1)?)?), 2),
            OP_ARRSTORE => (Op::ArrStore(ArrayKind::from_code(byte(1)?)?), 2),
            OP_INVOKESTATIC => (Op::InvokeStatic(CpIndex(u16_at(1)?)), 3),
            OP_INVOKEVIRTUAL => (Op::InvokeVirtual(CpIndex(u16_at(1)?)), 3),
            OP_INVOKESPECIAL => (Op::InvokeSpecial(CpIndex(u16_at(1)?)), 3),
            OP_RETURN => (Op::Return, 1),
            OP_IRETURN => (Op::IReturn, 1),
            OP_ARETURN => (Op::AReturn, 1),
            OP_MONITORENTER => (Op::MonitorEnter, 1),
            OP_MONITOREXIT => (Op::MonitorExit, 1),
            _ => return None,
        })
    }

    /// The opcode's dispatch index, used by the interpreter's handler
    /// table and by the JIT's per-opcode code generators. Equal to the
    /// first byte [`Op::encode`] writes.
    pub fn dispatch_index(&self) -> u8 {
        match self {
            Op::Nop => OP_NOP,
            Op::IConst(_) => OP_ICONST,
            Op::AConstNull => OP_ACONST_NULL,
            Op::ILoad(_) => OP_ILOAD,
            Op::IStore(_) => OP_ISTORE,
            Op::ALoad(_) => OP_ALOAD,
            Op::AStore(_) => OP_ASTORE,
            Op::Pop => OP_POP,
            Op::Dup => OP_DUP,
            Op::DupX1 => OP_DUP_X1,
            Op::Swap => OP_SWAP,
            Op::IAdd => OP_IADD,
            Op::ISub => OP_ISUB,
            Op::IMul => OP_IMUL,
            Op::IDiv => OP_IDIV,
            Op::IRem => OP_IREM,
            Op::INeg => OP_INEG,
            Op::IShl => OP_ISHL,
            Op::IShr => OP_ISHR,
            Op::IUshr => OP_IUSHR,
            Op::IAnd => OP_IAND,
            Op::IOr => OP_IOR,
            Op::IXor => OP_IXOR,
            Op::IInc(..) => OP_IINC,
            Op::If(..) => OP_IF,
            Op::IfICmp(..) => OP_IF_ICMP,
            Op::IfNull(_) => OP_IFNULL,
            Op::IfNonNull(_) => OP_IFNONNULL,
            Op::IfACmpEq(_) => OP_IF_ACMPEQ,
            Op::IfACmpNe(_) => OP_IF_ACMPNE,
            Op::Goto(_) => OP_GOTO,
            Op::TableSwitch { .. } => OP_TABLESWITCH,
            Op::New(_) => OP_NEW,
            Op::GetField(_) => OP_GETFIELD,
            Op::PutField(_) => OP_PUTFIELD,
            Op::GetStatic(_) => OP_GETSTATIC,
            Op::PutStatic(_) => OP_PUTSTATIC,
            Op::NewArray(_) => OP_NEWARRAY,
            Op::ArrayLength => OP_ARRAYLENGTH,
            Op::ArrLoad(_) => OP_ARRLOAD,
            Op::ArrStore(_) => OP_ARRSTORE,
            Op::InvokeStatic(_) => OP_INVOKESTATIC,
            Op::InvokeVirtual(_) => OP_INVOKEVIRTUAL,
            Op::InvokeSpecial(_) => OP_INVOKESPECIAL,
            Op::Return => OP_RETURN,
            Op::IReturn => OP_IRETURN,
            Op::AReturn => OP_ARETURN,
            Op::MonitorEnter => OP_MONITORENTER,
            Op::MonitorExit => OP_MONITOREXIT,
        }
    }

    /// Number of distinct opcodes in the ISA.
    pub const NUM_OPCODES: usize = 49;

    /// Returns the branch targets this instruction can jump to
    /// (excluding fall-through).
    pub fn branch_targets(&self) -> Vec<u32> {
        match self {
            Op::If(_, t)
            | Op::IfICmp(_, t)
            | Op::IfNull(t)
            | Op::IfNonNull(t)
            | Op::IfACmpEq(t)
            | Op::IfACmpNe(t)
            | Op::Goto(t) => vec![*t],
            Op::TableSwitch {
                default, targets, ..
            } => {
                let mut v = targets.clone();
                v.push(*default);
                v
            }
            _ => Vec::new(),
        }
    }

    /// Whether control can fall through to the next instruction.
    pub fn falls_through(&self) -> bool {
        !matches!(
            self,
            Op::Goto(_) | Op::TableSwitch { .. } | Op::Return | Op::IReturn | Op::AReturn
        )
    }
}

/// Why [`Op::try_decode`] found no instruction at `pc`, in the order
/// it reads one: the opcode byte, then an `if`'s condition or an array
/// instruction's kind byte, then the operands. Opcodes are dense from
/// 0, so any byte past the last one is unknown; an instruction whose
/// opcode and code byte are valid failed on a missing operand byte.
#[cold]
fn decode_fault(code: &[u8], pc: usize) -> BytecodeError {
    let Some(&opcode) = code.get(pc) else {
        return BytecodeError::Truncated(pc);
    };
    match (opcode, code.get(pc + 1).copied()) {
        _ if usize::from(opcode) >= Op::NUM_OPCODES => BytecodeError::BadOpcode { pc, opcode },
        (OP_IF | OP_IF_ICMP, Some(c)) if Cond::from_code(c).is_none() => BytecodeError::BadCond(c),
        (OP_NEWARRAY | OP_ARRLOAD | OP_ARRSTORE, Some(c)) if ArrayKind::from_code(c).is_none() => {
            BytecodeError::BadArrayKind(c)
        }
        _ => BytecodeError::Truncated(pc),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(op: Op) {
        let mut buf = Vec::new();
        op.encode(&mut buf);
        let (decoded, len) = Op::decode(&buf, 0).expect("decode");
        assert_eq!(decoded, op);
        assert_eq!(len, buf.len());
    }

    /// One instruction of each of the [`Op::NUM_OPCODES`] variants,
    /// in opcode order.
    fn one_of_each() -> Vec<Op> {
        vec![
            Op::Nop,
            Op::IConst(-123456),
            Op::AConstNull,
            Op::ILoad(7),
            Op::IStore(200),
            Op::ALoad(1),
            Op::AStore(2),
            Op::Pop,
            Op::Dup,
            Op::DupX1,
            Op::Swap,
            Op::IAdd,
            Op::ISub,
            Op::IMul,
            Op::IDiv,
            Op::IRem,
            Op::INeg,
            Op::IShl,
            Op::IShr,
            Op::IUshr,
            Op::IAnd,
            Op::IOr,
            Op::IXor,
            Op::IInc(3, -500),
            Op::If(Cond::Le, 0xDEAD),
            Op::IfICmp(Cond::Gt, 42),
            Op::IfNull(10),
            Op::IfNonNull(20),
            Op::IfACmpEq(30),
            Op::IfACmpNe(40),
            Op::Goto(0xFFFF_FFFF),
            Op::TableSwitch {
                low: -2,
                default: 99,
                targets: vec![10, 20, 30, 40],
            },
            Op::New(CpIndex(9)),
            Op::GetField(CpIndex(1)),
            Op::PutField(CpIndex(2)),
            Op::GetStatic(CpIndex(3)),
            Op::PutStatic(CpIndex(4)),
            Op::NewArray(ArrayKind::Char),
            Op::ArrayLength,
            Op::ArrLoad(ArrayKind::Byte),
            Op::ArrStore(ArrayKind::Ref),
            Op::InvokeStatic(CpIndex(5)),
            Op::InvokeVirtual(CpIndex(6)),
            Op::InvokeSpecial(CpIndex(7)),
            Op::Return,
            Op::IReturn,
            Op::AReturn,
            Op::MonitorEnter,
            Op::MonitorExit,
        ]
    }

    #[test]
    fn roundtrip_every_variant() {
        for op in one_of_each() {
            roundtrip(op);
        }
    }

    #[test]
    fn roundtrip_empty_tableswitch() {
        roundtrip(Op::TableSwitch {
            low: 0,
            default: 0,
            targets: vec![],
        });
    }

    #[test]
    fn decode_rejects_unknown_opcode() {
        assert!(matches!(
            Op::decode(&[0xFF], 0),
            Err(BytecodeError::BadOpcode { .. })
        ));
    }

    #[test]
    fn decode_rejects_truncation() {
        let mut buf = Vec::new();
        Op::IConst(7).encode(&mut buf);
        buf.truncate(3);
        assert!(matches!(
            Op::decode(&buf, 0),
            Err(BytecodeError::Truncated(_))
        ));
    }

    /// `decode` reports what the decoder first finds wrong, byte by
    /// byte, and `try_decode` fails exactly where `decode` does.
    #[test]
    fn decode_names_the_first_fault() {
        let cases: [(&[u8], usize, BytecodeError); 10] = [
            (&[], 0, BytecodeError::Truncated(0)),
            (&[OP_NOP], 3, BytecodeError::Truncated(3)),
            (
                &[OP_NOP, 0xFF],
                1,
                BytecodeError::BadOpcode {
                    pc: 1,
                    opcode: 0xFF,
                },
            ),
            (&[49], 0, BytecodeError::BadOpcode { pc: 0, opcode: 49 }),
            (&[OP_IF], 0, BytecodeError::Truncated(0)),
            // The condition byte is read before the (missing) target.
            (&[OP_IF_ICMP, 6], 0, BytecodeError::BadCond(6)),
            (&[OP_IF, 5, 0, 0], 0, BytecodeError::Truncated(0)),
            (&[OP_ARRSTORE], 0, BytecodeError::Truncated(0)),
            (&[OP_NEWARRAY, 4], 0, BytecodeError::BadArrayKind(4)),
            (
                &[OP_TABLESWITCH, 0, 0, 0, 0, 0, 1, 0, 0, 0, 9, 0, 0],
                0,
                BytecodeError::Truncated(0),
            ),
        ];
        for (code, pc, want) in cases {
            assert_eq!(Op::decode(code, pc), Err(want.clone()), "{code:?}@{pc}");
            assert_eq!(Op::try_decode(code, pc), None, "{code:?}@{pc}");
        }
        for op in one_of_each() {
            let mut buf = Vec::new();
            op.encode(&mut buf);
            assert_eq!(Op::try_decode(&buf, 0), Some((op, buf.len())));
        }
    }

    #[test]
    fn cond_eval_table() {
        assert!(Cond::Eq.eval(1, 1));
        assert!(Cond::Ne.eval(1, 2));
        assert!(Cond::Lt.eval(1, 2));
        assert!(Cond::Ge.eval(2, 2));
        assert!(Cond::Gt.eval(3, 2));
        assert!(Cond::Le.eval(2, 2));
        assert!(!Cond::Lt.eval(2, 1));
    }

    #[test]
    fn branch_targets_and_fallthrough() {
        assert_eq!(Op::Goto(5).branch_targets(), vec![5]);
        assert!(!Op::Goto(5).falls_through());
        assert!(Op::If(Cond::Eq, 5).falls_through());
        assert!(!Op::IReturn.falls_through());
        let ts = Op::TableSwitch {
            low: 0,
            default: 9,
            targets: vec![1, 2],
        };
        assert_eq!(ts.branch_targets(), vec![1, 2, 9]);
    }

    #[test]
    fn array_elem_sizes() {
        assert_eq!(ArrayKind::Byte.elem_size(), 1);
        assert_eq!(ArrayKind::Char.elem_size(), 2);
        assert_eq!(ArrayKind::Int.elem_size(), 4);
        assert_eq!(ArrayKind::Ref.elem_size(), 4);
    }

    #[test]
    fn dispatch_index_is_the_encoded_opcode_byte() {
        let ops = one_of_each();
        assert_eq!(ops.len(), Op::NUM_OPCODES);
        let mut seen = [false; Op::NUM_OPCODES];
        for op in &ops {
            let mut buf = Vec::new();
            op.encode(&mut buf);
            let index = op.dispatch_index();
            assert_eq!(index, buf[0], "{op:?}");
            let slot = usize::from(index);
            assert!(slot < Op::NUM_OPCODES, "{op:?}");
            assert!(!seen[slot], "{op:?} shares dispatch index {index}");
            seen[slot] = true;
        }
    }
}
