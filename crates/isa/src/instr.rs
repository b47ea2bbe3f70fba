//! The typed instruction set executed by the simulator.
//!
//! This covers the RV32I + M + D subset that the paper's kernels use,
//! plus the three Snitch extensions the paper builds on:
//!
//! * **Xssr** — streamer configuration reads/writes (`scfgri`/`scfgwi`)
//!   and the `ssr` CSR enabling register redirection,
//! * **Xfrep** — floating-point repetition hardware loops with register
//!   staggering (`frep.o`/`frep.i`),
//! * **Xdma** — the cluster DMA front end (`dmsrc`, `dmdst`, `dmstr`,
//!   `dmrep`, `dmcpyi`, `dmstati`).
//!
//! Every instruction has a 32-bit binary encoding (see [`crate::encode`])
//! so that programs round-trip through machine code; the simulator executes
//! the typed form directly for speed.

use crate::csr::Csr;
use crate::reg::{FpReg, IntReg};
use std::fmt;

/// Branch comparison condition.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BranchCond {
    Eq,
    Ne,
    Lt,
    Ge,
    Ltu,
    Geu,
}

/// Integer load width and sign treatment.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LoadWidth {
    /// `lb`: sign-extended byte.
    B,
    /// `lh`: sign-extended halfword.
    H,
    /// `lw`: word.
    W,
    /// `lbu`: zero-extended byte.
    Bu,
    /// `lhu`: zero-extended halfword.
    Hu,
}

impl LoadWidth {
    /// Access size in bytes.
    #[must_use]
    pub fn bytes(self) -> u32 {
        match self {
            LoadWidth::B | LoadWidth::Bu => 1,
            LoadWidth::H | LoadWidth::Hu => 2,
            LoadWidth::W => 4,
        }
    }
}

/// Integer store width.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum StoreWidth {
    B,
    H,
    W,
}

impl StoreWidth {
    /// Access size in bytes.
    #[must_use]
    pub fn bytes(self) -> u32 {
        match self {
            StoreWidth::B => 1,
            StoreWidth::H => 2,
            StoreWidth::W => 4,
        }
    }
}

/// Register-immediate ALU operation (`OP-IMM`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AluImmOp {
    Addi,
    Slti,
    Sltiu,
    Xori,
    Ori,
    Andi,
    Slli,
    Srli,
    Srai,
}

/// Register-register ALU operation (`OP`), including the M extension.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AluOp {
    Add,
    Sub,
    Sll,
    Slt,
    Sltu,
    Xor,
    Srl,
    Sra,
    Or,
    And,
    Mul,
    Mulh,
    Mulhsu,
    Mulhu,
    Div,
    Divu,
    Rem,
    Remu,
}

/// Two-operand double-precision FPU operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FpOp2 {
    FaddD,
    FsubD,
    FmulD,
    FdivD,
    FsgnjD,
    FsgnjnD,
    FsgnjxD,
    FminD,
    FmaxD,
}

/// Fused three-operand double-precision FPU operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FpOp3 {
    /// `rd = rs1 * rs2 + rs3`
    FmaddD,
    /// `rd = rs1 * rs2 - rs3`
    FmsubD,
    /// `rd = -(rs1 * rs2) + rs3`
    FnmsubD,
    /// `rd = -(rs1 * rs2) - rs3`
    FnmaddD,
}

/// Double-precision comparison writing an integer register.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FpCmp {
    FeqD,
    FltD,
    FleD,
}

/// CSR access operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CsrOp {
    /// Read/write.
    Rw,
    /// Read and set bits.
    Rs,
    /// Read and clear bits.
    Rc,
}

/// Which FREP loop flavour: `frep.o` repeats the whole body sequentially,
/// `frep.i` repeats each instruction of the body in place, and `frep.s`
/// repeats the body until the streams it reads raise their terminate
/// flag (data-dependent trip count, no `max_rpt` operand).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FrepKind {
    Outer,
    Inner,
    /// Stream-terminated outer loop: the sequencer replays the body while
    /// any stream source of the body is still live, and retires the loop
    /// once every such stream has raised `done` and drained. The
    /// `max_rpt` operand is ignored (assemblers pass `zero`).
    Stream,
}

/// Register-stagger configuration of an FREP loop.
///
/// On iteration `i`, operands selected by `mask` have their register index
/// incremented by `i mod (count + 1)`. Mask bits: 0 → `rd`, 1 → `rs1`,
/// 2 → `rs2`, 3 → `rs3` (the encoding the paper's Listing 1 uses,
/// e.g. `0b1001` staggers the accumulator read and write of an `fmadd.d`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Stagger {
    /// Number of *additional* registers to rotate through (0 = no stagger).
    pub count: u8,
    /// Operand-select mask (bits rd/rs1/rs2/rs3).
    pub mask: u8,
}

impl Stagger {
    /// No staggering.
    pub const NONE: Self = Self { count: 0, mask: 0 };

    /// Staggers the accumulator of an `fmadd`-style op (`rd` and `rs3`)
    /// over `n_regs` registers.
    ///
    /// # Panics
    /// Panics if `n_regs` is zero or exceeds 16.
    #[must_use]
    pub fn accumulator(n_regs: u8) -> Self {
        assert!((1..=16).contains(&n_regs), "stagger depth {n_regs} out of range");
        Self { count: n_regs - 1, mask: 0b1001 }
    }

    /// Register offset applied on iteration `i` to operands selected by the
    /// mask.
    #[must_use]
    pub fn offset_at(&self, i: u32) -> u8 {
        if self.count == 0 {
            0
        } else {
            (i % (u32::from(self.count) + 1)) as u8
        }
    }
}

/// One machine instruction.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Instr {
    // ---- RV32I ----
    /// `lui rd, imm20` — load upper immediate (`imm` is the final 32-bit
    /// value with low 12 bits zero).
    Lui { rd: IntReg, imm: u32 },
    /// `auipc rd, imm20`.
    Auipc { rd: IntReg, imm: u32 },
    /// `jal rd, offset` (byte offset relative to this instruction).
    Jal { rd: IntReg, offset: i32 },
    /// `jalr rd, offset(rs1)`.
    Jalr { rd: IntReg, rs1: IntReg, offset: i32 },
    /// Conditional branch, byte offset relative to this instruction.
    Branch { cond: BranchCond, rs1: IntReg, rs2: IntReg, offset: i32 },
    /// Integer load.
    Load { width: LoadWidth, rd: IntReg, rs1: IntReg, offset: i32 },
    /// Integer store.
    Store { width: StoreWidth, rs2: IntReg, rs1: IntReg, offset: i32 },
    /// Register-immediate ALU operation.
    OpImm { op: AluImmOp, rd: IntReg, rs1: IntReg, imm: i32 },
    /// Register-register ALU operation.
    Op { op: AluOp, rd: IntReg, rs1: IntReg, rs2: IntReg },
    /// CSR access with register source.
    CsrR { op: CsrOp, rd: IntReg, rs1: IntReg, csr: Csr },
    /// CSR access with 5-bit immediate source.
    CsrI { op: CsrOp, rd: IntReg, uimm: u8, csr: Csr },
    /// Environment call; the simulator treats `ecall` as a no-op trap hook.
    Ecall,
    /// `fence` — memory ordering; a timing no-op in this model.
    Fence,

    // ---- RV32D (subset) ----
    /// `fld rd, offset(rs1)`.
    Fld { rd: FpReg, rs1: IntReg, offset: i32 },
    /// `fsd rs2, offset(rs1)`.
    Fsd { rs2: FpReg, rs1: IntReg, offset: i32 },
    /// Two-operand FP op.
    FpuOp2 { op: FpOp2, rd: FpReg, rs1: FpReg, rs2: FpReg },
    /// Fused multiply-add family.
    FpuOp3 { op: FpOp3, rd: FpReg, rs1: FpReg, rs2: FpReg, rs3: FpReg },
    /// FP comparison into an integer register.
    FpuCmp { op: FpCmp, rd: IntReg, rs1: FpReg, rs2: FpReg },
    /// `fcvt.d.w rd, rs1` — signed 32-bit integer to double.
    FcvtDW { rd: FpReg, rs1: IntReg },
    /// `fcvt.w.d rd, rs1` — double to signed 32-bit integer (RTZ).
    FcvtWD { rd: IntReg, rs1: FpReg },
    /// `fmv.d rd, rs1` (canonical `fsgnj.d rd, rs1, rs1`); kept distinct so
    /// the FPU can treat it as a cheap move and so streams pop exactly once.
    FmvD { rd: FpReg, rs1: FpReg },

    // ---- Xssr ----
    /// `scfgwi rs1, addr` — write streamer configuration word `addr`.
    ///
    /// The 12-bit address is `reg << 5 | lane` as in Snitch's memory-mapped
    /// layout (see `issr-core`).
    Scfgwi { rs1: IntReg, addr: u16 },
    /// `scfgri rd, addr` — read streamer configuration word `addr`.
    Scfgri { rd: IntReg, addr: u16 },

    // ---- Xfrep ----
    /// Floating-point repetition loop over the next `n_insns` FP
    /// instructions, executed `rs1 + 1` times (`frep.o`/`frep.i`) or
    /// until stream termination (`frep.s`, `rs1` ignored).
    Frep { kind: FrepKind, max_rpt: IntReg, n_insns: u8, stagger: Stagger },

    // ---- Xdma ----
    /// `dmsrc rs1, rs2` — set DMA source address (low word in `rs1`).
    DmSrc { rs1: IntReg, rs2: IntReg },
    /// `dmdst rs1, rs2` — set DMA destination address (low word in `rs1`).
    DmDst { rs1: IntReg, rs2: IntReg },
    /// `dmstr rs1, rs2` — set 2D source (`rs1`) and destination (`rs2`)
    /// strides in bytes.
    DmStr { rs1: IntReg, rs2: IntReg },
    /// `dmrep rs1` — set 2D repetition count.
    DmRep { rs1: IntReg },
    /// `dmcpyi rd, rs1, cfg` — start a transfer of `rs1` bytes per row;
    /// `cfg` bit 0 enables 2D mode. Returns the transfer id in `rd`.
    DmCpyI { rd: IntReg, rs1: IntReg, cfg: u8 },
    /// `dmstati rd, which` — read DMA status. `which = 0`: number of
    /// completed transfers (monotonic); `which = 1`: 1 while busy.
    DmStatI { rd: IntReg, which: u8 },

    // ---- Simulator control (custom-2 space) ----
    /// Stops the issuing core; simulation ends when all cores halt.
    Halt,
}

impl Instr {
    /// Returns `true` if the instruction executes in the FPU subsystem
    /// (and is therefore eligible for FREP bodies and pseudo-dual-issue).
    #[must_use]
    #[inline]
    pub fn is_fp(&self) -> bool {
        matches!(
            self,
            Instr::Fld { .. }
                | Instr::Fsd { .. }
                | Instr::FpuOp2 { .. }
                | Instr::FpuOp3 { .. }
                | Instr::FpuCmp { .. }
                | Instr::FcvtDW { .. }
                | Instr::FcvtWD { .. }
                | Instr::FmvD { .. }
        )
    }

    /// Returns `true` for control-flow instructions (branches and jumps).
    #[must_use]
    pub fn is_control_flow(&self) -> bool {
        matches!(self, Instr::Jal { .. } | Instr::Jalr { .. } | Instr::Branch { .. })
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::Lui { rd, imm } => write!(f, "lui {rd}, {:#x}", imm >> 12),
            Instr::Auipc { rd, imm } => write!(f, "auipc {rd}, {:#x}", imm >> 12),
            Instr::Jal { rd, offset } => write!(f, "jal {rd}, {offset}"),
            Instr::Jalr { rd, rs1, offset } => write!(f, "jalr {rd}, {offset}({rs1})"),
            Instr::Branch { cond, rs1, rs2, offset } => {
                let name = match cond {
                    BranchCond::Eq => "beq",
                    BranchCond::Ne => "bne",
                    BranchCond::Lt => "blt",
                    BranchCond::Ge => "bge",
                    BranchCond::Ltu => "bltu",
                    BranchCond::Geu => "bgeu",
                };
                write!(f, "{name} {rs1}, {rs2}, {offset}")
            }
            Instr::Load { width, rd, rs1, offset } => {
                let name = match width {
                    LoadWidth::B => "lb",
                    LoadWidth::H => "lh",
                    LoadWidth::W => "lw",
                    LoadWidth::Bu => "lbu",
                    LoadWidth::Hu => "lhu",
                };
                write!(f, "{name} {rd}, {offset}({rs1})")
            }
            Instr::Store { width, rs2, rs1, offset } => {
                let name = match width {
                    StoreWidth::B => "sb",
                    StoreWidth::H => "sh",
                    StoreWidth::W => "sw",
                };
                write!(f, "{name} {rs2}, {offset}({rs1})")
            }
            Instr::OpImm { op, rd, rs1, imm } => {
                let name = match op {
                    AluImmOp::Addi => "addi",
                    AluImmOp::Slti => "slti",
                    AluImmOp::Sltiu => "sltiu",
                    AluImmOp::Xori => "xori",
                    AluImmOp::Ori => "ori",
                    AluImmOp::Andi => "andi",
                    AluImmOp::Slli => "slli",
                    AluImmOp::Srli => "srli",
                    AluImmOp::Srai => "srai",
                };
                write!(f, "{name} {rd}, {rs1}, {imm}")
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                let name = match op {
                    AluOp::Add => "add",
                    AluOp::Sub => "sub",
                    AluOp::Sll => "sll",
                    AluOp::Slt => "slt",
                    AluOp::Sltu => "sltu",
                    AluOp::Xor => "xor",
                    AluOp::Srl => "srl",
                    AluOp::Sra => "sra",
                    AluOp::Or => "or",
                    AluOp::And => "and",
                    AluOp::Mul => "mul",
                    AluOp::Mulh => "mulh",
                    AluOp::Mulhsu => "mulhsu",
                    AluOp::Mulhu => "mulhu",
                    AluOp::Div => "div",
                    AluOp::Divu => "divu",
                    AluOp::Rem => "rem",
                    AluOp::Remu => "remu",
                };
                write!(f, "{name} {rd}, {rs1}, {rs2}")
            }
            Instr::CsrR { op, rd, rs1, csr } => {
                let name = match op {
                    CsrOp::Rw => "csrrw",
                    CsrOp::Rs => "csrrs",
                    CsrOp::Rc => "csrrc",
                };
                write!(f, "{name} {rd}, {csr}, {rs1}")
            }
            Instr::CsrI { op, rd, uimm, csr } => {
                let name = match op {
                    CsrOp::Rw => "csrrwi",
                    CsrOp::Rs => "csrrsi",
                    CsrOp::Rc => "csrrci",
                };
                write!(f, "{name} {rd}, {csr}, {uimm}")
            }
            Instr::Ecall => write!(f, "ecall"),
            Instr::Fence => write!(f, "fence"),
            Instr::Fld { rd, rs1, offset } => write!(f, "fld {rd}, {offset}({rs1})"),
            Instr::Fsd { rs2, rs1, offset } => write!(f, "fsd {rs2}, {offset}({rs1})"),
            Instr::FpuOp2 { op, rd, rs1, rs2 } => {
                let name = match op {
                    FpOp2::FaddD => "fadd.d",
                    FpOp2::FsubD => "fsub.d",
                    FpOp2::FmulD => "fmul.d",
                    FpOp2::FdivD => "fdiv.d",
                    FpOp2::FsgnjD => "fsgnj.d",
                    FpOp2::FsgnjnD => "fsgnjn.d",
                    FpOp2::FsgnjxD => "fsgnjx.d",
                    FpOp2::FminD => "fmin.d",
                    FpOp2::FmaxD => "fmax.d",
                };
                write!(f, "{name} {rd}, {rs1}, {rs2}")
            }
            Instr::FpuOp3 { op, rd, rs1, rs2, rs3 } => {
                let name = match op {
                    FpOp3::FmaddD => "fmadd.d",
                    FpOp3::FmsubD => "fmsub.d",
                    FpOp3::FnmsubD => "fnmsub.d",
                    FpOp3::FnmaddD => "fnmadd.d",
                };
                write!(f, "{name} {rd}, {rs1}, {rs2}, {rs3}")
            }
            Instr::FpuCmp { op, rd, rs1, rs2 } => {
                let name = match op {
                    FpCmp::FeqD => "feq.d",
                    FpCmp::FltD => "flt.d",
                    FpCmp::FleD => "fle.d",
                };
                write!(f, "{name} {rd}, {rs1}, {rs2}")
            }
            Instr::FcvtDW { rd, rs1 } => write!(f, "fcvt.d.w {rd}, {rs1}"),
            Instr::FcvtWD { rd, rs1 } => write!(f, "fcvt.w.d {rd}, {rs1}"),
            Instr::FmvD { rd, rs1 } => write!(f, "fmv.d {rd}, {rs1}"),
            Instr::Scfgwi { rs1, addr } => write!(f, "scfgwi {rs1}, {addr:#x}"),
            Instr::Scfgri { rd, addr } => write!(f, "scfgri {rd}, {addr:#x}"),
            Instr::Frep { kind, max_rpt, n_insns, stagger } => {
                let name = match kind {
                    FrepKind::Outer => "frep.o",
                    FrepKind::Inner => "frep.i",
                    FrepKind::Stream => "frep.s",
                };
                write!(f, "{name} {max_rpt}, {n_insns}, {}, {:#06b}", stagger.count, stagger.mask)
            }
            Instr::DmSrc { rs1, rs2 } => write!(f, "dmsrc {rs1}, {rs2}"),
            Instr::DmDst { rs1, rs2 } => write!(f, "dmdst {rs1}, {rs2}"),
            Instr::DmStr { rs1, rs2 } => write!(f, "dmstr {rs1}, {rs2}"),
            Instr::DmRep { rs1 } => write!(f, "dmrep {rs1}"),
            Instr::DmCpyI { rd, rs1, cfg } => write!(f, "dmcpyi {rd}, {rs1}, {cfg}"),
            Instr::DmStatI { rd, which } => write!(f, "dmstati {rd}, {which}"),
            Instr::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stagger_rotation() {
        let s = Stagger::accumulator(4);
        assert_eq!(s.count, 3);
        assert_eq!(s.mask, 0b1001);
        let offsets: Vec<u8> = (0..9).map(|i| s.offset_at(i)).collect();
        assert_eq!(offsets, [0, 1, 2, 3, 0, 1, 2, 3, 0]);
    }

    #[test]
    fn stagger_none_is_identity() {
        assert_eq!(Stagger::NONE.offset_at(17), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn stagger_zero_depth_panics() {
        let _ = Stagger::accumulator(0);
    }

    #[test]
    fn fp_classification() {
        let fmadd = Instr::FpuOp3 {
            op: FpOp3::FmaddD,
            rd: FpReg::FT2,
            rs1: FpReg::FT0,
            rs2: FpReg::FT1,
            rs3: FpReg::FT2,
        };
        assert!(fmadd.is_fp());
        assert!(!fmadd.is_control_flow());
        let bne =
            Instr::Branch { cond: BranchCond::Ne, rs1: IntReg::T0, rs2: IntReg::T1, offset: -4 };
        assert!(bne.is_control_flow());
        assert!(!bne.is_fp());
    }

    #[test]
    fn display_smoke() {
        let i = Instr::Load { width: LoadWidth::W, rd: IntReg::T0, rs1: IntReg::A0, offset: 8 };
        assert_eq!(i.to_string(), "lw t0, 8(a0)");
        let f = Instr::Frep {
            kind: FrepKind::Outer,
            max_rpt: IntReg::T0,
            n_insns: 1,
            stagger: Stagger::accumulator(4),
        };
        assert_eq!(f.to_string(), "frep.o t0, 1, 3, 0b1001");
    }

    #[test]
    fn load_store_widths() {
        assert_eq!(LoadWidth::Hu.bytes(), 2);
        assert_eq!(LoadWidth::W.bytes(), 4);
        assert_eq!(StoreWidth::B.bytes(), 1);
    }
}
