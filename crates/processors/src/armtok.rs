//! ARM instruction tokens: the payload carried through the RCPN pipelines.
//!
//! This module implements two of the paper's three performance pillars:
//!
//! * **Decode-once tokens** — "when an instruction token is generated, the
//!   corresponding instruction is decoded and stored in the token. Since
//!   the token carries this information, we do not need to re-decode the
//!   instruction in different pipeline stages." [`DecInstr`] is that stored
//!   decode result; it is produced at fetch time and shared via `Rc`.
//! * **Partial evaluation / token caching** — "the tokens are cached for
//!   later reuse": [`DecodeCache`] memoizes [`DecInstr`] per word address,
//!   and [`DecInstr::instantiate`] customizes the operation-class template
//!   for an instruction *instance* by resolving its symbols to concrete
//!   [`Operand`]s (registers become `RegRef`s, constants and PC-relative
//!   values become `Const`s — Section 3's symbol substitution).

use std::rc::Rc;

use arm_isa::decode::decode;
use arm_isa::instr::{DpOp, HKind, HOff, Instr, MemOff, Op2, Shift};
use arm_isa::types::{expand_imm, Cond, Reg, ShiftTy};
use rcpn::ids::{OpClassId, RegId};
use rcpn::reg::Operand;
use rcpn::token::InstrData;

/// The six ARM operation classes, exactly as many as the paper reports
/// ("The ARM instruction set was implemented using six operation-classes").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ArmClass {
    /// Data processing (ALU), including PC writes like `mov pc, lr`.
    DataProc = 0,
    /// Multiply and multiply-long.
    Mul = 1,
    /// Single loads/stores (word/byte/halfword/signed).
    LdSt = 2,
    /// Load/store multiple (micro-op generating).
    LdStM = 3,
    /// Branches (`b`/`bl`).
    Branch = 4,
    /// Software interrupts and faults.
    System = 5,
}

impl ArmClass {
    /// All classes in id order.
    pub const ALL: [ArmClass; 6] = [
        ArmClass::DataProc,
        ArmClass::Mul,
        ArmClass::LdSt,
        ArmClass::LdStM,
        ArmClass::Branch,
        ArmClass::System,
    ];

    /// The class name (used for sub-net names).
    pub fn name(self) -> &'static str {
        match self {
            ArmClass::DataProc => "DataProc",
            ArmClass::Mul => "Mul",
            ArmClass::LdSt => "LoadStore",
            ArmClass::LdStM => "LoadStoreMultiple",
            ArmClass::Branch => "Branch",
            ArmClass::System => "System",
        }
    }

    /// The RCPN operation-class id (classes are registered in `ALL` order).
    pub fn id(self) -> OpClassId {
        OpClassId::from_index(self as usize)
    }
}

/// How the second operand of a data-processing instruction is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op2Spec {
    /// Immediate with precomputed value; `carry` is `None` when the shifter
    /// carry is just the incoming C flag (rotation 0).
    Imm {
        /// The expanded immediate.
        value: u32,
        /// Shifter carry-out, if the rotation defines one.
        carry: Option<bool>,
    },
    /// Register `srcs[1]` shifted by a constant.
    RegImm {
        /// Shift type.
        ty: ShiftTy,
        /// Shift amount (0 has the architectural special meanings).
        amount: u8,
    },
    /// Register `srcs[1]` shifted by register `srcs[2]`.
    RegReg {
        /// Shift type.
        ty: ShiftTy,
    },
}

/// How a load/store offset is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffSpec {
    /// Constant offset (already signed).
    Imm(i32),
    /// Register `srcs[1]`, shifted, possibly subtracted.
    Reg {
        /// Shift type.
        ty: ShiftTy,
        /// Shift amount.
        amount: u8,
        /// Subtract instead of add.
        neg: bool,
    },
}

/// Transfer width of a memory instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Width {
    /// 32-bit word.
    Word,
    /// 8-bit unsigned byte.
    Byte,
    /// Halfword/signed transfer of the given kind.
    Half(HKind),
}

/// Memory-instruction fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemSpec {
    /// Load (vs. store).
    pub load: bool,
    /// Transfer width.
    pub width: Width,
    /// Pre-indexed addressing.
    pub pre: bool,
    /// Offset added (for immediate offsets the sign is folded into
    /// [`OffSpec::Imm`]).
    pub up: bool,
    /// Base register is written back.
    pub wb: bool,
}

/// Multiply-instruction fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MulSpec {
    /// Accumulate.
    pub acc: bool,
    /// 64-bit variant.
    pub long: bool,
    /// Signed 64-bit variant.
    pub signed: bool,
}

/// The decode-once template of one machine word (shared via `Rc`).
#[derive(Debug, Clone, PartialEq)]
pub struct DecInstr {
    /// The symbolic instruction (kept for disassembly and fault reporting).
    pub instr: Instr,
    /// Condition code.
    pub cond: Cond,
    /// Operation class.
    pub class: ArmClass,
    /// Scoreboarded source registers (`None` entries are unused slots).
    /// Slot meaning per class: DataProc `[rn, rm, rs, -]`; Mul
    /// `[rm, rs, rn/rdlo, rdhi]`; LdSt `[rn, rm, rd(store), -]`; LdStM
    /// `[rn, -, -, -]`; Branch/System: none.
    pub src_regs: [Option<Reg>; 4],
    /// Scoreboarded destination (rd / rdlo).
    pub dst_reg: Option<Reg>,
    /// Second destination (rdhi, or the written-back base register).
    pub dst2_reg: Option<Reg>,
    /// Data-processing opcode.
    pub dp_op: DpOp,
    /// Second-operand production rule.
    pub op2: Op2Spec,
    /// Offset production rule.
    pub off: OffSpec,
    /// Memory fields.
    pub mem: Option<MemSpec>,
    /// Multiply fields.
    pub mul: Option<MulSpec>,
    /// Flags are written.
    pub sets_flags: bool,
    /// The token redirects the PC (branch, `mov pc`, load-to-pc, ...).
    pub writes_pc: bool,
    /// Precomputed branch target (B/BL — partial evaluation).
    pub branch_target: u32,
    /// Branch-and-link.
    pub link: bool,
    /// SWI comment field.
    pub swi_imm: u32,
    /// Block-transfer register list.
    pub reg_list: u16,
    /// Number of micro-ops (block transfers; 0 otherwise).
    pub n_uops: u8,
    /// Issue must serialize the pipeline (loads into PC, flag-setting
    /// multiplies on split pipes).
    pub serialize: bool,
    /// Decodes to an undefined instruction (System-class fault).
    pub undefined: bool,
}

/// One in-flight instruction token (the colored-token payload).
#[derive(Debug, Clone)]
pub struct ArmTok {
    /// Shared decode template.
    pub dec: Rc<DecInstr>,
    /// Address of this instruction.
    pub pc: u32,
    /// Operation class (mirrors `dec.class` except for micro-ops, which
    /// stay in the LdStM class).
    pub class: OpClassId,
    /// Resolved source operands (the class template's symbols replaced by
    /// RegRefs/Consts for this instance).
    pub srcs: [Operand; 4],
    /// Destination operand.
    pub dst: Operand,
    /// Second destination operand (rdhi / written-back base).
    pub dst2: Operand,
    /// Effective address (computed at execute).
    pub addr: u32,
    /// Written-back base value.
    pub wb_base: u32,
    /// Primary result / loaded value.
    pub value: u32,
    /// Secondary result (rdhi).
    pub value2: u32,
    /// Condition failed; the instruction flows through as a bubble.
    pub annulled: bool,
    /// Fetch-time predicted target (None = fall-through).
    pub pred_target: Option<u32>,
    /// Micro-op index for block transfers.
    pub uop: u8,
    /// This token redirects the PC when it resolves.
    pub writes_pc: bool,
    /// This token currently holds a front-end serialization (fetch is
    /// stalled until it resolves); must be released exactly once.
    pub serialize_pending: bool,
}

impl InstrData for ArmTok {
    #[inline]
    fn op_class(&self) -> OpClassId {
        self.class
    }

    // Operand views for the micro-op IR: the sources the synthesized
    // CheckReady/AcquireOperands ops probe and latch, and the two
    // destinations (primary result, rdhi / written-back base) they
    // reserve. Index order matters: WriteBack commits highest index
    // first, so dst2 (the base) commits before dst — the ARM "load
    // wins" rule, same as `semantics::exec_writeback`.
    #[inline]
    fn src_operands(&self) -> &[Operand] {
        &self.srcs
    }

    #[inline]
    fn src_operands_mut(&mut self) -> &mut [Operand] {
        &mut self.srcs
    }

    #[inline]
    fn dst_count(&self) -> usize {
        2
    }

    #[inline]
    fn dst_operand(&self, i: usize) -> &Operand {
        match i {
            0 => &self.dst,
            1 => &self.dst2,
            _ => panic!("ArmTok has two destination operands (index {i})"),
        }
    }

    #[inline]
    fn dst_operand_mut(&mut self, i: usize) -> &mut Operand {
        match i {
            0 => &mut self.dst,
            1 => &mut self.dst2,
            _ => panic!("ArmTok has two destination operands (index {i})"),
        }
    }

    // Annul view for the synthesized `Annul` op (the `.annuls()` step
    // capability). `cond_passes` keeps its default: the ARM condition
    // reads the CPSR, which lives in machine state, so condition checks
    // stay closure guards (the hook boundary, DESIGN.md §2d) and the
    // default is never consulted.
    #[inline]
    fn annulled(&self) -> bool {
        self.annulled
    }

    #[inline]
    fn set_annulled(&mut self) {
        self.annulled = true;
    }
}

/// Maps an architectural register to its scoreboard id (r0–r14). The PC is
/// not scoreboarded — PC reads become constants at instantiation.
#[inline]
pub fn reg_id(r: Reg) -> RegId {
    debug_assert!(!r.is_pc());
    RegId::from_index(r.index())
}

fn operand_for(r: Option<Reg>, pc: u32) -> Operand {
    match r {
        None => Operand::Absent,
        Some(r) if r.is_pc() => Operand::imm(pc.wrapping_add(8)),
        Some(r) => Operand::reg(reg_id(r)),
    }
}

/// Decodes a machine word into a [`DecInstr`] template.
pub fn decode_word(word: u32, pc: u32) -> DecInstr {
    let instr = decode(word);
    let mut d = DecInstr {
        instr,
        cond: instr.cond(),
        class: ArmClass::System,
        src_regs: [None; 4],
        dst_reg: None,
        dst2_reg: None,
        dp_op: DpOp::Mov,
        op2: Op2Spec::Imm { value: 0, carry: None },
        off: OffSpec::Imm(0),
        mem: None,
        mul: None,
        sets_flags: false,
        writes_pc: false,
        branch_target: 0,
        link: false,
        swi_imm: 0,
        reg_list: 0,
        n_uops: 0,
        serialize: false,
        undefined: false,
    };
    match instr {
        Instr::Dp { op, s, rn, rd, op2, .. } => {
            d.class = ArmClass::DataProc;
            d.dp_op = op;
            d.sets_flags = s;
            if !op.is_unary() {
                d.src_regs[0] = Some(rn);
            }
            match op2 {
                Op2::Imm { imm8, rot4 } => {
                    // Partial evaluation: expand at decode. Rotation 0
                    // leaves the carry as the incoming C flag.
                    let (value, _) = expand_imm(imm8, rot4, false);
                    let carry = if rot4 == 0 { None } else { Some(value >> 31 != 0) };
                    d.op2 = Op2Spec::Imm { value, carry };
                }
                Op2::Reg { rm, shift } => {
                    d.src_regs[1] = Some(rm);
                    match shift {
                        Shift::Imm { ty, amount } => d.op2 = Op2Spec::RegImm { ty, amount },
                        Shift::Reg { ty, rs } => {
                            d.src_regs[2] = Some(rs);
                            d.op2 = Op2Spec::RegReg { ty };
                        }
                    }
                }
            }
            if !op.is_test() {
                if rd.is_pc() {
                    d.writes_pc = true;
                } else {
                    d.dst_reg = Some(rd);
                }
            }
        }
        Instr::Mul { acc, s, rd, rn, rs, rm, .. } => {
            d.class = ArmClass::Mul;
            d.sets_flags = s;
            d.mul = Some(MulSpec { acc, long: false, signed: false });
            d.src_regs[0] = Some(rm);
            d.src_regs[1] = Some(rs);
            if acc {
                d.src_regs[2] = Some(rn);
            }
            d.dst_reg = Some(rd);
            d.serialize = s;
        }
        Instr::MulLong { signed, acc, s, rdhi, rdlo, rs, rm, .. } => {
            d.class = ArmClass::Mul;
            d.sets_flags = s;
            d.mul = Some(MulSpec { acc, long: true, signed });
            d.src_regs[0] = Some(rm);
            d.src_regs[1] = Some(rs);
            if acc {
                d.src_regs[2] = Some(rdlo);
                d.src_regs[3] = Some(rdhi);
            }
            d.dst_reg = Some(rdlo);
            d.dst2_reg = Some(rdhi);
            d.serialize = s;
        }
        Instr::Mem { load, byte, pre, up, wb, rn, rd, off, .. } => {
            d.class = ArmClass::LdSt;
            let width = if byte { Width::Byte } else { Width::Word };
            d.mem = Some(MemSpec { load, width, pre, up, wb: wb || !pre });
            d.src_regs[0] = Some(rn);
            match off {
                MemOff::Imm(v) => {
                    d.off = OffSpec::Imm(if up { i32::from(v) } else { -i32::from(v) });
                }
                MemOff::Reg { rm, ty, amount } => {
                    d.src_regs[1] = Some(rm);
                    d.off = OffSpec::Reg { ty, amount, neg: !up };
                }
            }
            if load {
                if rd.is_pc() {
                    d.writes_pc = true;
                    d.serialize = true;
                } else {
                    d.dst_reg = Some(rd);
                }
            } else {
                d.src_regs[2] = Some(rd);
            }
            if wb || !pre {
                d.dst2_reg = Some(rn);
            }
        }
        Instr::MemH { load, kind, pre, up, wb, rn, rd, off, .. } => {
            d.class = ArmClass::LdSt;
            d.mem = Some(MemSpec { load, width: Width::Half(kind), pre, up, wb: wb || !pre });
            d.src_regs[0] = Some(rn);
            match off {
                HOff::Imm(v) => {
                    d.off = OffSpec::Imm(if up { i32::from(v) } else { -i32::from(v) });
                }
                HOff::Reg(rm) => {
                    d.src_regs[1] = Some(rm);
                    d.off = OffSpec::Reg { ty: ShiftTy::Lsl, amount: 0, neg: !up };
                }
            }
            if load {
                d.dst_reg = Some(rd);
            } else {
                d.src_regs[2] = Some(rd);
            }
            if wb || !pre {
                d.dst2_reg = Some(rn);
            }
        }
        Instr::Block { load, pre, up, wb, rn, list, .. } => {
            d.class = ArmClass::LdStM;
            d.mem = Some(MemSpec { load, width: Width::Word, pre, up, wb });
            d.src_regs[0] = Some(rn);
            d.reg_list = list;
            d.n_uops = list.count_ones() as u8;
            if wb {
                d.dst2_reg = Some(rn);
            }
            if load && (list >> 15) & 1 == 1 {
                d.writes_pc = true;
                d.serialize = true;
            }
        }
        Instr::Branch { link, offset, .. } => {
            d.class = ArmClass::Branch;
            d.link = link;
            d.branch_target = pc.wrapping_add(8).wrapping_add(offset as u32);
            d.writes_pc = true;
            if link {
                d.dst_reg = Some(Reg::LR);
            }
        }
        Instr::Swi { imm, .. } => {
            d.class = ArmClass::System;
            d.swi_imm = imm;
            // System calls read their argument register architecturally;
            // making r0 a source operand gives the data hazard for free.
            d.src_regs[0] = Some(Reg::new(0));
            // Readback calls (GETC/CLOCK/BRK) also write r0; the immediate
            // is decode-time static, so the destination hazard is too.
            if arm_isa::syscall::returns_value(imm) {
                d.dst_reg = Some(Reg::new(0));
            }
        }
        Instr::Undefined(_) => {
            d.class = ArmClass::System;
            d.undefined = true;
        }
    }
    d
}

impl DecInstr {
    /// Creates a token for one dynamic instance of this instruction:
    /// the template's register symbols become [`Operand`]s bound to the
    /// scoreboard, constants (including PC reads) become `Const` operands.
    pub fn instantiate(self: &Rc<Self>, pc: u32) -> ArmTok {
        let srcs = [
            operand_for(self.src_regs[0], pc),
            operand_for(self.src_regs[1], pc),
            operand_for(self.src_regs[2], pc),
            operand_for(self.src_regs[3], pc),
        ];
        ArmTok {
            dec: Rc::clone(self),
            pc,
            class: self.class.id(),
            srcs,
            dst: operand_for(self.dst_reg, pc),
            dst2: operand_for(self.dst2_reg, pc),
            addr: 0,
            wb_base: 0,
            value: 0,
            value2: 0,
            annulled: false,
            pred_target: None,
            uop: 0,
            writes_pc: self.writes_pc && self.class != ArmClass::LdStM,
            serialize_pending: false,
        }
    }
}

/// Per-address decode cache (the paper's token cache).
#[derive(Debug)]
pub struct DecodeCache {
    entries: Vec<Option<Rc<DecInstr>>>,
    /// Cache hits (reused templates).
    pub hits: u64,
    /// Cache misses (fresh decodes).
    pub misses: u64,
}

impl DecodeCache {
    /// A cache covering addresses below `text_limit`.
    pub fn new(text_limit: u32) -> Self {
        DecodeCache { entries: vec![None; (text_limit as usize).div_ceil(4)], hits: 0, misses: 0 }
    }

    /// Returns the decode template for `word` at `pc`.
    pub fn lookup(&mut self, pc: u32, word: u32) -> Rc<DecInstr> {
        let idx = (pc >> 2) as usize;
        if idx < self.entries.len() {
            if let Some(d) = &self.entries[idx] {
                self.hits += 1;
                return Rc::clone(d);
            }
            self.misses += 1;
            let d = Rc::new(decode_word(word, pc));
            self.entries[idx] = Some(Rc::clone(&d));
            d
        } else {
            self.misses += 1;
            Rc::new(decode_word(word, pc))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arm_isa::asm::assemble;

    fn dec(src: &str) -> DecInstr {
        let p = assemble(src).expect("assembles");
        decode_word(p.words[0], 0)
    }

    #[test]
    fn classes_cover_the_isa() {
        assert_eq!(dec("add r0, r1, r2\n").class, ArmClass::DataProc);
        assert_eq!(dec("mul r0, r1, r2\n").class, ArmClass::Mul);
        assert_eq!(dec("umull r0, r1, r2, r3\n").class, ArmClass::Mul);
        assert_eq!(dec("ldr r0, [r1]\n").class, ArmClass::LdSt);
        assert_eq!(dec("ldrh r0, [r1]\n").class, ArmClass::LdSt);
        assert_eq!(dec("ldmia r0, {r1, r2}\n").class, ArmClass::LdStM);
        assert_eq!(dec("b t\nt: swi #0\n").class, ArmClass::Branch);
        assert_eq!(dec("swi #0\n").class, ArmClass::System);
        assert_eq!(ArmClass::ALL.len(), 6, "paper: six operation classes");
    }

    #[test]
    fn dp_operands_and_flags() {
        let d = dec("adds r0, r1, r2, lsl #3\n");
        assert_eq!(d.src_regs[0], Some(Reg::new(1)));
        assert_eq!(d.src_regs[1], Some(Reg::new(2)));
        assert_eq!(d.dst_reg, Some(Reg::new(0)));
        assert!(d.sets_flags);
        assert_eq!(d.op2, Op2Spec::RegImm { ty: ShiftTy::Lsl, amount: 3 });

        let d = dec("mov r0, #4\n");
        assert_eq!(d.src_regs, [None; 4], "unary op reads nothing");
        assert_eq!(d.op2, Op2Spec::Imm { value: 4, carry: None });

        let d = dec("cmp r1, r2\n");
        assert_eq!(d.dst_reg, None, "tests write no register");
        assert!(d.sets_flags);
    }

    #[test]
    fn mov_pc_is_a_pc_writer() {
        let d = dec("mov pc, lr\n");
        assert!(d.writes_pc);
        assert_eq!(d.dst_reg, None, "pc is not scoreboarded");
        assert_eq!(d.src_regs[1], Some(Reg::LR));
    }

    #[test]
    fn branch_target_is_precomputed() {
        let d = dec("b t\nt: swi #0\n");
        assert_eq!(d.branch_target, 4);
        assert!(d.writes_pc);
        let d = dec("bl t\nt: swi #0\n");
        assert_eq!(d.dst_reg, Some(Reg::LR), "bl reserves lr");
    }

    #[test]
    fn load_store_fields() {
        let d = dec("ldr r0, [r1, #4]!\n");
        let m = d.mem.unwrap();
        assert!(m.load && m.pre && m.wb);
        assert_eq!(d.off, OffSpec::Imm(4));
        assert_eq!(d.dst2_reg, Some(Reg::new(1)), "writeback base is a second dest");

        let d = dec("str r2, [r3], #-8\n");
        let m = d.mem.unwrap();
        assert!(!m.load && !m.pre && m.wb, "post-index always writes back");
        assert_eq!(d.off, OffSpec::Imm(-8));
        assert_eq!(d.src_regs[2], Some(Reg::new(2)), "store data is a source");

        let d = dec("ldr r0, [r1, r2, lsl #2]\n");
        assert_eq!(d.off, OffSpec::Reg { ty: ShiftTy::Lsl, amount: 2, neg: false });
    }

    #[test]
    fn block_transfer_uops() {
        let d = dec("ldmia r0!, {r1, r2, r5}\n");
        assert_eq!(d.n_uops, 3);
        assert_eq!(d.reg_list, 0b100110);
        assert_eq!(d.dst2_reg, Some(Reg::new(0)));
        let d = dec("pop {r4, pc}\n");
        assert!(d.writes_pc && d.serialize);
    }

    #[test]
    fn instantiation_resolves_symbols() {
        let p = assemble("add r0, pc, #4\n").unwrap();
        let d = Rc::new(decode_word(p.words[0], 0x100));
        let tok = d.instantiate(0x100);
        // rn = pc resolves to the constant pc+8.
        assert_eq!(tok.srcs[0], Operand::imm(0x108));
        assert_eq!(tok.dst.reg_id(), Some(RegId::from_index(0)));
        assert_eq!(tok.class, ArmClass::DataProc.id());
    }

    #[test]
    fn decode_cache_reuses_templates() {
        let p = assemble("add r0, r0, #1\n").unwrap();
        let mut cache = DecodeCache::new(1024);
        let a = cache.lookup(0, p.words[0]);
        let b = cache.lookup(0, p.words[0]);
        assert!(Rc::ptr_eq(&a, &b), "second lookup reuses the template");
        assert_eq!(cache.hits, 1);
        assert_eq!(cache.misses, 1);
    }

    #[test]
    fn undefined_decodes_to_system_fault() {
        let d = decode_word(0xE12F_FF1E, 0); // bx lr
        assert_eq!(d.class, ArmClass::System);
        assert!(d.undefined);
    }
}
