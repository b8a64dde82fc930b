//! Machine resources for the ARM cycle-accurate models.
//!
//! [`ArmRes`] is the `R` parameter of the RCPN [`rcpn::model::Machine`]:
//! the non-pipeline units transitions may reference directly (paper,
//! Section 3) — memory, caches, branch predictor — plus the architectural
//! front-end state (PC, CPSR) and simulation bookkeeping.

use arm_isa::program::{MemLayout, Program};
use arm_isa::syscall::SysInput;
use arm_isa::types::Psr;
use memsys::bpred::Btb;
use memsys::cache::{Cache, CacheConfig};
use memsys::FlatMem;

use crate::armtok::DecodeCache;

/// Configuration of an ARM cycle-accurate simulator.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Instruction-cache geometry.
    pub icache: CacheConfig,
    /// Data-cache geometry.
    pub dcache: CacheConfig,
    /// Use a BTB front end (XScale) instead of predict-not-taken
    /// (StrongARM).
    pub btb: bool,
    /// How spec-synthesized read steps are represented:
    /// [`rcpn::spec::Lowering::Auto`] (micro-op IR, the default) or
    /// [`rcpn::spec::Lowering::Closures`] (the pre-IR dispatch, kept as
    /// the differential oracle and the dispatch-ablation row).
    pub lowering: rcpn::spec::Lowering,
    /// Engine configuration (table mode, two-list policy — ablations).
    pub engine: rcpn::engine::EngineConfig,
}

impl SimConfig {
    /// StrongARM SA-110 defaults: 16 KB caches, no dynamic prediction.
    pub fn strongarm() -> Self {
        SimConfig {
            icache: CacheConfig::strongarm_16k(),
            dcache: CacheConfig::strongarm_16k(),
            btb: false,
            lowering: rcpn::spec::Lowering::Auto,
            engine: rcpn::engine::EngineConfig::default(),
        }
    }

    /// XScale defaults: 32 KB caches, 128-entry BTB.
    pub fn xscale() -> Self {
        SimConfig {
            icache: CacheConfig::xscale_32k(),
            dcache: CacheConfig::xscale_32k(),
            btb: true,
            lowering: rcpn::spec::Lowering::Auto,
            engine: rcpn::engine::EngineConfig::default(),
        }
    }

    /// SuperARM defaults: the SA-110 memory system (16 KB caches,
    /// predict-not-taken) under the seven-stage superpipeline — the knob
    /// that differs is pipeline depth, not the cache hierarchy.
    pub fn superarm() -> Self {
        SimConfig::strongarm()
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::strongarm()
    }
}

/// The non-pipeline units and architectural front-end state.
#[derive(Debug)]
pub struct ArmRes {
    /// Main memory.
    pub mem: FlatMem,
    /// Instruction cache (timing).
    pub icache: Cache,
    /// Data cache (timing).
    pub dcache: Cache,
    /// Branch target buffer (XScale-style front ends).
    pub btb: Option<Btb>,
    /// Fetch program counter.
    pub pc: u32,
    /// Status flags (updated in program order at execute).
    pub cpsr: Psr,
    /// The decode/token cache.
    pub dec_cache: DecodeCache,
    /// Output stream of the semihosting interface.
    pub output: Vec<u8>,
    /// Input stream of the semihosting interface (`swi #4`).
    pub input: SysInput,
    /// Program break reported/moved by `swi #6` (starts at the image end).
    pub brk: u32,
    /// System calls executed with no implementation behind them.
    pub unknown_swis: u64,
    /// Initial stack pointer (from the memory layout the resources were
    /// built under).
    pub stack_top: u32,
    /// Exit code once the program has terminated.
    pub exit: Option<u32>,
    /// Fault description (undefined instruction, ...).
    pub fault: Option<String>,
    /// Fetch is stalled until this many serializing instructions resolve
    /// (loads into PC, flag-setting multiplies).
    pub pending_serialize: u32,
    /// Taken redirects performed (branches, PC writes).
    pub redirects: u64,
    /// Front-end mispredictions that caused a squash.
    pub squashes: u64,
    /// Architectural instructions completed (micro-ops count once, through
    /// their parent).
    pub instr_done: u64,
}

impl ArmRes {
    /// Builds the resources for `program` under `config`, with the image
    /// loaded, PC at the entry point and the stack pointer convention of
    /// [`arm_isa::program`].
    pub fn new(program: &Program, config: &SimConfig) -> Self {
        ArmRes::with_layout(program, config, MemLayout::default())
    }

    /// Builds the resources under an explicit memory layout (loaders
    /// derive one from the image; [`ArmRes::new`] uses the default).
    pub fn with_layout(program: &Program, config: &SimConfig, layout: MemLayout) -> Self {
        let mem = program.to_memory_sized(layout.mem_bytes);
        let text_limit = program.base + program.size_bytes() + 4096;
        ArmRes {
            mem,
            icache: Cache::new(config.icache),
            dcache: Cache::new(config.dcache),
            btb: if config.btb { Some(Btb::xscale()) } else { None },
            pc: program.entry,
            cpsr: Psr::new(),
            dec_cache: DecodeCache::new(text_limit),
            output: Vec::new(),
            input: SysInput::default(),
            brk: program.image_end(),
            unknown_swis: 0,
            stack_top: layout.stack_top,
            exit: None,
            fault: None,
            pending_serialize: 0,
            redirects: 0,
            squashes: 0,
            instr_done: 0,
        }
    }

    /// The initial stack-pointer value simulators must poke into `r13`.
    pub fn initial_sp(&self) -> u32 {
        self.stack_top
    }

    /// Builds a complete initial [`rcpn::model::Machine`] for `program`:
    /// the 15-register scoreboarded bank, loaded memory image, and the
    /// stack pointer poked into `r13`. This is the per-program state a
    /// compiled processor model is instantiated over.
    pub fn machine(program: &Program, config: &SimConfig) -> rcpn::model::Machine<ArmRes> {
        ArmRes::machine_with(program, config, MemLayout::default())
    }

    /// [`ArmRes::machine`] under an explicit memory layout.
    pub fn machine_with(
        program: &Program,
        config: &SimConfig,
        layout: MemLayout,
    ) -> rcpn::model::Machine<ArmRes> {
        use rcpn::ids::RegId;
        use rcpn::reg::RegisterFile;
        let mut rf = RegisterFile::new();
        rf.add_bank("r", 15);
        let res = ArmRes::with_layout(program, config, layout);
        let sp = res.initial_sp();
        let mut machine = rcpn::model::Machine::new(rf, res);
        machine.regs.poke(RegId::from_index(13), sp);
        machine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arm_isa::asm::assemble;

    #[test]
    fn presets_differ_as_documented() {
        let sa = SimConfig::strongarm();
        let xs = SimConfig::xscale();
        assert!(!sa.btb && xs.btb);
        assert!(xs.icache.capacity() > sa.icache.capacity());
    }

    #[test]
    fn res_loads_program() {
        use memsys::Memory;
        let p = assemble("mov r0, #1\nswi #0\n").unwrap();
        let cfg = SimConfig::strongarm();
        let mut res = ArmRes::new(&p, &cfg);
        assert_eq!(res.pc, 0);
        assert_eq!(res.mem.read32(0), p.words[0]);
        assert!(res.btb.is_none());
        assert_eq!(res.initial_sp() % 8, 0);
    }
}
