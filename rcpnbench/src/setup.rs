//! Set-up: kernel build, ELF round trip, model compile and (for
//! `serve-mix`) `Server::bind`. Everything before the first timed
//! simulation or submitted job.

use arm_isa::program::{MemLayout, Program};
use baseline_sim::SsConfig;
use memsys::cache::CacheConfig;
use processors::sim::{CompiledSim, ProcModel};
use rcpn_loader::{load_elf, to_elf_bytes};
use rcpn_serve::server::{ServeConfig, Server};

use crate::plan::{ProgramSpec, Workload};
use crate::stats::Tally;
use crate::trace::Tracer;

/// A kernel program ready to run: built, written to ELF and loaded back.
pub struct Prepared {
    pub spec: ProgramSpec,
    /// Gold checksum from the `workloads` crate's Rust model.
    pub expected: u32,
    /// The program as loaded from its ELF image.
    pub program: Program,
    /// The memory layout simulations run under: the ELF-derived one, or
    /// the default layout on `serve-mix` (the layout a served job gets).
    pub layout: MemLayout,
    pub elf_bytes: usize,
}

/// One compared configuration of a paired round: what it simulates with.
pub enum Engine {
    Rcpn(CompiledSim),
    Baseline(SsConfig),
}

impl Engine {
    pub fn model(&self) -> Option<ProcModel> {
        match self {
            Engine::Rcpn(c) => Some(c.model()),
            Engine::Baseline(_) => None,
        }
    }
}

/// Index of RCPN-StrongArm and RCPN-XScale in every workload's configs;
/// the baseline is always last.
pub const STRONGARM: usize = 0;
pub const XSCALE: usize = 1;

/// The memory-bound design point: a 4-set direct-mapped cache with 16 B
/// lines, 10-cycle I-misses and 100-cycle D-misses.
pub fn memory_bound_caches() -> (CacheConfig, CacheConfig) {
    let icache = CacheConfig::tiny();
    (icache, CacheConfig { miss_latency: 100, ..icache })
}

pub struct Setup {
    pub programs: Vec<Prepared>,
    pub configs: Vec<Engine>,
    pub server: Option<Server>,
}

impl Setup {
    pub fn baseline(&self) -> usize {
        self.configs.len() - 1
    }
}

/// Builds everything a run needs. Failures of the ELF round trip are
/// counted in `tally` (when given) and the assembled program is used
/// instead.
///
/// # Errors
///
/// The server cannot be bound.
pub fn setup(
    workload: Workload,
    specs: &[ProgramSpec],
    tr: &mut Tracer,
    mut tally: Option<&mut Tally>,
) -> std::io::Result<Setup> {
    let root = tr.enter("bench.setup", 0);
    let mut programs = Vec::with_capacity(specs.len());
    for (i, &spec) in specs.iter().enumerate() {
        let job = i as u64;
        let o = tr.enter("workloads.build", job);
        let w = workloads::Workload::build(spec.kernel, spec.size);
        tr.exit(o);
        let o = tr.enter("loader.to_elf_bytes", job);
        let bytes = to_elf_bytes(&w.program);
        tr.exit(o);
        let o = tr.enter("loader.load_elf", job);
        let loaded = load_elf(&bytes);
        tr.exit(o);
        let (program, layout, failure) = match loaded {
            Ok(img)
                if img.program.words == w.program.words && img.program.entry == w.program.entry =>
            {
                (img.program, img.layout, None)
            }
            Ok(_) => {
                (w.program, MemLayout::default(), Some("elf round trip changed the image".into()))
            }
            Err(e) => (w.program, MemLayout::default(), Some(format!("load_elf: {e}"))),
        };
        if let Some(t) = tally.as_deref_mut() {
            t.record(failure);
        }
        let layout = if workload == Workload::ServeMix { MemLayout::default() } else { layout };
        programs.push(Prepared {
            spec,
            expected: w.expected,
            program,
            layout,
            elf_bytes: bytes.len(),
        });
    }

    let mut configs = Vec::new();
    let rcpn_models: &[ProcModel] = match workload {
        Workload::ServeMix => &ProcModel::ALL,
        _ => &[ProcModel::StrongArm, ProcModel::XScale],
    };
    for &model in rcpn_models {
        let mut cfg = model.default_config();
        if workload == Workload::MemoryBound {
            (cfg.icache, cfg.dcache) = memory_bound_caches();
        }
        let o = tr.enter("processors.compile", 0);
        let compiled = CompiledSim::new(model, &cfg);
        tr.exit(o);
        configs.push(Engine::Rcpn(compiled));
    }
    let mut ss = SsConfig::default();
    if workload == Workload::MemoryBound {
        (ss.icache, ss.dcache) = memory_bound_caches();
    }
    configs.push(Engine::Baseline(ss));

    let server = if workload == Workload::ServeMix {
        let o = tr.enter("serve.bind", 0);
        let config = ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: host_threads(),
            ..Default::default()
        };
        let server = Server::bind(config).map_err(|e| std::io::Error::other(e.to_string()))?;
        tr.exit(o);
        Some(server)
    } else {
        None
    };
    tr.exit(root);
    Ok(Setup { programs, configs, server })
}

/// Host hardware threads (the served worker count and in-flight cap).
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
