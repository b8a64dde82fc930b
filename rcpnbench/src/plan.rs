//! What a run does, derived from `--workload` and `--seed` alone.
//!
//! The seed fixes each round's rotation order, each kernel's problem size
//! inside a fixed band, and the `serve-mix` job list. Kernel *data* comes
//! from the fixed seeds inside the `workloads` crate.

use processors::sim::ProcModel;
use workloads::Kernel;

/// SplitMix64: a small, well-mixed generator that needs no dependency.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 10: the six kernels on RCPN-StrongArm, RCPN-XScale and
    /// SimpleScalar-Arm at their default configurations.
    Fig10,
    /// The same comparison on a small direct-mapped cache with a long miss
    /// latency, where idle cycles dominate.
    MemoryBound,
    /// Short jobs served over TCP by an in-process `rcpn-serve`.
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Fig10, Workload::MemoryBound, Workload::ServeMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig10 => "fig10",
            Workload::MemoryBound => "memory-bound",
            Workload::ServeMix => "serve-mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The size band `(lo, hi)` of each kernel as a scale of
    /// [`Kernel::bench_size`] (see [`Kernel::scaled_size`]).
    fn scale_band(self) -> (f64, f64) {
        match self {
            // ±3 %: wide enough to vary the inputs, narrow enough that job
            // latencies (which scale with size) stay comparable across seeds.
            Workload::Fig10 => (0.097, 0.103),
            // Long misses multiply cycles; a smaller size keeps rounds short.
            Workload::MemoryBound => (0.0485, 0.0515),
            Workload::ServeMix => (0.0, 0.02),
        }
    }
}

/// One program of a run: a kernel at a problem size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramSpec {
    pub kernel: Kernel,
    pub size: usize,
}

/// Sizes of a paired-round or served program set.
///
/// `fig10`/`memory-bound`: one program per kernel, its size drawn uniformly
/// from the band. `serve-mix`: [`SERVE_SIZES_PER_KERNEL`] programs per
/// kernel, one per equal stratum of the band, so every seed serves the same
/// spread of job lengths.
pub fn programs(workload: Workload, seed: u64) -> Vec<ProgramSpec> {
    let mut rng = Rng::new(seed);
    let (lo, hi) = workload.scale_band();
    let strata = if workload == Workload::ServeMix { SERVE_SIZES_PER_KERNEL } else { 1 };
    let mut out = Vec::new();
    for kernel in Kernel::ALL {
        let (min, max) = (kernel.scaled_size(lo), kernel.scaled_size(hi));
        for s in 0..strata {
            let at = (s as f64 + rng.unit()) / strata as f64;
            let size = min + ((max - min) as f64 * at).round() as usize;
            out.push(ProgramSpec { kernel, size });
        }
    }
    out
}

/// Sizes per kernel in the `serve-mix` program set.
pub const SERVE_SIZES_PER_KERNEL: usize = 3;

/// Copies of each distinct (model, program) job in the `serve-mix` list.
pub const SERVE_COPIES: usize = 4;

/// One served job: a registry model on one program of [`programs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeJob {
    pub model: ProcModel,
    pub program: usize,
}

/// The `serve-mix` job list: every registry model × every program,
/// [`SERVE_COPIES`] times, in seeded order. The client cycles through it
/// for as long as the serve phase lasts.
pub fn serve_jobs(n_programs: usize, seed: u64) -> Vec<ServeJob> {
    let mut jobs = Vec::new();
    for _ in 0..SERVE_COPIES {
        for model in ProcModel::ALL {
            jobs.extend((0..n_programs).map(|program| ServeJob { model, program }));
        }
    }
    Rng::new(seed ^ 0x6a6f_6273).shuffle(&mut jobs);
    jobs
}

/// The order of one paired round as `(program, config)` pairs: programs
/// in a seeded rotation, and the configurations of each program, which run
/// together, in a seeded rotation. Every pair appears once.
pub fn round_order(rng: &mut Rng, n_programs: usize, n_configs: usize) -> Vec<(usize, usize)> {
    let mut programs: Vec<usize> = (0..n_programs).collect();
    rng.shuffle(&mut programs);
    let mut order = Vec::with_capacity(n_programs * n_configs);
    for program in programs {
        let first = rng.below(n_configs);
        order.extend((0..n_configs).map(|i| (program, (first + i) % n_configs)));
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sizes_and_jobs() {
        for w in Workload::ALL {
            assert_eq!(programs(w, 7), programs(w, 7));
        }
        let n = programs(Workload::ServeMix, 7).len();
        assert_eq!(serve_jobs(n, 7), serve_jobs(n, 7));
        let (mut a, mut b) = (Rng::new(3), Rng::new(3));
        assert_eq!(round_order(&mut a, 6, 3), round_order(&mut b, 6, 3));
    }

    #[test]
    fn other_seeds_change_sizes_inside_the_band() {
        let a = programs(Workload::Fig10, 1);
        let b = programs(Workload::Fig10, 2);
        assert_ne!(a, b);
        for p in a.iter().chain(&b) {
            let k = p.kernel;
            assert!(p.size >= k.scaled_size(0.097) && p.size <= k.scaled_size(0.103), "{p:?}");
        }
    }

    #[test]
    fn serve_programs_cover_every_stratum() {
        let p = programs(Workload::ServeMix, 11);
        assert_eq!(p.len(), Kernel::ALL.len() * SERVE_SIZES_PER_KERNEL);
        for chunk in p.chunks(SERVE_SIZES_PER_KERNEL) {
            assert!(chunk.windows(2).all(|w| w[0].size <= w[1].size), "{chunk:?}");
        }
        let jobs = serve_jobs(p.len(), 11);
        assert_eq!(jobs.len(), SERVE_COPIES * ProcModel::ALL.len() * p.len());
        for model in ProcModel::ALL {
            for program in 0..p.len() {
                let n = jobs.iter().filter(|j| **j == ServeJob { model, program }).count();
                assert_eq!(n, SERVE_COPIES);
            }
        }
    }

    #[test]
    fn a_round_runs_every_pair_once_with_a_program_s_configs_adjacent() {
        let mut rng = Rng::new(5);
        let order = round_order(&mut rng, 6, 3);
        assert_eq!(order.len(), 18);
        for program in 0..6 {
            for config in 0..3 {
                assert!(order.contains(&(program, config)));
            }
        }
        assert!(order.chunks(3).all(|c| c.iter().all(|&(p, _)| p == c[0].0)));
    }
}
