//! # workloads — the paper's benchmark suite, rebuilt
//!
//! The paper evaluates on adpcm, blowfish, compress, crc, g721 and go,
//! compiled with `arm-linux-gcc`. This workspace cannot ship a
//! cross-compiler or the SPEC inputs, so each benchmark is re-implemented
//! as an ARM7 assembly kernel with the same algorithmic core and
//! instruction mix (the substitution is documented in `DESIGN.md`):
//!
//! | kernel     | origin     | character                                   |
//! |------------|------------|---------------------------------------------|
//! | `adpcm`    | MediaBench | table-driven codec, conditional execution    |
//! | `blowfish` | MiBench    | S-box Feistel cipher, dependent loads        |
//! | `compress` | SPEC95     | LZSS search, nested data-dependent loops     |
//! | `crc`      | MiBench    | bitwise CRC-32, tight ALU/branch loop        |
//! | `g721`     | MediaBench | adaptive predictor, multiply-heavy           |
//! | `go`       | SPEC95     | board evaluator, unpredictable branches      |
//!
//! Every kernel returns a checksum in `r0` through `swi #0`; the checksum
//! is independently computed by a Rust gold model, so any simulator can be
//! validated end to end. All inputs are generated from fixed seeds — runs
//! are exactly reproducible.
//!
//! ```
//! use workloads::{Kernel, Workload};
//!
//! let w = Workload::build(Kernel::Crc, 256);
//! assert_eq!(w.kernel, Kernel::Crc);
//! // The program is ready to load into any of the simulators:
//! assert!(w.program.words.len() > 64);
//! ```

pub mod kernels;
pub mod rng;

use arm_isa::asm::assemble;
use arm_isa::program::Program;

/// The six benchmarks of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// IMA ADPCM encoder (MediaBench).
    Adpcm,
    /// Feistel cipher (MiBench).
    Blowfish,
    /// LZSS compressor (SPEC95 compress).
    Compress,
    /// Bitwise CRC-32 (MiBench).
    Crc,
    /// Adaptive-predictor ADPCM (MediaBench).
    G721,
    /// Board-game evaluator (SPEC95 go).
    Go,
}

impl Kernel {
    /// All kernels, in the paper's figure order.
    pub const ALL: [Kernel; 6] =
        [Kernel::Adpcm, Kernel::Blowfish, Kernel::Compress, Kernel::Crc, Kernel::G721, Kernel::Go];

    /// The benchmark name as it appears in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Adpcm => "adpcm",
            Kernel::Blowfish => "blowfish",
            Kernel::Compress => "compress",
            Kernel::Crc => "crc",
            Kernel::G721 => "g721",
            Kernel::Go => "go",
        }
    }

    /// Default problem size for benchmarking (targets millions of cycles).
    pub fn bench_size(self) -> usize {
        match self {
            Kernel::Adpcm => 20_000,
            Kernel::Blowfish => 1_500,
            Kernel::Compress => 12_000,
            Kernel::Crc => 12_000,
            Kernel::G721 => 12_000,
            Kernel::Go => 700,
        }
    }

    /// Accepts a size scale for [`Kernel::scaled_size`]: finite and inside
    /// `[0, 1]`. Every front end (command lines, the wire decoder) checks
    /// with this before sizing a workload; an unbounded scale would ask
    /// for a `usize::MAX`-sized one.
    ///
    /// # Errors
    ///
    /// A message naming the rejected scale.
    pub fn check_scale(scale: f64) -> Result<f64, String> {
        if (0.0..=1.0).contains(&scale) {
            Ok(scale)
        } else {
            Err(format!("scale {scale:?} is outside [0, 1]"))
        }
    }

    /// Problem size at `scale` relative to [`Kernel::bench_size`], floored
    /// at [`Kernel::test_size`] so a scaled workload always does real work.
    ///
    /// `1.0` is the paper-style bench size, `0.0` the test size; this is
    /// the size axis used by sweep job matrices.
    pub fn scaled_size(self, scale: f64) -> usize {
        ((self.bench_size() as f64 * scale) as usize).max(self.test_size())
    }

    /// Small problem size for tests (tens of thousands of cycles).
    pub fn test_size(self) -> usize {
        match self {
            Kernel::Adpcm => 300,
            Kernel::Blowfish => 30,
            Kernel::Compress => 400,
            Kernel::Crc => 150,
            Kernel::G721 => 300,
            Kernel::Go => 12,
        }
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A ready-to-run benchmark: assembled program plus its gold checksum.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which benchmark this is.
    pub kernel: Kernel,
    /// Problem size (kernel-specific unit: bytes, samples, blocks, passes).
    pub size: usize,
    /// The assembled program.
    pub program: Program,
    /// Expected exit code (`r0` at `swi #0`), from the Rust gold model.
    pub expected: u32,
}

impl Workload {
    /// Builds a workload at an explicit size.
    ///
    /// # Panics
    ///
    /// Panics if the generated assembly fails to assemble — that is a bug
    /// in this crate, not a user error.
    pub fn build(kernel: Kernel, size: usize) -> Workload {
        let (src, expected) = match kernel {
            Kernel::Adpcm => kernels::adpcm::build(size),
            Kernel::Blowfish => kernels::blowfish::build(size),
            Kernel::Compress => kernels::compress::build(size),
            Kernel::Crc => kernels::crc::build(size),
            Kernel::G721 => kernels::g721::build(size),
            Kernel::Go => kernels::go::build(size),
        };
        let program =
            assemble(&src).unwrap_or_else(|e| panic!("kernel {kernel} failed to assemble: {e}"));
        Workload { kernel, size, program, expected }
    }

    /// The benchmark suite at bench sizes (the Fig. 10/11 configuration).
    pub fn bench_suite() -> Vec<Workload> {
        Kernel::ALL.iter().map(|&k| Workload::build(k, k.bench_size())).collect()
    }

    /// The benchmark suite at small sizes, for tests (`scaled_size` floors
    /// at the test size, so scale 0 selects it for every kernel).
    pub fn test_suite() -> Vec<Workload> {
        Workload::suite(0.0)
    }

    /// The full suite at one size scale (see [`Kernel::scaled_size`]).
    pub fn suite(scale: f64) -> Vec<Workload> {
        Workload::matrix(&Kernel::ALL, &[scale])
    }

    /// Enumerates the workload axis of a sweep job matrix: the cartesian
    /// product `kernels × scales`, in row-major order (all scales of the
    /// first kernel, then the next kernel).
    ///
    /// Sweep harnesses cross this axis with simulator-side axes (processor
    /// model, engine configuration) to form the full job matrix; keeping
    /// the enumeration order fixed here is what gives batched sweeps a
    /// stable job numbering, and therefore a deterministic merge order.
    pub fn matrix(kernels: &[Kernel], scales: &[f64]) -> Vec<Workload> {
        kernels
            .iter()
            .flat_map(|&k| scales.iter().map(move |&s| Workload::build(k, k.scaled_size(s))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arm_isa::iss::Iss;

    #[test]
    fn every_kernel_assembles_and_matches_gold_on_the_iss() {
        for kernel in Kernel::ALL {
            let w = Workload::build(kernel, kernel.test_size());
            let mut iss = Iss::from_program(&w.program);
            iss.run(50_000_000).unwrap_or_else(|e| panic!("{kernel}: {e}"));
            assert!(iss.halted(), "{kernel} must exit");
            assert_eq!(
                iss.exit_code(),
                w.expected,
                "{kernel}: ISS checksum {:#x} != gold {:#x}",
                iss.exit_code(),
                w.expected
            );
        }
    }

    #[test]
    fn workloads_are_deterministic() {
        let a = Workload::build(Kernel::Crc, 64);
        let b = Workload::build(Kernel::Crc, 64);
        assert_eq!(a.program.words, b.program.words);
        assert_eq!(a.expected, b.expected);
    }

    #[test]
    fn sizes_scale_instruction_counts() {
        let small = Workload::build(Kernel::Crc, 32);
        let big = Workload::build(Kernel::Crc, 128);
        let count = |w: &Workload| {
            let mut iss = Iss::from_program(&w.program);
            iss.run(10_000_000).unwrap();
            iss.instr_count()
        };
        assert!(count(&big) > 3 * count(&small));
    }

    #[test]
    fn matrix_enumeration_is_row_major_and_floored() {
        let m = Workload::matrix(&[Kernel::Crc, Kernel::Go], &[0.0, 1.0]);
        assert_eq!(m.len(), 4);
        assert_eq!(
            m.iter().map(|w| (w.kernel, w.size)).collect::<Vec<_>>(),
            vec![
                (Kernel::Crc, Kernel::Crc.test_size()),
                (Kernel::Crc, Kernel::Crc.bench_size()),
                (Kernel::Go, Kernel::Go.test_size()),
                (Kernel::Go, Kernel::Go.bench_size()),
            ]
        );
        assert_eq!(Kernel::Crc.scaled_size(1e-9), Kernel::Crc.test_size(), "floor at test size");
    }

    #[test]
    fn scale_is_checked_at_its_boundaries() {
        for scale in [0.0, 0.5, 1.0] {
            assert_eq!(Kernel::check_scale(scale), Ok(scale));
        }
        for scale in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.0 + f64::EPSILON, 1e300] {
            let err = Kernel::check_scale(scale).expect_err("out-of-range scale is rejected");
            assert!(err.contains("scale"), "{err}");
        }
    }

    #[test]
    fn checksums_differ_across_kernels() {
        use std::collections::HashSet;
        let set: std::collections::HashSet<u32> =
            Kernel::ALL.iter().map(|&k| Workload::build(k, k.test_size()).expected).collect();
        let _ = &set as &HashSet<u32>;
        assert_eq!(set.len(), 6, "checksum collision between kernels is suspicious");
    }
}
