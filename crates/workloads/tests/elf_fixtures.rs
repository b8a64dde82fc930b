//! Golden `.elf` fixtures: every fig10 kernel (at its test size) is
//! committed as a real ELF binary under `fixtures/`, and this suite
//! re-derives each from its kernel source on every run — the fixtures can
//! never rot silently.
//!
//! Blessing flow: when a kernel
//! or the ELF writer changes intentionally, run
//!
//! ```text
//! RCPN_BLESS=1 cargo test -p workloads --test elf_fixtures
//! ```
//!
//! and commit the rewritten fixtures. Any other diff is a real drift and
//! fails loudly.

use std::path::PathBuf;

use rcpn_loader::{load_elf, ProgramToElf};
use workloads::{Kernel, Workload};

fn fixture_path(kernel: Kernel) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures"))
        .join(format!("{}.elf", kernel.name()))
}

fn bless_requested() -> bool {
    std::env::var_os("RCPN_BLESS").is_some_and(|v| v == "1")
}

/// Committed fixture == fresh derivation, byte for byte, per kernel.
#[test]
fn committed_fixtures_match_fresh_derivation() {
    for &kernel in Kernel::ALL.iter() {
        let w = Workload::build(kernel, kernel.test_size());
        let fresh = w.program.to_elf_bytes();
        let path = fixture_path(kernel);
        if bless_requested() {
            std::fs::create_dir_all(path.parent().unwrap()).expect("create fixtures dir");
            std::fs::write(&path, &fresh).expect("write blessed fixture");
            eprintln!("blessed {} ({} bytes)", path.display(), fresh.len());
            continue;
        }
        let committed = std::fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden fixture {} ({e}); bless it with \
                 `RCPN_BLESS=1 cargo test -p workloads --test elf_fixtures`",
                path.display()
            )
        });
        assert_eq!(
            committed,
            fresh,
            "{}: committed .elf differs from a fresh `to_elf_bytes` of the kernel — \
             if the kernel or the ELF writer changed intentionally, re-bless with \
             `RCPN_BLESS=1 cargo test -p workloads --test elf_fixtures` and commit; \
             otherwise this is silent fixture rot",
            kernel.name()
        );
    }
}

/// The committed binaries are not just byte-stable — they *run*: loading
/// each fixture and executing it on the ISS reproduces the kernel's gold
/// checksum.
#[test]
fn committed_fixtures_reproduce_gold_checksums() {
    if bless_requested() {
        return; // freshly blessed files are covered by the identity test
    }
    for &kernel in Kernel::ALL.iter() {
        let w = Workload::build(kernel, kernel.test_size());
        let bytes = std::fs::read(fixture_path(kernel)).expect("fixture exists (see bless flow)");
        let image = load_elf(&bytes).expect("committed fixture loads");
        let mut iss = image.iss();
        iss.run(50_000_000).expect("fixture runs clean");
        assert!(iss.halted(), "{}: fixture must exit", kernel.name());
        assert_eq!(
            iss.exit_code(),
            w.expected,
            "{}: committed .elf no longer reproduces the gold checksum",
            kernel.name()
        );
    }
}
