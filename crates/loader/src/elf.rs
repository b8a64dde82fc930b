//! The ELF32 subset this crate speaks: file-format constants, the typed
//! error, and the bounds-checked little-endian readers both halves share.
//!
//! Only what an `ET_EXEC` ELF32/ARM image needs is here — no relocation,
//! no dynamic linking, no big-endian. Everything the loader rejects comes
//! back as an [`ElfError`]; nothing in this crate panics on input bytes.

use std::error::Error;
use std::fmt;

/// The four magic bytes at the start of every ELF file.
pub const ELF_MAGIC: [u8; 4] = [0x7F, b'E', b'L', b'F'];
/// `e_ident[EI_CLASS]` for 32-bit objects.
pub const ELFCLASS32: u8 = 1;
/// `e_ident[EI_DATA]` for little-endian objects.
pub const ELFDATA2LSB: u8 = 1;
/// `e_ident[EI_VERSION]` / `e_version`: the only defined ELF version.
pub const EV_CURRENT: u8 = 1;
/// `e_type` of an executable image.
pub const ET_EXEC: u16 = 2;
/// `e_machine` of ARM objects.
pub const EM_ARM: u16 = 40;
/// `e_flags` ABI tag the writer stamps (EABI version 5).
pub const EF_ARM_EABI_VER5: u32 = 0x0500_0000;
/// `p_type` of a loadable program segment.
pub const PT_LOAD: u32 = 1;
/// Segment permission: executable.
pub const PF_X: u32 = 1;
/// Segment permission: writable.
pub const PF_W: u32 = 2;
/// Segment permission: readable.
pub const PF_R: u32 = 4;
/// `sh_type` of a program-defined section.
pub const SHT_PROGBITS: u32 = 1;
/// `sh_type` of a symbol table.
pub const SHT_SYMTAB: u32 = 2;
/// `sh_type` of a string table.
pub const SHT_STRTAB: u32 = 3;
/// Size of the ELF32 file header.
pub const EHDR_LEN: usize = 52;
/// Size of one ELF32 program header.
pub const PHDR_LEN: usize = 32;
/// Size of one ELF32 section header.
pub const SHDR_LEN: usize = 40;
/// Size of one ELF32 symbol-table entry.
pub const SYM_LEN: usize = 16;
/// `st_info` the writer stamps on label symbols (`STB_GLOBAL`,
/// `STT_NOTYPE`).
pub const STB_GLOBAL_NOTYPE: u8 = 0x10;

/// A typed, never-panicking ELF decode failure.
///
/// Every malformed input maps to a variant that names what was wrong and
/// (where useful) what was found, so a bad binary is diagnosable from the
/// message alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElfError {
    /// The first four bytes are not [`ELF_MAGIC`].
    BadMagic {
        /// The bytes actually found.
        found: [u8; 4],
    },
    /// `e_ident[EI_CLASS]` is not [`ELFCLASS32`] (e.g. a 64-bit binary).
    BadClass {
        /// The class byte actually found.
        found: u8,
    },
    /// `e_machine` is not [`EM_ARM`] (a binary for another architecture).
    BadMachine {
        /// The machine value actually found.
        found: u16,
    },
    /// The file ends before a structure it promises.
    Truncated {
        /// What was being read.
        what: &'static str,
        /// Bytes the structure needs.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// A structurally invalid file: headers contradict each other or the
    /// ELF rules.
    Corrupt {
        /// What was being validated.
        what: &'static str,
        /// Why it is invalid.
        detail: String,
    },
    /// Valid ELF, but outside the subset this loader executes (big-endian,
    /// relocatable objects, ...).
    UnsupportedFeature {
        /// The feature encountered.
        what: &'static str,
        /// What was found instead of the supported value.
        detail: String,
    },
}

impl fmt::Display for ElfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElfError::BadMagic { found } => {
                write!(f, "not an ELF file: magic {found:02x?}, expected {ELF_MAGIC:02x?}")
            }
            ElfError::BadClass { found } => {
                write!(f, "not a 32-bit ELF: EI_CLASS {found}, expected {ELFCLASS32} (ELFCLASS32)")
            }
            ElfError::BadMachine { found } => {
                write!(f, "not an ARM binary: e_machine {found}, expected {EM_ARM} (EM_ARM)")
            }
            ElfError::Truncated { what, need, have } => {
                write!(f, "truncated ELF: {what} needs {need} bytes, file has {have}")
            }
            ElfError::Corrupt { what, detail } => write!(f, "corrupt ELF ({what}): {detail}"),
            ElfError::UnsupportedFeature { what, detail } => {
                write!(f, "unsupported ELF feature ({what}): {detail}")
            }
        }
    }
}

impl Error for ElfError {}

/// Reads a little-endian `u16` at `off`, or [`ElfError::Truncated`].
pub(crate) fn read_u16(bytes: &[u8], off: usize, what: &'static str) -> Result<u16, ElfError> {
    match bytes.get(off..off + 2) {
        Some(b) => Ok(u16::from_le_bytes([b[0], b[1]])),
        None => Err(ElfError::Truncated { what, need: off + 2, have: bytes.len() }),
    }
}

/// Reads a little-endian `u32` at `off`, or [`ElfError::Truncated`].
pub(crate) fn read_u32(bytes: &[u8], off: usize, what: &'static str) -> Result<u32, ElfError> {
    match bytes.get(off..off + 4) {
        Some(b) => Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
        None => Err(ElfError::Truncated { what, need: off + 4, have: bytes.len() }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_actionable_messages() {
        let cases: Vec<(ElfError, &str)> = vec![
            (ElfError::BadMagic { found: [0, 1, 2, 3] }, "not an ELF file"),
            (ElfError::BadClass { found: 2 }, "ELFCLASS32"),
            (ElfError::BadMachine { found: 62 }, "EM_ARM"),
            (ElfError::Truncated { what: "ELF header", need: 52, have: 3 }, "needs 52 bytes"),
            (
                ElfError::Corrupt { what: "entry", detail: "outside any PT_LOAD".into() },
                "corrupt ELF (entry)",
            ),
            (
                ElfError::UnsupportedFeature { what: "encoding", detail: "big-endian".into() },
                "unsupported ELF feature",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
    }

    #[test]
    fn readers_are_bounds_checked() {
        assert_eq!(read_u32(&[1, 0, 0, 0], 0, "x"), Ok(1));
        assert_eq!(read_u16(&[7, 0], 0, "x"), Ok(7));
        assert_eq!(
            read_u32(&[1, 2, 3], 0, "header"),
            Err(ElfError::Truncated { what: "header", need: 4, have: 3 })
        );
        assert_eq!(
            read_u16(&[1], 4, "field"),
            Err(ElfError::Truncated { what: "field", need: 6, have: 1 })
        );
    }
}
