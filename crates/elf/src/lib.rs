//! From-scratch ELF64 container support.
//!
//! Binary analysis starts from the container: the parser seeds CFG
//! construction from function symbols (`F0` in the paper's Section 3 is
//! "the set of candidate function entry blocks discovered via the binary's
//! symbol table"), and the structure/forensics tools read `.text`,
//! `.rodata` (jump tables live there) and the debug sections. Rather than
//! binding to libelf/goblin, this crate implements the pieces of the ELF64
//! specification the system needs — in both directions:
//!
//! * [`image`] — shared input bytes ([`ImageBytes`]): `Arc`-cloned, and
//!   memory-mapped straight off disk where the platform allows, so a
//!   resident session pins no anonymous heap for the raw file;
//! * [`read`] — parse headers, section tables, string tables and symbol
//!   tables out of a byte image;
//! * [`write`](mod@write) — lay out and serialize a well-formed ELF64
//!   image (used by the synthetic workload generator);
//! * [`demangle`] — a miniature Itanium-style demangler; the parser and
//!   the structure output match and print symbols by their "pretty" name.
//!
//! Round-trip invariant: anything [`write::ElfBuilder`] produces,
//! [`read::Elf`] parses back with identical sections and symbols; tests
//! enforce this.

pub mod demangle;
pub mod image;
pub mod read;
pub mod types;
pub mod write;

pub use image::ImageBytes;
pub use read::Elf;
pub use types::{ElfError, SecFlags, SecType, SymBind, SymType};
pub use write::ElfBuilder;
