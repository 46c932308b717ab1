//! The unified analysis error.
//!
//! Every layer used to fail differently: `pba-elf` with [`ElfError`],
//! `pba-dwarf` with [`DwarfError`], the applications with bare
//! `String`s, and the CLI with `eprintln!`+`exit` ladders. [`Error`]
//! wraps them all so a consumer handles one type — and so a session can
//! memoize a *failed* artifact (errors are `Clone`) and hand every
//! later caller the same failure instead of recomputing it.

use pba_dwarf::DwarfError;
use pba_elf::ElfError;

/// Unified error for the whole analysis stack (`pba::Error`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Reading the binary image from disk failed.
    Io {
        /// The path that could not be read.
        path: String,
        /// The underlying I/O error message (`std::io::Error` is not
        /// `Clone`, and a memoized failure must be).
        message: String,
    },
    /// An output file could not be created.
    Create {
        /// The path that could not be created.
        path: String,
        /// The underlying I/O error message.
        message: String,
    },
    /// Writing output failed: to a file a command writes, or to stdout.
    Write {
        /// Where the write went (`stdout` for standard output).
        path: String,
        /// The underlying I/O error message.
        message: String,
    },
    /// The ELF image is malformed or has no parseable code region.
    Elf(ElfError),
    /// The debug information is malformed.
    Dwarf(DwarfError),
    /// A function named by the caller does not exist in the CFG.
    FunctionNotFound(String),
    /// A remote-protocol exchange failed: a malformed or truncated
    /// frame, an undecodable payload, or a transport that died
    /// mid-request. Client-side decode failures surface as this variant
    /// so they exit like every other CLI error instead of panicking.
    Protocol(String),
}

impl Error {
    /// sysexits(3)-style process exit code — the CLI maps every failure
    /// through this exactly once, in `main`.
    pub fn exit_code(&self) -> i32 {
        match self {
            Error::Io { .. } => 66,                // EX_NOINPUT
            Error::Create { .. } => 73,            // EX_CANTCREAT
            Error::Write { .. } => 74,             // EX_IOERR
            Error::Elf(_) | Error::Dwarf(_) => 65, // EX_DATAERR
            Error::FunctionNotFound(_) => 1,
            Error::Protocol(_) => 76, // EX_PROTOCOL
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Io { path, message } => write!(f, "cannot read {path}: {message}"),
            Error::Create { path, message } => write!(f, "cannot create {path}: {message}"),
            Error::Write { path, message } => write!(f, "cannot write {path}: {message}"),
            Error::Elf(e) => write!(f, "{e}"),
            Error::Dwarf(e) => write!(f, "{e}"),
            Error::FunctionNotFound(name) => write!(f, "no function matching {name:?}"),
            Error::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<ElfError> for Error {
    fn from(e: ElfError) -> Error {
        Error::Elf(e)
    }
}

impl From<DwarfError> for Error {
    fn from(e: DwarfError) -> Error {
        Error::Dwarf(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_converts() {
        let e: Error = ElfError::BadMagic.into();
        assert_eq!(e.to_string(), ElfError::BadMagic.to_string());
        assert_eq!(e.exit_code(), 65);
        let e: Error = DwarfError::Truncated("abbrev").into();
        assert_eq!(e.exit_code(), 65);
        let e = Error::Io { path: "/nope".into(), message: "denied".into() };
        assert!(e.to_string().contains("/nope"));
        assert_eq!(e.exit_code(), 66);
        let e = Error::Create { path: "/nope/a.elf".into(), message: "not a directory".into() };
        assert_eq!(e.to_string(), "cannot create /nope/a.elf: not a directory");
        assert_eq!(e.exit_code(), 73);
        let e = Error::Write { path: "stdout".into(), message: "no space".into() };
        assert_eq!(e.to_string(), "cannot write stdout: no space");
        assert_eq!(e.exit_code(), 74);
        assert_eq!(Error::FunctionNotFound("main".into()).exit_code(), 1);
        let e = Error::Protocol("bad frame".into());
        assert_eq!(e.exit_code(), 76);
        assert!(e.to_string().contains("bad frame"));
    }
}
