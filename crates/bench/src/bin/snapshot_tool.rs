//! Inspect, digest, and diff sealed snapshot files (cell-store records,
//! warm and system snapshots — anything written through
//! `autorfm_snapshot::seal`).
//!
//! ```text
//! snapshot_tool inspect <file>
//!     Print kind, format version, payload size, the payload digest (FNV-1a,
//!     the identity) and the verified trailer checksum (XXH64, integrity).
//!
//! snapshot_tool digest <file>
//!     Print the 64-bit FNV-1a payload digest as 16 hex digits (the
//!     golden-test fingerprint) and nothing else.
//!
//! snapshot_tool diff <a> <b>
//!     Compare two snapshot files. Exit 0 when the payloads are identical,
//!     1 when they differ, 2 on error; a difference reports the first
//!     diverging payload byte.
//! ```

use autorfm::snapshot::{kind_name, open, Container};
use std::io::Write;
use std::process::ExitCode;

/// Why a subcommand stopped: output failed (e.g. stdout closed by `head`,
/// which is a success, not an error) or a hard failure with an exit code.
enum Stop {
    Io(std::io::Error),
    Exit(u8),
}

impl From<std::io::Error> for Stop {
    fn from(e: std::io::Error) -> Self {
        Stop::Io(e)
    }
}

type Out<'a> = std::io::BufWriter<std::io::StdoutLock<'a>>;

fn usage() -> ExitCode {
    eprintln!(
        "usage: snapshot_tool inspect <file>   kind, version, size, digest, checksum\n\
         \x20      snapshot_tool digest <file>    payload digest (FNV-1a, the identity)\n\
         \x20      snapshot_tool diff <a> <b>     compare two payloads\n\
         the trailer checksum (XXH64) covers header and payload; open verifies it"
    );
    ExitCode::from(2)
}

fn fail(path: &str, e: impl std::fmt::Display) -> Stop {
    eprintln!("error: {path}: {e}");
    Stop::Exit(2)
}

/// Reads the sealed file at `path`; [`load`] opens it.
fn read(path: &str) -> Result<Vec<u8>, Stop> {
    std::fs::read(path).map_err(|e| fail(path, e))
}

fn load<'a>(path: &str, bytes: &'a [u8]) -> Result<Container<'a>, Stop> {
    open(bytes).map_err(|e| fail(path, e))
}

fn inspect(out: &mut Out, path: &str) -> Result<(), Stop> {
    let bytes = read(path)?;
    let c = load(path, &bytes)?;
    writeln!(out, "file      : {path}")?;
    writeln!(out, "kind      : {} ({})", c.kind, kind_name(c.kind))?;
    writeln!(out, "version   : {}", c.version)?;
    writeln!(out, "payload   : {} bytes", c.payload.len())?;
    writeln!(out, "digest    : {:016x}", c.digest())?;
    writeln!(out, "checksum  : {:016x} (xxh64, ok)", c.checksum)?;
    Ok(())
}

fn digest(out: &mut Out, path: &str) -> Result<(), Stop> {
    let bytes = read(path)?;
    let c = load(path, &bytes)?;
    writeln!(out, "{:016x}", c.digest())?;
    Ok(())
}

fn diff(out: &mut Out, path_a: &str, path_b: &str) -> Result<bool, Stop> {
    let (bytes_a, bytes_b) = (read(path_a)?, read(path_b)?);
    let (a, b) = (load(path_a, &bytes_a)?, load(path_b, &bytes_b)?);
    if a.kind != b.kind {
        writeln!(
            out,
            "kinds differ: {} ({}) vs {} ({})",
            a.kind,
            kind_name(a.kind),
            b.kind,
            kind_name(b.kind)
        )?;
        return Ok(false);
    }
    if a.payload == b.payload {
        writeln!(
            out,
            "identical ({} bytes, digest {:016x})",
            a.payload.len(),
            a.digest()
        )?;
        return Ok(true);
    }
    writeln!(
        out,
        "digests differ: {:016x} vs {:016x}",
        a.digest(),
        b.digest()
    )?;
    let common = a.payload.len().min(b.payload.len());
    let at = (0..common)
        .find(|&i| a.payload[i] != b.payload[i])
        .unwrap_or(common);
    writeln!(
        out,
        "payloads diverge at byte {at} (sizes {} vs {})",
        a.payload.len(),
        b.payload.len()
    )?;
    Ok(false)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let result = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["inspect", path] => inspect(&mut out, path).map(|()| true),
        ["digest", path] => digest(&mut out, path).map(|()| true),
        ["diff", a, b] => diff(&mut out, a, b),
        _ => return usage(),
    };
    let result = result.and_then(|ok| {
        out.flush()?;
        Ok(ok)
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        // A closed pipe (`snapshot_tool inspect x | head`) is the reader
        // saying "enough", not a failure.
        Err(Stop::Io(e)) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Stop::Io(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
        Err(Stop::Exit(code)) => ExitCode::from(code),
    }
}
