//! Trace-file import/export: record an instruction stream to a portable text
//! format and replay it later — the bridge for users who have *real* program
//! traces (e.g. from Pin/DynamoRIO) instead of the synthetic generators.
//!
//! Format: one memory operation per line, preceded by the number of
//! non-memory instructions since the previous one:
//!
//! ```text
//! # comment lines start with '#'
//! <gap> L  <line-hex>   # load
//! <gap> LD <line-hex>   # dependent load (serializes dispatch)
//! <gap> S  <line-hex>   # store
//! <gap> F  <line-hex>   # cache-line flush (CLFLUSH)
//! ```

use autorfm_cpu::{InstructionStream, Op};
use autorfm_sim_core::{ConfigError, LineAddr};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// One recorded memory operation with its preceding compute gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOp {
    /// Non-memory instructions before this operation.
    pub gap: u32,
    /// The memory operation (never [`Op::NonMem`]).
    pub op: Op,
}

/// A loaded trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFile {
    ops: Vec<TraceOp>,
}

impl TraceFile {
    /// Records up to `max_mem_ops` memory operations from `stream` to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on I/O failure.
    pub fn record<S: InstructionStream>(
        path: &Path,
        stream: &mut S,
        max_mem_ops: u64,
    ) -> Result<(), ConfigError> {
        let file = std::fs::File::create(path)
            .map_err(|e| ConfigError::new(format!("create {}: {e}", path.display())))?;
        let mut w = BufWriter::new(file);
        let io_err = |e: std::io::Error| ConfigError::new(format!("write trace: {e}"));
        writeln!(w, "# autorfm trace v1").map_err(io_err)?;
        let mut gap = 0u32;
        let mut written = 0u64;
        while written < max_mem_ops {
            match stream.next_op() {
                Op::NonMem => gap += 1,
                Op::Load { line, dependent } => {
                    let tag = if dependent { "LD" } else { "L" };
                    writeln!(w, "{gap} {tag} {:x}", line.0).map_err(io_err)?;
                    gap = 0;
                    written += 1;
                }
                Op::Store { line } => {
                    writeln!(w, "{gap} S {:x}", line.0).map_err(io_err)?;
                    gap = 0;
                    written += 1;
                }
                Op::Flush { line } => {
                    writeln!(w, "{gap} F {:x}", line.0).map_err(io_err)?;
                    gap = 0;
                    written += 1;
                }
            }
        }
        w.flush().map_err(io_err)
    }

    /// Loads a trace from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on I/O failure or malformed lines.
    pub fn load(path: &Path) -> Result<Self, ConfigError> {
        let file = std::fs::File::open(path)
            .map_err(|e| ConfigError::new(format!("open {}: {e}", path.display())))?;
        let mut ops = Vec::new();
        for (idx, line) in BufReader::new(file).lines().enumerate() {
            let line = line.map_err(|e| ConfigError::new(format!("read trace: {e}")))?;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            fn field<'a>(
                v: Option<&'a str>,
                what: &str,
                lineno: usize,
            ) -> Result<&'a str, ConfigError> {
                v.ok_or_else(|| ConfigError::new(format!("line {lineno}: missing {what}")))
            }
            let gap: u32 = field(parts.next(), "gap", idx + 1)?
                .parse()
                .map_err(|_| ConfigError::new(format!("line {}: bad gap", idx + 1)))?;
            let kind = field(parts.next(), "op kind", idx + 1)?;
            let addr = u64::from_str_radix(field(parts.next(), "address", idx + 1)?, 16)
                .map_err(|_| ConfigError::new(format!("line {}: bad address", idx + 1)))?;
            let line_addr = LineAddr(addr);
            let op = match kind {
                "L" => Op::Load {
                    line: line_addr,
                    dependent: false,
                },
                "LD" => Op::Load {
                    line: line_addr,
                    dependent: true,
                },
                "S" => Op::Store { line: line_addr },
                "F" => Op::Flush { line: line_addr },
                other => {
                    return Err(ConfigError::new(format!(
                        "line {}: unknown op {other}",
                        idx + 1
                    )))
                }
            };
            ops.push(TraceOp { gap, op });
        }
        if ops.is_empty() {
            return Err(ConfigError::new("trace contains no operations"));
        }
        Ok(TraceFile { ops })
    }

    /// The recorded operations.
    pub fn ops(&self) -> &[TraceOp] {
        &self.ops
    }

    /// Creates a replaying instruction stream; the trace loops forever (rate
    /// mode replays the slice repeatedly, like the paper's 1B-instruction
    /// slices).
    pub fn replay(&self) -> TraceReplay<'_> {
        TraceReplay {
            trace: self,
            idx: 0,
            gap_left: self.ops[0].gap,
        }
    }
}

/// An [`InstructionStream`] replaying a [`TraceFile`] in a loop.
#[derive(Debug, Clone)]
pub struct TraceReplay<'a> {
    trace: &'a TraceFile,
    idx: usize,
    gap_left: u32,
}

impl InstructionStream for TraceReplay<'_> {
    fn next_op(&mut self) -> Op {
        if self.gap_left > 0 {
            self.gap_left -= 1;
            return Op::NonMem;
        }
        let op = self.trace.ops[self.idx].op;
        self.idx = (self.idx + 1) % self.trace.ops.len();
        self.gap_left = self.trace.ops[self.idx].gap;
        op
    }

    fn take_nonmem(&mut self, max: u32) -> u32 {
        let n = self.gap_left.min(max);
        self.gap_left -= n;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{WorkloadGen, WorkloadSpec};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("autorfm-trace-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn record_and_replay_round_trip() {
        let spec = WorkloadSpec::by_name("mcf").unwrap();
        let mut gen = WorkloadGen::new(spec, 0, 7);
        let path = tmp("roundtrip.trace");
        TraceFile::record(&path, &mut gen, 500).unwrap();
        let trace = TraceFile::load(&path).unwrap();
        assert_eq!(trace.ops().len(), 500);

        // Replay reproduces the same op sequence as a fresh generator.
        let mut fresh = WorkloadGen::new(spec, 0, 7);
        let mut replay = trace.replay();
        for i in 0..5_000 {
            let expected = fresh.next_op();
            let got = replay.next_op();
            assert_eq!(got, expected, "divergence at instruction {i}");
        }
    }

    #[test]
    fn replay_loops_past_the_end() {
        let path = tmp("looping.trace");
        std::fs::write(&path, "# test\n0 L a\n1 S b\n").unwrap();
        let trace = TraceFile::load(&path).unwrap();
        let mut replay = trace.replay();
        let mut mem_ops = Vec::new();
        for _ in 0..9 {
            match replay.next_op() {
                Op::NonMem => {}
                op => mem_ops.push(op),
            }
        }
        assert!(mem_ops.len() >= 4, "trace must loop: {mem_ops:?}");
        assert_eq!(
            mem_ops[0],
            Op::Load {
                line: LineAddr(0xa),
                dependent: false
            }
        );
        assert_eq!(
            mem_ops[1],
            Op::Store {
                line: LineAddr(0xb)
            }
        );
        assert_eq!(
            mem_ops[2],
            Op::Load {
                line: LineAddr(0xa),
                dependent: false
            }
        );
    }

    #[test]
    fn take_nonmem_yields_the_next_op_sequence_across_the_wrap() {
        let path = tmp("runs.trace");
        std::fs::write(&path, "5 L a\n0 S b\n40 LD c\n3 F d\n").unwrap();
        let trace = TraceFile::load(&path).unwrap();
        // 300 ops replay the 52-op slice almost six times.
        let mut per_op = trace.replay();
        let expected: Vec<Op> = (0..300).map(|_| per_op.next_op()).collect();
        for max in [1, 4, 16, 64] {
            let mut runs = trace.replay();
            let got = crate::generator::tests::ops_through_runs(&mut runs, 300, max);
            assert_eq!(got, expected, "max {max}");
        }
    }

    #[test]
    fn all_op_kinds_round_trip() {
        let path = tmp("kinds.trace");
        std::fs::write(&path, "2 L 10\n0 LD 20\n3 S 30\n1 F 40\n").unwrap();
        let trace = TraceFile::load(&path).unwrap();
        let ops: Vec<Op> = trace.ops().iter().map(|t| t.op).collect();
        assert_eq!(
            ops,
            vec![
                Op::Load {
                    line: LineAddr(0x10),
                    dependent: false
                },
                Op::Load {
                    line: LineAddr(0x20),
                    dependent: true
                },
                Op::Store {
                    line: LineAddr(0x30)
                },
                Op::Flush {
                    line: LineAddr(0x40)
                },
            ]
        );
        assert_eq!(trace.ops()[0].gap, 2);
    }

    #[test]
    fn malformed_traces_rejected() {
        let path = tmp("bad1.trace");
        std::fs::write(&path, "nonsense\n").unwrap();
        assert!(TraceFile::load(&path).is_err());

        let path = tmp("bad2.trace");
        std::fs::write(&path, "0 X 10\n").unwrap();
        assert!(TraceFile::load(&path).is_err());

        let path = tmp("bad3.trace");
        std::fs::write(&path, "0 L zz_not_hex_g\n").unwrap();
        assert!(TraceFile::load(&path).is_err());

        let path = tmp("empty.trace");
        std::fs::write(&path, "# nothing\n").unwrap();
        assert!(TraceFile::load(&path).is_err());

        assert!(TraceFile::load(&tmp("does-not-exist.trace")).is_err());
    }
}
