//! `autorfm-repro`: run one AutoRFM simulation from the command line.
//!
//! ```text
//! autorfm-repro --workload bwaves --scenario AutoRFM-4
//! ```
//!
//! `--scenario` takes a scenario name exactly as the result tables print it
//! (`baseline-rubix`, `RFM-8`, `AutoRFM-4-pride`, `PRAC-ABO16`, ...). See
//! `--help` for the full flag set.

use autorfm::cli::{parse_args, run_command};

fn main() {
    let args = std::env::args().skip(1);
    match parse_args(args).and_then(run_command) {
        Ok(report) => print!("{report}"),
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(2);
        }
    }
}
