//! Command-line interface for the `autorfm-repro` binary.
//!
//! Parsing is separated from `main` so it can be unit-tested; the binary in
//! the workspace root is a thin wrapper around [`parse_args`] and
//! [`run_command`].

use crate::experiments::Scenario;
use crate::{MappingKind, SimConfig, System};
use autorfm_sim_core::ConfigError;
use autorfm_workloads::{WorkloadSpec, ALL_WORKLOADS};
use std::fmt::Write as _;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum CliCommand {
    /// Print the workload table and exit.
    ListWorkloads,
    /// Print usage and exit.
    Help,
    /// Run one simulation (optionally with a baseline for slowdown).
    Run(RunSpec),
}

/// Parameters for a single simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Workload name (Table V).
    pub workload: String,
    /// Scenario to simulate.
    pub scenario: Scenario,
    /// Cores.
    pub cores: u8,
    /// Instructions per core.
    pub instructions: u64,
    /// RNG seed.
    pub seed: u64,
    /// Enable the Rowhammer damage audit.
    pub audit: bool,
    /// Also run the Zen no-mitigation baseline and report slowdown.
    pub with_baseline: bool,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            workload: "bwaves".into(),
            scenario: Scenario::AutoRfm { th: 4 },
            cores: 8,
            instructions: 100_000,
            seed: 42,
            audit: false,
            with_baseline: true,
        }
    }
}

/// Usage text.
pub const USAGE: &str = "\
autorfm-repro — AutoRFM (HPCA 2025) reproduction simulator

USAGE:
  autorfm-repro [OPTIONS]

OPTIONS:
  --workload NAME        Table-V workload (default: bwaves); see --list-workloads
  --scenario NAME        scenario name as the result tables print it
                         (default: AutoRFM-4): baseline-{zen,rubix,linear},
                         RFM-<th>, RFM-<th>-rubix, AutoRFM-<th>,
                         AutoRFM-<th>-{zen,recursive,minimal},
                         AutoRFM-<th>-<tracker>, PRAC-ABO<th>
  --cores N              cores in rate mode (default: 8)
  --instructions N       instructions per core (default: 100000)
  --seed N               RNG seed (default: 42)
  --audit                enable the Rowhammer damage oracle
  --no-baseline          skip the baseline run (no slowdown reported)
  --list-workloads       print the workload table
  --help                 this text
";

/// Parses CLI arguments (without the program name).
///
/// # Errors
///
/// Returns [`ConfigError`] with a user-facing message on malformed input.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<CliCommand, ConfigError> {
    let mut spec = RunSpec::default();
    let mut args = args.into_iter();

    fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, ConfigError> {
        args.next()
            .ok_or_else(|| ConfigError::new(format!("{flag} requires a value")))
    }
    fn number<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, ConfigError> {
        v.parse()
            .map_err(|_| ConfigError::new(format!("{flag}: invalid number {v}")))
    }

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(CliCommand::Help),
            "--list-workloads" => return Ok(CliCommand::ListWorkloads),
            "--workload" => spec.workload = value(&mut args, "--workload")?,
            "--scenario" => spec.scenario = value(&mut args, "--scenario")?.parse()?,
            "--cores" => spec.cores = number(&value(&mut args, "--cores")?, "--cores")?,
            "--instructions" => {
                spec.instructions = number(&value(&mut args, "--instructions")?, "--instructions")?
            }
            "--seed" => spec.seed = number(&value(&mut args, "--seed")?, "--seed")?,
            "--audit" => spec.audit = true,
            "--no-baseline" => spec.with_baseline = false,
            other => {
                return Err(ConfigError::new(format!(
                    "unknown flag {other} (try --help)"
                )))
            }
        }
    }
    if WorkloadSpec::by_name(&spec.workload).is_none() {
        return Err(ConfigError::new(format!(
            "unknown workload {} (try --list-workloads)",
            spec.workload
        )));
    }
    Ok(CliCommand::Run(spec))
}

/// The workload table for `--list-workloads`.
pub fn workload_table() -> String {
    let mut out = String::from("suite      workload    paper ACT-PKI\n");
    for w in ALL_WORKLOADS {
        let _ = writeln!(
            out,
            "{:<10} {:<11} {:>8.1}",
            w.suite.to_string(),
            w.name,
            w.paper_act_pki
        );
    }
    out
}

/// Executes a parsed command, returning the report text.
///
/// # Errors
///
/// Returns [`ConfigError`] if the simulation configuration is invalid.
pub fn run_command(cmd: CliCommand) -> Result<String, ConfigError> {
    match cmd {
        CliCommand::Help => Ok(USAGE.to_string()),
        CliCommand::ListWorkloads => Ok(workload_table()),
        CliCommand::Run(spec) => run_report(&spec),
    }
}

fn run_report(spec: &RunSpec) -> Result<String, ConfigError> {
    let workload = WorkloadSpec::by_name(&spec.workload)
        .ok_or_else(|| ConfigError::new("workload vanished"))?;
    let cfg = SimConfig::builder(workload)
        .scenario(spec.scenario)
        .cores(spec.cores)
        .instructions(spec.instructions)
        .seed(spec.seed)
        .audit(spec.audit)
        .build()?;
    let result = System::new(cfg)?.run();

    let mut out = String::new();
    let _ = writeln!(out, "scenario          : {}", spec.scenario);
    let _ = writeln!(
        out,
        "cores / instr     : {} x {}",
        spec.cores, spec.instructions
    );
    out.push_str(&result.report());
    if spec.with_baseline {
        let base_cfg = SimConfig::builder(workload)
            .scenario(Scenario::Baseline {
                mapping: MappingKind::Zen,
            })
            .cores(spec.cores)
            .instructions(spec.instructions)
            .seed(spec.seed)
            .build()?;
        let base = System::new(base_cfg)?.run();
        let _ = writeln!(out, "baseline perf     : {:.3} aggregate IPC", base.perf());
        let _ = writeln!(
            out,
            "slowdown          : {:.1}%",
            result.slowdown_vs(&base) * 100.0
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliCommand, ConfigError> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn default_invocation_runs_autorfm4() {
        let CliCommand::Run(spec) = parse(&[]).unwrap() else {
            panic!("expected Run")
        };
        assert_eq!(spec.scenario, Scenario::AutoRfm { th: 4 });
        assert_eq!(spec.workload, "bwaves");
        assert!(spec.with_baseline);
    }

    #[test]
    fn full_flag_set_parses() {
        let cmd = parse(&[
            "--workload",
            "mcf",
            "--scenario",
            "RFM-8",
            "--cores",
            "4",
            "--instructions",
            "5000",
            "--seed",
            "7",
            "--audit",
            "--no-baseline",
        ])
        .unwrap();
        let CliCommand::Run(spec) = cmd else {
            panic!("expected Run")
        };
        assert_eq!(spec.workload, "mcf");
        assert_eq!(spec.scenario, Scenario::Rfm { th: 8 });
        assert_eq!(spec.cores, 4);
        assert_eq!(spec.instructions, 5000);
        assert_eq!(spec.seed, 7);
        assert!(spec.audit);
        assert!(!spec.with_baseline);
    }

    #[test]
    fn baseline_scenario_respects_mapping() {
        let cmd = parse(&["--scenario", "baseline-rubix"]).unwrap();
        let CliCommand::Run(spec) = cmd else { panic!() };
        assert!(matches!(
            spec.scenario,
            Scenario::Baseline {
                mapping: MappingKind::Rubix { .. }
            }
        ));
    }

    #[test]
    fn every_scenario_is_reachable_by_its_printed_name() {
        let scenarios = [
            Scenario::Baseline {
                mapping: MappingKind::Zen,
            },
            Scenario::Baseline {
                mapping: MappingKind::Linear,
            },
            Scenario::Rfm { th: 16 },
            Scenario::RfmOnRubix { th: 8 },
            Scenario::AutoRfm { th: 2 },
            Scenario::AutoRfmZen { th: 4 },
            Scenario::AutoRfmRecursive { th: 4 },
            Scenario::AutoRfmMinimal { th: 4 },
            Scenario::AutoRfmWith {
                th: 4,
                tracker: "pride".parse().unwrap(),
            },
            Scenario::Prac { abo_th: 16 },
        ];
        for scenario in scenarios {
            let name = scenario.to_string();
            let CliCommand::Run(spec) = parse(&["--scenario", &name]).unwrap() else {
                panic!("expected Run")
            };
            assert_eq!(spec.scenario, scenario, "{name}");
        }
    }

    #[test]
    fn help_and_list() {
        assert_eq!(parse(&["--help"]).unwrap(), CliCommand::Help);
        assert_eq!(
            parse(&["--list-workloads"]).unwrap(),
            CliCommand::ListWorkloads
        );
        assert!(workload_table().contains("bwaves"));
        assert!(run_command(CliCommand::Help).unwrap().contains("USAGE"));
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--scenario", "nope"]).is_err());
        assert!(parse(&["--scenario"]).is_err());
        assert!(parse(&["--cores", "abc"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        // The threshold and mapping are part of the scenario name.
        for flag in ["--th", "--mapping"] {
            let err = parse(&[flag, "4"]).unwrap_err().to_string();
            assert!(err.contains("unknown flag"), "{flag}: {err}");
        }
    }

    #[test]
    fn run_command_produces_report() {
        let spec = RunSpec {
            workload: "wrf".into(),
            scenario: Scenario::AutoRfm { th: 4 },
            cores: 1,
            instructions: 2_000,
            seed: 1,
            audit: true,
            with_baseline: true,
        };
        let report = run_command(CliCommand::Run(spec)).unwrap();
        assert!(report.contains("slowdown"));
        assert!(report.contains("max row damage"));
        assert!(report.contains("AutoRFM-4"));
    }
}
