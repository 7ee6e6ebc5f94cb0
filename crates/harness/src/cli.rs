//! The `dhtm_experiments` CLI: `--experiment`, `--spec`, `--jobs`,
//! `--format`, `--out` and the crash and instrumentation flags.

use std::path::PathBuf;

use crate::report::OutputFormat;
use crate::runner::default_jobs;

/// Parsed harness options.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessOpts {
    /// Worker-pool size for sharding matrix cells (default: available
    /// parallelism).
    pub jobs: usize,
    /// Machine-readable output format emitted *in addition to* the rendered
    /// tables.
    pub format: OutputFormat,
    /// Where to write JSON/CSV output (stdout when absent).
    pub out: Option<PathBuf>,
    /// Which experiment to run (`all` runs everything).
    pub experiment: Option<String>,
    /// Stratified crash points per cell for the `recovery` experiment
    /// (`None` = the experiment's default of 8).
    pub crash_points: Option<usize>,
    /// Extra cycle-denominated crash points for the `recovery` experiment.
    pub crash_at: Vec<u64>,
    /// Scenario spec files to run instead of a catalogue experiment
    /// (`--spec` greedily consumes every following non-flag argument, so
    /// shell globs like `examples/specs/*.toml` expand naturally).
    pub specs: Vec<PathBuf>,
    /// Where to write the NDJSON event trace (tracing off when absent).
    pub trace: Option<PathBuf>,
    /// Render an end-of-run component-stat profile table.
    pub profile: bool,
}

impl Default for HarnessOpts {
    fn default() -> Self {
        HarnessOpts {
            jobs: default_jobs(),
            format: OutputFormat::Table,
            out: None,
            experiment: None,
            crash_points: None,
            crash_at: Vec::new(),
            specs: Vec::new(),
            trace: None,
            profile: false,
        }
    }
}

/// The usage string of `dhtm_experiments`.
pub const USAGE: &str = "options:
  --jobs N             worker threads for sharding matrix cells (default: #cpus)
  --format FMT         table (default) | json | csv; json/csv adds a machine-readable dump
  --out PATH           write the json/csv dump to PATH instead of stdout
  --experiment NAME    experiment to run, or 'all' (default)
  --crash-points N     (recovery experiment) stratified crash points per cell (default 8)
  --crash-at CYCLE     (recovery experiment) add a crash at the given cycle; repeatable
  --spec PATH...       run scenario spec files (.toml) instead of a catalogue
                       experiment; globs expand naturally
  --trace PATH         write an NDJSON event trace (schema dhtm-trace-v1) to PATH
  --profile            print an end-of-run component-stat profile table
  --help               print this help";

impl HarnessOpts {
    /// Parses options from an argument list (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending argument.
    pub fn parse<I, S>(args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut opts = HarnessOpts::default();
        let mut args = args.into_iter().map(Into::into).peekable();
        while let Some(arg) = args.next() {
            let mut value_for = |flag: &str| {
                args.next()
                    .ok_or_else(|| format!("{flag} requires a value"))
            };
            match arg.as_str() {
                "--jobs" | "-j" => {
                    let v = value_for("--jobs")?;
                    opts.jobs = v
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("--jobs needs a positive integer, got '{v}'"))?;
                }
                "--format" | "-f" => {
                    opts.format = value_for("--format")?.parse()?;
                }
                "--out" | "-o" => {
                    opts.out = Some(PathBuf::from(value_for("--out")?));
                }
                "--experiment" | "-e" => {
                    opts.experiment = Some(value_for("--experiment")?);
                }
                "--crash-points" => {
                    let v = value_for("--crash-points")?;
                    opts.crash_points =
                        Some(v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                            format!("--crash-points needs a positive integer, got '{v}'")
                        })?);
                }
                "--crash-at" => {
                    let v = value_for("--crash-at")?;
                    opts.crash_at.push(
                        v.parse::<u64>()
                            .map_err(|_| format!("--crash-at needs a cycle number, got '{v}'"))?,
                    );
                }
                "--spec" => {
                    // Greedy: `--spec a.toml b.toml c.toml` (a shell glob
                    // expansion) loads every listed file. Any dash-prefixed
                    // argument ends the list — short flags like `-h` are
                    // flags, not spec paths.
                    opts.specs.push(PathBuf::from(value_for("--spec")?));
                    while args.peek().is_some_and(|a| !a.starts_with('-')) {
                        opts.specs.push(PathBuf::from(args.next().expect("peeked")));
                    }
                }
                "--trace" => {
                    opts.trace = Some(PathBuf::from(value_for("--trace")?));
                }
                "--profile" => {
                    opts.profile = true;
                }
                "--help" | "-h" => return Err(USAGE.to_string()),
                other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
            }
        }
        Ok(opts)
    }

    /// Parses the process arguments, printing usage and exiting on error.
    pub fn parse_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(opts) => opts,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(if msg == USAGE { 0 } else { 2 });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sensible() {
        let opts = HarnessOpts::parse(Vec::<String>::new()).unwrap();
        assert!(opts.jobs >= 1);
        assert_eq!(opts.format, OutputFormat::Table);
        assert_eq!(opts.out, None);
        assert_eq!(opts.experiment, None);
    }

    #[test]
    fn parses_all_flags() {
        let opts = HarnessOpts::parse([
            "--jobs",
            "4",
            "--format",
            "json",
            "--out",
            "/tmp/results.json",
            "--experiment",
            "fig5",
        ])
        .unwrap();
        assert_eq!(opts.jobs, 4);
        assert_eq!(opts.format, OutputFormat::Json);
        assert_eq!(opts.out, Some(PathBuf::from("/tmp/results.json")));
        assert_eq!(opts.experiment.as_deref(), Some("fig5"));
    }

    #[test]
    fn parses_crash_flags() {
        let opts = HarnessOpts::parse([
            "--crash-points",
            "12",
            "--crash-at",
            "5000",
            "--crash-at",
            "9000",
        ])
        .unwrap();
        assert_eq!(opts.crash_points, Some(12));
        assert_eq!(opts.crash_at, vec![5000, 9000]);
    }

    #[test]
    fn spec_flag_is_greedy_over_glob_expansions() {
        let opts = HarnessOpts::parse([
            "--spec",
            "examples/specs/a.toml",
            "examples/specs/b.toml",
            "--jobs",
            "2",
        ])
        .unwrap();
        assert_eq!(
            opts.specs,
            vec![
                PathBuf::from("examples/specs/a.toml"),
                PathBuf::from("examples/specs/b.toml")
            ]
        );
        assert_eq!(opts.jobs, 2);
        assert!(HarnessOpts::parse(["--spec"]).is_err());
        // Short flags end the greedy list instead of being eaten as paths.
        assert_eq!(
            HarnessOpts::parse(["--spec", "a.toml", "-j", "3"])
                .unwrap()
                .jobs,
            3
        );
    }

    #[test]
    fn parses_trace_and_profile_flags() {
        let opts = HarnessOpts::parse(["--trace", "/tmp/run.ndjson", "--profile"]).unwrap();
        assert_eq!(opts.trace, Some(PathBuf::from("/tmp/run.ndjson")));
        assert!(opts.profile);
        let defaults = HarnessOpts::default();
        assert_eq!(defaults.trace, None);
        assert!(!defaults.profile);
        assert!(HarnessOpts::parse(["--trace"]).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(HarnessOpts::parse(["--jobs", "0"]).is_err());
        assert!(HarnessOpts::parse(["--jobs", "abc"]).is_err());
        assert!(HarnessOpts::parse(["--format", "yaml"]).is_err());
        assert!(HarnessOpts::parse(["--out"]).is_err());
        assert!(HarnessOpts::parse(["--wat"]).is_err());
        assert!(HarnessOpts::parse(["--crash-points", "0"]).is_err());
        assert!(HarnessOpts::parse(["--crash-at", "soon"]).is_err());
    }

    #[test]
    fn help_returns_usage() {
        assert_eq!(HarnessOpts::parse(["--help"]).unwrap_err(), USAGE);
    }
}
