//! The repo's pinned benchmark: end-to-end and per-layer metrics of the KV
//! store on both substrates. See `benchmark/README.md`.

mod alloc;
mod assemble;
mod driver;
mod layers;
mod metrics;
mod procfs;
mod run;
mod stats;
mod suite;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Workload seed when none is given.
const DEFAULT_SEED: u64 = 7;

const USAGE: &str = "usage:
  sbft-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
      one run of one workload; the last line of stdout is its JSON result
      (--trace 0: end-to-end metrics, --trace 1: per-layer metrics)
  sbft-benchmark all [--seed <n>] [--smoke]
      every workload, each run in its own process; prints every metric and
      writes benchmark/out/results.json (never with --smoke)
  sbft-benchmark selfcheck [--seed <n>]
      two sets of end-to-end runs (medians of five runs per workload,
      alternating); fails when the sets disagree by more than the bounds
  sbft-benchmark layers
      the calibration micro-runs alone, at least one second each
  sbft-benchmark manifest
      print BENCHMARK.json as this program defines it";

/// `--name value` pairs and bare flags after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        self.0.iter().position(|a| a == name).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{name} {v}: not a valid value")),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

fn one_run(args: &Args) -> Result<ExitCode, String> {
    let name = args.value("--workload").ok_or("--workload is required")?;
    let w = workload::by_name(name).ok_or_else(|| {
        let names: Vec<_> = workload::all().iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    let seed: u64 = args.parsed("--seed", DEFAULT_SEED)?;
    let seconds: f64 = args.parsed("--seconds", metrics::RUN_SECONDS as f64)?;
    if !(seconds.is_finite() && (0.0..=600.0).contains(&seconds)) {
        return Err(format!("--seconds {seconds}: out of range"));
    }
    let smoke = args.flag("--smoke");
    let trace: u8 = args.parsed("--trace", 0)?;
    let outcome = match trace {
        0 if smoke => run::untraced(&w, seed, 1),
        0 => run::untraced(
            &w,
            seed,
            ((seconds * workload::WINDOWS_PER_SECOND).round() as usize).max(1),
        ),
        1 if smoke => run::traced(&w, seed, 1, Duration::from_millis(1)),
        // Five batches per micro-run, some forty micro-runs: about a
        // quarter of the run's seconds go to calibration.
        1 => run::traced(
            &w,
            seed,
            workload::TRACED_WINDOWS,
            Duration::from_secs_f64(seconds / 800.0),
        ),
        t => return Err(format!("--trace {t}: 0 or 1")),
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!("{}", suite::result_line(&outcome, trace == 1));
    Ok(if outcome.correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let sub = match argv.first() {
        Some(a) if !a.starts_with("--") => argv.remove(0),
        _ => String::new(),
    };
    let args = Args(argv);
    let done = match sub.as_str() {
        "" if args.flag("--workload") => one_run(&args),
        "all" => args
            .parsed("--seed", DEFAULT_SEED)
            .and_then(|seed| suite::all(seed, args.flag("--smoke"))),
        "selfcheck" => args.parsed("--seed", DEFAULT_SEED).and_then(suite::selfcheck),
        "layers" => {
            for (name, value) in layers::run(Duration::from_millis(200)) {
                println!("{name:<44} {value:>14.3}");
            }
            Ok(ExitCode::SUCCESS)
        }
        "manifest" => {
            print!("{}", metrics::manifest());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    };
    done.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}
