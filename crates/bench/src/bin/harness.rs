//! The experiment harness: regenerates every table of EXPERIMENTS.md.
//!
//! ```text
//! harness all            # every experiment (default scale)
//! harness e1 … e20       # one experiment (there is no e9: see E15's threaded closed cells)
//! harness ablations      # the FLUSH workload on this build (scripts/mutants.sh runs it patched)
//! harness quick          # all experiments at reduced scale (CI-sized)
//! harness load           # E15 sustained-load run; writes BENCH_e15.json
//! harness explore        # E16 exhaustive schedule exploration
//! harness mobile         # E17 mobile-Byzantine frontier; writes BENCH_e17.json
//! harness recover        # E18 damaged-disk crash recovery; writes BENCH_e18.json
//! harness scale          # E19 shard × batching scale sweep; writes BENCH_e19.json
//! harness e20            # E20 explorer worker-count sweep; writes BENCH_e20.json
//! ```
//!
//! `load` accepts `--clients N` (default 4), `--ops N` (default 400) and
//! `--quick` (smaller op counts); it always writes `BENCH_e15.json` to the
//! current directory.
//!
//! `mobile` (alias `e17`) sweeps n/f/movement-rate/movement-mode on both
//! substrates and writes the frontier to `BENCH_e17.json`; `--quick`
//! runs the 3-cell CI smoke instead of the full grid.
//!
//! `recover` (alias `e18`) sweeps disk-fault kind × crash rate ×
//! `n ∈ {5f, 5f+1}` with every crashed server rebooted from its own
//! damaged disk, and writes the sweep to `BENCH_e18.json`; `--quick`
//! runs the 4-cell CI smoke instead of the full grid.
//!
//! `scale` (alias `e19`) sweeps shard count × link-batch policy with
//! pipelined clients over a large keyspace on both substrates and writes
//! the grid to `BENCH_e19.json`; it accepts `--clients N` (default 192)
//! and `--ops N` (default 20000 — several times the total in-flight slot
//! count, so cells measure steady state rather than one burst), and
//! `--quick` runs the 4-cell sim-only CI smoke instead.
//!
//! `explore` (alias `e16`) accepts `--quick` (smaller fork depth),
//! `--jobs N` (worker threads, default 1) and `--scenario <name>` (one
//! pruned cell of that scenario instead of the four E16 rows; unknown
//! names list the valid ones), and writes the found-and-shrunk
//! counterexample to `E16_counterexample.trace`; `explore --replay <file>`
//! re-executes a trace file verbatim and exits non-zero unless the
//! recorded violation reproduces.
//!
//! `e20` sweeps the same engine over jobs × scenario (with the Theorem 1
//! rediscovery cells) and writes `BENCH_e20.json`.
//!
//! A flag whose value is missing or does not parse (`--jobs abc`,
//! `--jobs 0`, `--ops x`) prints the usage line and exits 2.

use std::num::NonZeroUsize;
use std::str::FromStr;

use sbft_bench::*;

/// Write one experiment's machine-readable artifact to the current directory.
fn write_bench(file: &str, json: &str, cells: usize) {
    match std::fs::write(file, json) {
        Ok(()) => eprintln!("wrote {file} ({cells} cells)"),
        Err(e) => eprintln!("could not write {file}: {e}"),
    }
}

const USAGE: &str = "use all | quick | e1..e8 | e10..e20 | load | explore | mobile | recover | scale | ablations [--csv|--quick|--clients N|--ops N|--replay FILE|--jobs N|--scenario NAME]";

/// The parsed value after `name`: `Ok(None)` when the flag is absent,
/// `Err` when its value is missing or does not parse as a `T`.
fn flag<T: FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let value = args.get(i + 1).ok_or_else(|| format!("{name} needs a value"))?;
    value.parse().map(Some).map_err(|_| format!("{name}: bad value {value:?}"))
}

/// Outside input was wrong: say what, print the usage line, exit 2.
fn usage_exit(msg: &str) -> ! {
    eprintln!("{msg}; {USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv = args.iter().any(|a| a == "--csv");
    let arg =
        args.iter().find(|a| !a.starts_with("--")).cloned().unwrap_or_else(|| "all".to_string());
    // `quick` scales experiments down; only the bare word selects them all.
    let quick = arg == "quick" || args.iter().any(|a| a == "--quick");
    let want = |name: &str| arg == "all" || arg == "quick" || arg == name;

    let mut printed = false;
    let mut emit = |t: Table| {
        if csv {
            println!("# {}", t.title);
            println!("{}", t.to_csv());
        } else {
            println!("{}", t.render());
        }
        printed = true;
    };

    fn parsed<T: FromStr>(args: &[String], name: &str) -> Option<T> {
        flag(args, name).unwrap_or_else(|msg| usage_exit(&msg))
    }

    // Scales: (seeds, ops) tuned so `all` finishes in a couple of minutes.
    let (seeds, ops) = if quick { (3, 5) } else { (10, 10) };

    if want("e1") {
        emit(e1_lower_bound::run(seeds));
    }
    if want("e2") {
        emit(e2_termination::run(seeds.min(5), ops));
    }
    if want("e3") {
        emit(e3_propagation::run(seeds.min(5), ops));
    }
    if want("e4") {
        emit(e4_stabilization::run(seeds));
    }
    if want("e5") {
        emit(e5_labels::run(if quick { 40 } else { 120 }));
    }
    if want("e6") {
        emit(e6_vs_baseline::run(seeds, 3));
    }
    if want("e7") {
        emit(e7_quorum_cost::run(ops));
    }
    if want("e8") {
        emit(e8_concurrency::run(seeds.min(5)));
    }
    if want("e10") {
        emit(e10_datalink::run(seeds, if quick { 20 } else { 50 }));
    }
    if want("e11") {
        emit(e11_byzantine_readers::run(seeds.min(5), ops.min(6)));
    }
    if want("e12") {
        emit(e12_atomicity::run(7));
    }
    if want("e13") {
        emit(e13_kv_store::run(7));
    }
    if want("e14") {
        emit(e14_chaos::run(if quick { 3 } else { 10 }, if quick { 1 } else { 2 }));
    }
    if want("e15") || arg == "load" {
        let clients = parsed(&args, "--clients").unwrap_or(4);
        let ops = parsed(&args, "--ops").unwrap_or(if quick { 60 } else { 400 });
        let cells = e15_load::run_cells(clients, ops, 42);
        emit(e15_load::table(&cells));
        write_bench("BENCH_e15.json", &e15_load::to_json(&cells), cells.len());
    }
    if want("e16") || arg == "explore" {
        if let Some(path) = parsed::<String>(&args, "--replay") {
            // Replay mode: re-execute a counterexample trace verbatim.
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("could not read {path}: {e}");
                    std::process::exit(2);
                }
            };
            match e16_explore::replay_trace(&text) {
                Ok(msg) => {
                    println!("{path}: {msg}");
                    std::process::exit(0);
                }
                Err(msg) => {
                    eprintln!("{path}: replay FAILED: {msg}");
                    std::process::exit(1);
                }
            }
        }
        let jobs = parsed::<NonZeroUsize>(&args, "--jobs").map_or(1, NonZeroUsize::get);
        let scenario = parsed::<String>(&args, "--scenario");
        let out = e16_explore::run(quick, jobs, scenario.as_deref())
            .unwrap_or_else(|msg| usage_exit(&msg));
        emit(out.table);
        if let Some(trace) = out.counterexample {
            match std::fs::write("E16_counterexample.trace", &trace) {
                Ok(()) => eprintln!("wrote E16_counterexample.trace"),
                Err(e) => eprintln!("could not write E16_counterexample.trace: {e}"),
            }
        }
    }
    if want("e20") {
        let cells = e16_explore::sweep(quick);
        emit(e16_explore::sweep_table(&cells));
        write_bench("BENCH_e20.json", &e16_explore::sweep_json(&cells), cells.len());
    }
    if want("e17") || arg == "mobile" {
        let cells = e17_mobile::run_cells(quick);
        emit(e17_mobile::table(&cells));
        write_bench("BENCH_e17.json", &e17_mobile::to_json(&cells), cells.len());
    }
    if want("e18") || arg == "recover" {
        let cells = e18_recover::run_cells(quick);
        emit(e18_recover::table(&cells));
        write_bench("BENCH_e18.json", &e18_recover::to_json(&cells), cells.len());
    }
    if want("e19") || arg == "scale" {
        let cells = if quick {
            e19_scale::run_quick(42)
        } else {
            let clients = parsed(&args, "--clients").unwrap_or(192);
            let ops = parsed(&args, "--ops").unwrap_or(20_000);
            e19_scale::run_cells(clients, ops, 42)
        };
        emit(e19_scale::table(&cells));
        write_bench("BENCH_e19.json", &e19_scale::to_json(&cells), cells.len());
    }
    if want("ablations") {
        emit(ablations::flush_workload(seeds.min(5)));
    }

    if !printed {
        usage_exit(&format!("unknown experiment {arg:?}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_rejects_what_it_cannot_parse() {
        let args: Vec<String> =
            ["explore", "--jobs", "abc", "--ops", "7", "--clients"].map(String::from).to_vec();
        assert_eq!(flag::<u64>(&args, "--ops"), Ok(Some(7)));
        assert_eq!(flag::<u64>(&args, "--seeds"), Ok(None), "absent flag");
        assert!(flag::<NonZeroUsize>(&args, "--jobs").is_err(), "not a number");
        assert!(flag::<usize>(&args, "--clients").is_err(), "missing value");
        let zero: Vec<String> = ["--jobs", "0"].map(String::from).to_vec();
        assert!(flag::<NonZeroUsize>(&zero, "--jobs").is_err(), "zero workers");
        assert_eq!(flag::<String>(&zero, "--jobs"), Ok(Some("0".into())));
    }
}
