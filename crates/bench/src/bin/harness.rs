//! The experiment harness: regenerates every table of EXPERIMENTS.md.
//!
//! ```text
//! harness all            # every experiment (default scale)
//! harness e1 … e20       # one experiment (there is no e9: see E15's threaded closed cells)
//! harness ablations      # the ablation tables
//! harness quick          # all experiments at reduced scale (CI-sized)
//! harness load           # E15 sustained-load run; writes BENCH_e15.json
//! harness explore        # E16 exhaustive schedule exploration
//! harness mobile         # E17 mobile-Byzantine frontier; writes BENCH_e17.json
//! harness recover        # E18 damaged-disk crash recovery; writes BENCH_e18.json
//! harness scale          # E19 shard × batching scale sweep; writes BENCH_e19.json
//! harness e20            # E20 parallel exploration sweep; writes BENCH_e20.json
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
//! `explore` (alias `e16`) accepts `--quick` (smaller fork depth) and
//! writes the found-and-shrunk Theorem 1 counterexample to
//! `E16_counterexample.trace`; `explore --replay <file>` re-executes a
//! trace file verbatim and exits non-zero unless the recorded violation
//! reproduces. With `--jobs N`, `--scenario <name>`, or `--dedup` the
//! exploration runs on the E20 work-stealing engine instead: `--jobs N`
//! worker threads, optional state-hash dedup, and `--scenario` narrowing
//! the sweep to one named scenario (unknown names list the valid ones).
//!
//! `e20` runs the full parallel-exploration sweep (jobs × dedup ×
//! scenario, with the Theorem 1 rediscovery cells) and writes
//! `BENCH_e20.json`.

use sbft_bench::*;

/// Write one experiment's machine-readable artifact to the current directory.
fn write_bench(file: &str, json: &str, cells: usize) {
    match std::fs::write(file, json) {
        Ok(()) => eprintln!("wrote {file} ({cells} cells)"),
        Err(e) => eprintln!("could not write {file}: {e}"),
    }
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

    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse::<u64>().ok())
    };

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
        emit(e10_datalink::run_substrate(seeds.min(3), if quick { 8 } else { 16 }));
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
        let clients = flag("--clients").unwrap_or(4) as usize;
        let ops = flag("--ops").unwrap_or(if quick { 60 } else { 400 });
        let cells = e15_load::run_cells(clients, ops, 42);
        emit(e15_load::table(&cells));
        write_bench("BENCH_e15.json", &e15_load::to_json(&cells), cells.len());
    }
    if want("e16") || arg == "explore" {
        let replay_file =
            args.iter().position(|a| a == "--replay").and_then(|i| args.get(i + 1)).cloned();
        if let Some(path) = replay_file {
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
        } else {
            let jobs = args
                .iter()
                .position(|a| a == "--jobs")
                .and_then(|i| args.get(i + 1))
                .and_then(|v| v.parse::<usize>().ok());
            let scenario =
                args.iter().position(|a| a == "--scenario").and_then(|i| args.get(i + 1)).cloned();
            let dedup = args.iter().any(|a| a == "--dedup");
            if jobs.is_some() || scenario.is_some() || dedup {
                // Parallel / single-scenario exploration (E20 engine).
                match e20_parallel::explore_cli(
                    scenario.as_deref(),
                    quick,
                    jobs.unwrap_or(1),
                    dedup,
                ) {
                    Ok(t) => emit(t),
                    Err(msg) => {
                        eprintln!("{msg}");
                        std::process::exit(2);
                    }
                }
            } else {
                let out = e16_explore::run(quick);
                emit(out.table);
                if let Some(trace) = out.counterexample {
                    match std::fs::write("E16_counterexample.trace", &trace) {
                        Ok(()) => eprintln!("wrote E16_counterexample.trace"),
                        Err(e) => eprintln!("could not write E16_counterexample.trace: {e}"),
                    }
                }
            }
        }
    }
    if want("e20") {
        let cells = e20_parallel::run_cells(quick);
        emit(e20_parallel::table(&cells));
        write_bench("BENCH_e20.json", &e20_parallel::to_json(&cells), cells.len());
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
            let clients = flag("--clients").unwrap_or(192) as usize;
            let ops = flag("--ops").unwrap_or(20_000);
            e19_scale::run_cells(clients, ops, 42)
        };
        emit(e19_scale::table(&cells));
        write_bench("BENCH_e19.json", &e19_scale::to_json(&cells), cells.len());
    }
    if want("ablations") {
        emit(ablations::ablate_selection(seeds.min(5)));
        emit(ablations::ablate_union(seeds.min(5)));
        emit(ablations::ablate_flush(seeds.min(5)));
    }

    if !printed {
        eprintln!(
            "unknown experiment {arg:?}; use all | quick | e1..e8 | e10..e20 | load | explore | mobile | recover | scale | ablations [--csv|--quick|--clients N|--replay FILE|--jobs N|--scenario NAME|--dedup]"
        );
        std::process::exit(2);
    }
}
