//! Whole-suite commands: `all` and `selfcheck` run every workload, each
//! run in a child process of this same binary (so peak memory and
//! allocator state never leak from one workload into the next), and read
//! the children's result lines back.

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::run::{out_dir, Outcome};
use crate::stats::median;
use crate::{metrics, procfs, workload};

/// End-to-end counts that virtual time makes exact on the simulator.
const EXACT_ON_SIM: [&str; 3] = ["ops_per_ktick", "msgs_per_op", "frames_per_op"];

/// The one-line JSON result the harness reads.
pub fn result_line(o: &Outcome, traced: bool) -> String {
    let spec: &[Metric] = if traced { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .zip(spec)
        .map(|((name, value), m)| {
            assert_eq!(*name, m.name);
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}", finite(*value), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct && o.metrics.iter().all(|(_, v)| v.is_finite()),
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

/// JSON has no NaN or infinity; such a value also makes the run incorrect.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// A child's result line, read back.
#[derive(Debug, PartialEq)]
struct Parsed {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

/// Parse a line produced by [`result_line`] (only that shape).
fn parse_result(line: &str) -> Option<Parsed> {
    let field = |key: &str| {
        let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
        Some(rest[..rest.find([',', '}'])?].trim())
    };
    let body = &line[line.find("\"metrics\": {")? + 12..];
    let mut metrics = Vec::new();
    for entry in body.split("\"}").filter(|e| e.contains("\"value\": ")) {
        let name = entry.split('"').nth(1)?;
        let value = entry.split("\"value\": ").nth(1)?.split(',').next()?;
        metrics.push((name.to_string(), value.trim().parse().ok()?));
    }
    Some(Parsed {
        correct: field("correct")? == "true",
        attempted: field("attempted")?.parse().ok()?,
        failed: field("failed")?.parse().ok()?,
        metrics,
    })
}

/// One child run: its parsed result and its `# ` note lines.
fn child(
    w: &workload::Workload,
    seed: u64,
    traced: bool,
    smoke: bool,
) -> Result<(Parsed, Vec<String>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        w.name,
        "--seed",
        &seed.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
    ]);
    cmd.args(["--seconds", &metrics::RUN_SECONDS.to_string()]);
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("cannot start a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let notes: Vec<String> =
        stdout.lines().filter_map(|l| l.strip_prefix("# ")).map(str::to_string).collect();
    let parsed = stdout.lines().last().and_then(parse_result).ok_or_else(|| {
        format!(
            "{} (trace {}): no result line; stderr:\n{}",
            w.name,
            traced as u8,
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    if !out.status.success() || !parsed.correct {
        return Err(format!(
            "{} (trace {}): a check failed:\n{}",
            w.name,
            traced as u8,
            notes.join("\n")
        ));
    }
    Ok((parsed, notes))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn print_metrics(parsed: &Parsed, spec: &[Metric]) {
    for ((name, value), m) in parsed.metrics.iter().zip(spec) {
        println!("  {name:<44} {value:>16.4} {}", m.unit);
    }
}

/// `all`: every workload, untraced then traced; prints every metric with
/// its unit and, unless `smoke`, writes `out/results.json`.
pub fn all(seed: u64, smoke: bool) -> Result<ExitCode, String> {
    let mut doc = String::new();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let _ = write!(
        doc,
        "{{\n  \"commit\": {},\n  \"rustc\": {},\n  \"nproc\": {cores},\n  \"cpu\": {},\n  \"seed\": {seed},\n  \"run_seconds\": {},\n  \"workloads\": [",
        json_string(&command_line("git", &["rev-parse", "HEAD"])),
        json_string(&command_line("rustc", &["-V"])),
        json_string(&procfs::cpu_model()),
        metrics::RUN_SECONDS,
    );
    for (i, w) in workload::all().iter().enumerate() {
        println!("== {} ==", w.name);
        let (e2e, mut notes) = child(w, seed, false, smoke)?;
        print_metrics(&e2e, &END_TO_END);
        let (layers, layer_notes) = child(w, seed, true, smoke)?;
        print_metrics(&layers, &PER_LAYER);
        notes.extend(layer_notes);
        notes.iter().for_each(|n| println!("  # {n}"));
        let pairs = |p: &Parsed| {
            p.metrics
                .iter()
                .map(|(n, v)| format!("{}: {v}", json_string(n)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let _ = write!(
            doc,
            "{}\n    {{\"name\": {}, \"window_ops\": {}, \"attempted\": {}, \"failed\": {},\n     \"end_to_end\": {{{}}},\n     \"per_layer\": {{{}}},\n     \"notes\": [{}]}}",
            if i == 0 { "" } else { "," },
            json_string(w.name),
            w.window_ops,
            e2e.attempted,
            e2e.failed,
            pairs(&e2e),
            pairs(&layers),
            notes.iter().map(|n| json_string(n)).collect::<Vec<_>>().join(", "),
        );
    }
    doc.push_str("\n  ]\n}\n");
    if smoke {
        println!("smoke run: every check passed; no results file is written from a smoke run");
    } else {
        let path = out_dir().join("results.json");
        std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, doc))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("results: {}", path.display());
    }
    Ok(ExitCode::SUCCESS)
}

/// Runs per workload in each of `selfcheck`'s two sets.
const SELFCHECK_RUNS: usize = 5;

/// `selfcheck`: two sets of end-to-end runs of this same binary, each the
/// per-metric median of `SELFCHECK_RUNS` runs per workload, the sets' runs
/// alternating so that a slow stretch of the machine hits both. Fails when
/// a metric's two medians differ by more than its bound, or when a count
/// that is exact on the simulator differs between any two runs at all.
pub fn selfcheck(seed: u64) -> Result<ExitCode, String> {
    let mut bad = 0;
    println!(
        "{:<24} {:<16} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "set 0", "set 1", "moved", "bound"
    );
    for w in workload::all() {
        let mut sets: [Vec<Parsed>; 2] = [Vec::new(), Vec::new()];
        for run in 0..SELFCHECK_RUNS {
            for (i, set) in sets.iter_mut().enumerate() {
                eprintln!("{}: set {i}, run {run}", w.name);
                set.push(child(&w, seed, false, false)?.0);
            }
        }
        for (j, m) in END_TO_END.iter().enumerate() {
            let values = |set: &[Parsed]| set.iter().map(|p| p.metrics[j].1).collect::<Vec<f64>>();
            let (a, b) = (median(&values(&sets[0])), median(&values(&sets[1])));
            let moved = (a - b).abs() / a.abs().max(f64::MIN_POSITIVE);
            let exact = w.backend == sbft_net::Backend::Sim && EXACT_ON_SIM.contains(&m.name);
            let ok = if exact {
                sets.iter().flatten().all(|p| p.metrics[j].1 == a)
            } else {
                moved <= m.bound
            };
            bad += usize::from(!ok);
            println!(
                "{:<24} {:<16} {a:>16.4} {b:>16.4} {:>8.2}% {:>6.0}%{}",
                w.name,
                m.name,
                moved * 100.0,
                if exact { 0.0 } else { m.bound * 100.0 },
                if ok { "" } else { "  <-- DISAGREE" },
            );
        }
    }
    if bad > 0 {
        println!("selfcheck FAILED: {bad} (metric, workload) pairs disagree between two sets of the same code");
        return Ok(ExitCode::FAILURE);
    }
    println!("selfcheck passed");
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_survive_a_round_trip() {
        let metrics: Vec<(&'static str, f64)> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name, 1.5 + i as f64 * 1000.25))
            .collect();
        let o = Outcome {
            correct: true,
            attempted: 120_000,
            failed: 3,
            metrics: metrics.clone(),
            notes: vec![],
        };
        let line = result_line(&o, false);
        assert!(!line.contains('\n'));
        let p = parse_result(&line).expect("parses");
        assert_eq!((p.correct, p.attempted, p.failed), (true, 120_000, 3));
        let back: Vec<(&str, f64)> = p.metrics.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        assert_eq!(back, metrics);
    }

    #[test]
    fn a_non_finite_metric_makes_the_run_incorrect_and_stays_json() {
        let mut metrics: Vec<(&'static str, f64)> =
            END_TO_END.iter().map(|m| (m.name, 1.0)).collect();
        metrics[2].1 = f64::NAN;
        let o = Outcome { correct: true, attempted: 0, failed: 0, metrics, notes: vec![] };
        let p = parse_result(&result_line(&o, false)).expect("parses");
        assert!(!p.correct);
        assert_eq!(p.attempted, 1, "attempted is at least 1");
        assert_eq!(p.metrics[2].1, 0.0);
    }

    #[test]
    fn garbage_is_not_a_result() {
        assert_eq!(parse_result("error: could not compile"), None);
        assert_eq!(parse_result("{\"correct\": true}"), None);
    }
}
