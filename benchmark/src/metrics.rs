//! The metrics this benchmark reports — names, units, directions and
//! regression bounds — and the `BENCHMARK.json` manifest derived from
//! them, so the program and the manifest cannot disagree.

use crate::workload;

/// Seconds one run measures, as `BENCHMARK.json` tells the harness.
pub const RUN_SECONDS: u64 = 15;

/// One metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may worsen (end-to-end
    /// metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher_is_better: bool, bound: f64) -> Metric {
    Metric { name, unit, higher_is_better, bound }
}

const fn layer(name: &'static str, unit: &'static str, higher_is_better: bool) -> Metric {
    Metric { name, unit, higher_is_better, bound: 0.0 }
}

/// What a user of the store sees; every workload reports all of them,
/// always from an untraced run.
pub const END_TO_END: [Metric; 12] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("ops_per_s", "1/s", true, 0.20),
    e2e("cpu_us_per_op", "us", false, 0.20),
    e2e("read_p50_us", "us", false, 0.20),
    e2e("read_p99_us", "us", false, 0.25),
    e2e("write_p50_us", "us", false, 0.20),
    e2e("write_p99_us", "us", false, 0.25),
    e2e("ops_per_ktick", "1/ktick", true, 0.20),
    e2e("msgs_per_op", "1/op", false, 0.02),
    e2e("frames_per_op", "1/op", false, 0.02),
    e2e("allocs_per_op", "1/op", false, 0.02),
    e2e("peak_rss_mb", "MiB", false, 0.10),
];

/// Single layers; from a traced run and the calibration micro-runs.
pub const PER_LAYER: [Metric; 87] = [
    // net: substrate event loop and links (traced).
    layer("net.events_per_op", "1/op", false),
    layer("net.pump_calls_per_op", "1/op", false),
    layer("net.self_us_per_op", "us", false),
    layer("net.self_allocs_per_op", "1/op", false),
    layer("net.inject_us_per_op", "us", false),
    layer("net.dropped_msgs_per_op", "1/op", false),
    layer("net.msgs_per_frame", "1/frame", true),
    // kv.server: storage-node automaton, shard wrapper included (traced).
    layer("kv.server.calls_per_op", "1/op", false),
    layer("kv.server.busy_us_per_op", "us", false),
    layer("kv.server.allocs_per_op", "1/op", false),
    layer("kv.server.call_p50_ns", "ns", false),
    layer("kv.server.call_p99_ns", "ns", false),
    layer("kv.server.get_ts_ns", "ns", false),
    layer("kv.server.write_ns", "ns", false),
    layer("kv.server.read_ns", "ns", false),
    layer("kv.server.complete_read_ns", "ns", false),
    layer("kv.server.flush_ns", "ns", false),
    // kv.client: client automaton, shard wrapper included (traced).
    layer("kv.client.calls_per_op", "1/op", false),
    layer("kv.client.busy_us_per_op", "us", false),
    layer("kv.client.allocs_per_op", "1/op", false),
    layer("kv.client.invoke_ns", "ns", false),
    layer("kv.client.ts_reply_ns", "ns", false),
    layer("kv.client.write_ack_ns", "ns", false),
    layer("kv.client.reply_ns", "ns", false),
    layer("kv.client.flush_ack_ns", "ns", false),
    layer("kv.client.timer_calls_per_op", "1/op", false),
    // core: the protocol in virtual time (traced).
    layer("core.read_ticks_p50", "ticks", false),
    layer("core.read_ticks_p99", "ticks", false),
    layer("core.write_ticks_p50", "ticks", false),
    layer("core.write_ticks_p99", "ticks", false),
    layer("core.failed_reads_per_kop", "1/kop", false),
    layer("core.failed_writes_per_kop", "1/kop", false),
    // core: the bare register server per message kind (calibration).
    layer("core.server.get_ts_ns", "ns", false),
    layer("core.server.write_ns", "ns", false),
    layer("core.server.read_ns", "ns", false),
    layer("core.server.complete_read_ns", "ns", false),
    layer("core.server.flush_ns", "ns", false),
    // labels: call counts (traced) priced by calibration.
    layer("labels.next_calls_per_op", "1/op", false),
    layer("labels.precedes_calls_per_op", "1/op", false),
    layer("labels.sanitize_calls_per_op", "1/op", false),
    layer("labels.next_ns", "ns", false),
    layer("labels.precedes_ns", "ns", false),
    layer("labels.sanitize_ns", "ns", false),
    layer("labels.est_us_per_op", "us", false),
    // wtsg: the reader's graph work (calibration).
    layer("wtsg.add_witness_ns", "ns", false),
    layer("wtsg.set_current_ns", "ns", false),
    layer("wtsg.select_ns", "ns", false),
    layer("wtsg.union_build_ns", "ns", false),
    // storage: disks and recovery (traced; zero without disks).
    layer("storage.syncs_per_op", "1/op", false),
    layer("storage.append_calls_per_op", "1/op", false),
    layer("storage.append_ns", "ns", false),
    layer("storage.sync_calls_per_op", "1/op", false),
    layer("storage.sync_ns", "ns", false),
    layer("storage.snapshot_calls_per_op", "1/op", false),
    layer("storage.snapshot_us", "us", false),
    layer("storage.snapshot_bytes", "B", false),
    layer("storage.bytes_per_op", "B/op", false),
    layer("storage.write_amp", "B/B", false),
    layer("storage.busy_us_per_op", "us", false),
    layer("storage.allocs_per_op", "1/op", false),
    layer("storage.load_us", "us", false),
    layer("kv.recover_us", "us", false),
    layer("kv.recovered_keys_share", "share", true),
    // storage: checksum, framing, snapshot encoding (calibration).
    layer("storage.crc32_ns_per_kib", "ns/KiB", false),
    layer("storage.write_frame_ns_per_kib", "ns/KiB", false),
    layer("storage.decode_frames_ns_per_kib", "ns/KiB", false),
    layer("kv.state_bytes_us_1k_keys", "us", false),
    // net: the substrates with automata that do nothing (calibration).
    layer("net.sim.null_event_ns", "ns", false),
    layer("net.sim.null_event_batched_ns", "ns", false),
    layer("net.batch.push_ns", "ns", false),
    layer("net.batch.drain_ns_per_msg", "ns", false),
    layer("net.threaded.hop_us", "us", false),
    layer("net.threaded.inject_to_output_us", "us", false),
    layer("net.timer_wheel.register_ns", "ns", false),
    layer("net.timer_wheel.cancel_ns", "ns", false),
    // Reconciliation: what the spans above leave unexplained.
    layer("trace.driver_share", "share", false),
    layer("trace.overhead_ratio", "ratio", false),
    layer("net.self_unexplained_us_per_op", "us", false),
    layer("kv.server.self_unexplained_us_per_op", "us", false),
    // The CPU cost of durability against a disk-less rerun of the same
    // operations, split by where the traces put it (zero without disks).
    layer("durability.cpu_gap_us_per_op", "us", false),
    layer("durability.storage_us_per_op", "us", false),
    layer("durability.encode_us_per_op", "us", false),
    layer("durability.reboot_us_per_op", "us", false),
    layer("durability.unexplained_us_per_op", "us", false),
    layer("durability.unexplained_share", "share", false),
    // Verdict of the recorded histories.
    layer("spec.violations", "count", false),
    layer("spec.lost_acked_writes", "count", false),
];

fn metric_json(m: &Metric, with_bound: bool) -> String {
    let better = if m.higher_is_better { "higher" } else { "lower" };
    let bound = if with_bound { format!(", \"bound\": {}", m.bound) } else { String::new() };
    format!(
        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}",
        m.name, m.unit
    )
}

/// The `BENCHMARK.json` document.
pub fn manifest() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let quoted: Vec<String> = command.iter().map(|c| format!("\"{c}\"")).collect();
    let workloads: Vec<String> = workload::all()
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let e2e: Vec<String> = END_TO_END.iter().map(|m| metric_json(m, true)).collect();
    let layers: Vec<String> = PER_LAYER.iter().map(|m| metric_json(m, false)).collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted.join(", "),
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legal_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(ok)
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest(),
            "regenerate with `sbft-benchmark manifest`"
        );
    }

    #[test]
    fn manifest_stays_inside_the_harness_limits() {
        let (e2e, layers, workloads) = (END_TO_END.len(), PER_LAYER.len(), workload::all().len());
        assert!(
            (1..=16).contains(&e2e) && (1..=128).contains(&layers) && (2..=8).contains(&workloads)
        );
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name).collect();
        names.extend(workload::all().iter().map(|w| w.name));
        for (i, n) in names.iter().enumerate() {
            assert!(legal_name(n), "{n}");
            assert!(!names[..i].contains(n), "{n} used twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(
                !m.unit.is_empty() && m.unit.len() <= 16 && m.unit.chars().all(ok),
                "{}",
                m.unit
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s gets the largest bound"
        );
        for w in workload::all() {
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"', '\\']),
                "{}: {}",
                w.name,
                w.why.len()
            );
        }
        assert!(manifest().len() <= 64 << 10);
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
