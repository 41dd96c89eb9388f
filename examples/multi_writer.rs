//! MWMR in action: three writers racing, one reader watching.
//!
//! Demonstrates the Section IV-D extension — `(label, writer-id)`
//! timestamps totally ordering concurrent writes (Lemma 8) — and the
//! union-graph fallback (Figure 2a line 15) that keeps reads decisive
//! while the server population is split across in-flight versions.
//!
//! ```text
//! cargo run --example multi_writer
//! ```

use sbft::labels::BoundedLabeling;
use sbft::net::DelayModel;
use sbft::register::cluster::{ClusterBuilder, Op, RegisterCluster};
use sbft::register::config::ClusterConfig;
use sbft::register::messages::ClientEvent;
use sbft::register::reader::ReaderOptions;

fn main() {
    const WRITERS: usize = 3;
    const BURST: usize = 8;

    let cfg = ClusterConfig::stabilizing(1);
    let mut cluster: RegisterCluster<BoundedLabeling> =
        ClusterBuilder::new(cfg, BoundedLabeling::new(cfg.label_k()))
            .clients(WRITERS + 1)
            .seed(77)
            .delay(DelayModel::uniform(1, 40)) // wide asynchrony
            .reader_options(ReaderOptions::default())
            .build();
    let reader = cluster.client(WRITERS);

    cluster.write(cluster.client(0), 1).unwrap();

    // All writers burst concurrently; the reader loops.
    let mut left = [BURST; WRITERS];
    let mut next_val = 100u64;
    for (w, slot) in left.iter_mut().enumerate() {
        next_val += 1;
        cluster.invoke(cluster.client(w), (), Op::Write(next_val));
        *slot -= 1;
    }
    cluster.invoke(reader, (), Op::Read);

    let mut reads = 0;
    let mut unions = 0;
    let mut reader_done = false;
    let mut budget = 5_000_000u64;
    while (left.iter().any(|&l| l > 0) || !reader_done) && budget > 0 {
        let Some(ev) = cluster.sim.step() else { break };
        budget -= 1;
        let (time, pid) = (ev.time, ev.pid);
        for out in ev.outputs {
            cluster.observe_event(time, pid, &out);
            #[allow(clippy::needless_range_loop)] // w is matched against pid
            for w in 0..WRITERS {
                if pid == cluster.client(w) && out.is_write_end() && left[w] > 0 {
                    next_val += 1;
                    cluster.invoke(cluster.client(w), (), Op::Write(next_val));
                    left[w] -= 1;
                    break;
                }
            }
            if pid == reader {
                if let ClientEvent::ReadDone { value, via_union, .. } = &out {
                    reads += 1;
                    if *via_union {
                        unions += 1;
                        println!("[t={time:>6}] read {value}  (decided by the UNION graph)");
                    } else {
                        println!("[t={time:>6}] read {value}");
                    }
                }
                if left.iter().all(|&l| l == 0) {
                    reader_done = true;
                } else {
                    cluster.invoke(reader, (), Op::Read);
                }
            }
        }
    }
    cluster.settle(300_000);

    println!(
        "\n{} concurrent writers × {} writes; {} reads, {} via the union fallback",
        WRITERS, BURST, reads, unions
    );
    cluster.check_history().expect("MWMR regularity holds under full write concurrency");
    println!("MWMR regularity verified across {} operations", cluster.history(()).ops().len());
}
