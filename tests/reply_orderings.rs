//! Exhaustive schedule sweep over one dimension: the order in which
//! server replies reach a reader. For a worst-case split register state
//! (half the servers at the old value, half at the new — a crashed
//! writer's residue), *every one of the 720 arrival permutations* must
//! produce a read that terminates and returns one of the two legitimate
//! values. This is a small exhaustive model check of the WTsG decision
//! logic, complementing the randomized schedule suite.

use sbft::register::cluster::{Op, RegisterCluster};

/// All permutations of `items` (Heap's algorithm, collected).
fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
    fn heap(k: usize, arr: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k == 1 {
            out.push(arr.clone());
            return;
        }
        for i in 0..k {
            heap(k - 1, arr, out);
            if k.is_multiple_of(2) {
                arr.swap(i, k - 1);
            } else {
                arr.swap(0, k - 1);
            }
        }
    }
    let mut arr = items.to_vec();
    let mut out = Vec::new();
    heap(arr.len(), &mut arr, &mut out);
    out
}

fn run_with_order(order: &[usize]) -> u64 {
    let mut c = RegisterCluster::bounded(1).clients(3).seed(5).build();
    let w = c.client(0);
    let w2 = c.client(1);
    let r = c.client(2);

    // Install v1 everywhere, then a crashed writer leaves v2 on 3 servers.
    c.write(w, 1).unwrap();
    let ts1 = c.write(w, 1).unwrap();
    c.invoke(w2, (), Op::Write(2));
    c.sim.crash(w2);
    c.settle(50_000);
    let ts2 = c.sys.next_for(w2 as u32, std::slice::from_ref(&ts1));
    for s in 0..3 {
        if let Some(srv) = c.server_state(s) {
            let prev = (srv.value, srv.ts.clone());
            srv.old_vals.push_front(prev);
            srv.value = 2;
            srv.ts = ts2.clone();
        }
    }

    // Force the reply arrival order: pause every server→reader channel,
    // start the read, then release the channels one by one in `order`.
    for s in 0..6 {
        c.sim.pause_channel(s, r);
    }
    c.invoke(r, (), Op::Read);
    // Let the FLUSHes reach the servers (their acks are buffered).
    c.settle(50_000);
    let mut result = None;
    for &s in order {
        c.sim.resume_channel(s, r);
        // Drain deliverable events; the read may decide mid-order.
        let mut budget = 50_000u64;
        while budget > 0 {
            let Some(ev) = c.sim.step() else { break };
            budget -= 1;
            let (time, pid) = (ev.time, ev.pid);
            for out in ev.outputs {
                c.observe_event(time, pid, &out);
                if pid == r {
                    if let sbft::register::messages::ClientEvent::ReadDone { value, .. } = out {
                        result = Some(value);
                    } else {
                        result = Some(u64::MAX); // abort marker
                    }
                }
            }
        }
        if result.is_some() {
            break;
        }
    }
    result.expect("the read must decide once enough replies arrived")
}

#[test]
fn every_reply_ordering_returns_a_legitimate_value() {
    let orders = permutations(&[0, 1, 2, 3, 4, 5]);
    assert_eq!(orders.len(), 720);
    let mut saw_old = false;
    let mut saw_new = false;
    for (i, order) in orders.iter().enumerate() {
        let v = run_with_order(order);
        assert!(v == 1 || v == 2, "order #{i} {order:?} returned illegitimate {v}");
        saw_old |= v == 1;
        saw_new |= v == 2;
    }
    // The sweep must actually exercise both outcomes (otherwise the split
    // scenario collapsed and the test is vacuous).
    assert!(saw_old && saw_new, "sweep must reach both legitimate values");
}
