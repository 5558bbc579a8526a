//! The contract of `parallel_map`: results come back in input order
//! whatever the thread count and however uneven the per-item cost, edge
//! cases degenerate gracefully, and a panicking job panics the caller.

use simt_verify::parallel_map;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Early items cost the most, and the first item cannot finish before the
/// last one has, which another worker must claim: results come back out
/// of order and are still returned in input order.
#[test]
fn uneven_costs_keep_input_order() {
    let items: Vec<usize> = (0..24).collect();
    let len = items.len();
    for threads in [2, 3, 8] {
        let last_done = AtomicBool::new(false);
        let out = parallel_map(&items, threads, |&i| {
            std::thread::sleep(Duration::from_millis((len - i) as u64));
            if i == 0 {
                while !last_done.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            }
            if i == len - 1 {
                last_done.store(true, Ordering::SeqCst);
            }
            i * i
        });
        assert_eq!(out, items.iter().map(|i| i * i).collect::<Vec<_>>(), "{threads} threads");
    }
}

#[test]
fn edge_thread_counts_and_empty_input() {
    let items = ["a", "bb", "ccc"];
    let lens = [1, 2, 3];
    for threads in [0, 1, 2, 3, 64] {
        assert_eq!(parallel_map(&items, threads, |s| s.len()), lens, "{threads} threads");
    }
    let empty: [u32; 0] = [];
    for threads in [0, 1, 4] {
        assert!(parallel_map(&empty, threads, |x| x + 1).is_empty());
    }
}

/// `threads <= 1` runs every item on the calling thread, in order.
#[test]
fn serial_path_stays_on_the_caller() {
    let me = std::thread::current().id();
    for threads in [0, 1] {
        let ids = parallel_map(&[(); 5], threads, |()| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == me), "{threads} threads");
    }
}

#[test]
#[should_panic(expected = "job 5 failed")]
fn a_panicking_job_panics_the_caller() {
    let items: Vec<u32> = (0..16).collect();
    let _ = parallel_map(&items, 3, |&i| {
        assert_ne!(i, 5, "job 5 failed");
        i
    });
}
