//! The pool behind `scope`: a fixed set of persistent workers, shared by
//! every scope of the process.
//!
//! The pool is process-wide and every waiting owner helps run whatever is
//! queued, so the tests here pin its size before first use and run one at
//! a time.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, Once};
use std::thread::ThreadId;
use std::time::Duration;

const THREADS: usize = 3;

/// Sizes the pool (once, before its first use) and serialises the tests.
fn pool() -> MutexGuard<'static, ()> {
    static SIZE: Once = Once::new();
    static SERIAL: Mutex<()> = Mutex::new(());
    SIZE.call_once(|| std::env::set_var("RAYON_NUM_THREADS", THREADS.to_string()));
    assert_eq!(rayon::current_num_threads(), THREADS);
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Thread ids that ran the tasks of `scopes` consecutive two-task scopes.
fn ids_of_two_task_scopes(scopes: usize) -> HashSet<ThreadId> {
    let ids = Mutex::new(HashSet::new());
    for _ in 0..scopes {
        rayon::scope(|s| {
            for _ in 0..2 {
                s.spawn(|_| {
                    ids.lock().unwrap().insert(std::thread::current().id());
                });
            }
        });
    }
    ids.into_inner().unwrap()
}

/// Workers persist: tasks run on the pool's threads or on the helping
/// owner, never on a thread made for the task.
#[test]
fn consecutive_scopes_reuse_the_same_threads() {
    let _serial = pool();
    let ids = ids_of_two_task_scopes(100);
    assert!(
        ids.len() <= THREADS,
        "200 tasks ran on {} distinct threads",
        ids.len()
    );
}

#[test]
fn a_task_panic_reaches_the_owner_and_the_workers_survive() {
    let _serial = pool();
    let before = ids_of_two_task_scopes(20);
    let caught = std::panic::catch_unwind(|| {
        rayon::scope(|s| {
            s.spawn(|_| panic!("boom"));
            s.spawn(|_| {});
        })
    });
    let payload = caught.expect_err("the task's panic must resume in the owner");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
    // The next scopes complete, on no thread the pool did not already have.
    let after = ids_of_two_task_scopes(20);
    let all: HashSet<_> = before.union(&after).collect();
    assert!(all.len() <= THREADS, "a worker was replaced after the panic");
}

#[test]
fn nested_spawns_are_joined_by_the_outer_scope() {
    let _serial = pool();
    let counter = AtomicUsize::new(0);
    rayon::scope(|s| {
        for _ in 0..4 {
            s.spawn(|s| {
                for _ in 0..4 {
                    s.spawn(|s| {
                        counter.fetch_add(1, Ordering::SeqCst);
                        s.spawn(|_| {
                            counter.fetch_add(1, Ordering::SeqCst);
                        });
                    });
                }
            });
        }
    });
    assert_eq!(counter.load(Ordering::SeqCst), 32);
}

/// Two owners share the queue: each scope returns only after all of its
/// own tasks, whoever ran them.
#[test]
fn concurrent_scopes_each_see_their_own_tasks_finish() {
    let _serial = pool();
    let start = Barrier::new(2);
    std::thread::scope(|threads| {
        for owner in 0..2u32 {
            let start = &start;
            threads.spawn(move || {
                start.wait();
                for round in 0..200u32 {
                    let mut slots = [0u32; 5];
                    rayon::scope(|s| {
                        for (i, slot) in slots.iter_mut().enumerate() {
                            s.spawn(move |_| *slot = owner * 1000 + round + i as u32);
                        }
                    });
                    for (i, slot) in slots.iter().enumerate() {
                        assert_eq!(*slot, owner * 1000 + round + i as u32);
                    }
                }
            });
        }
    });
}

/// A task's mutable borrow of the owner's stack is over when `scope`
/// returns, at every task length.
#[test]
fn borrowed_stack_data_is_complete_when_scope_returns() {
    let _serial = pool();
    for round in 0..50u64 {
        let mut data = [0u64; 256];
        let (left, right) = data.split_at_mut(128);
        rayon::scope(|s| {
            s.spawn(|_| {
                std::thread::sleep(Duration::from_micros(round * 10));
                left.iter_mut().for_each(|v| *v = round + 1);
            });
            right.iter_mut().for_each(|v| *v = round + 2);
        });
        assert!(data[..128].iter().all(|&v| v == round + 1));
        assert!(data[128..].iter().all(|&v| v == round + 2));
    }
}

#[cfg(target_os = "linux")]
/// User + system CPU time of this process, in clock ticks.
fn process_cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12th and 13th after it.
    let fields: Vec<&str> = stat.rsplit_once(')').unwrap().1.split_whitespace().collect();
    fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
}

/// The polling window is bounded: with no scope running, the workers park
/// and the process stops using the CPU.
#[test]
#[cfg(target_os = "linux")]
fn idle_workers_park() {
    let _serial = pool();
    ids_of_two_task_scopes(10);
    std::thread::sleep(Duration::from_millis(100));
    let before = process_cpu_ticks();
    std::thread::sleep(Duration::from_millis(400));
    let ticks = process_cpu_ticks() - before;
    // Two polling workers would burn ~80 ticks (10 ms each) in 400 ms.
    assert!(ticks <= 8, "idle pool used {ticks} CPU ticks in 400 ms");
}
