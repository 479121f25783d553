//! With the pool sized 1 there is no worker: `spawn` creates no thread and
//! the owner runs every task itself. One test, so the process's thread
//! count is its own.
#![cfg(target_os = "linux")]

fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line");
    line.trim().parse().unwrap()
}

#[test]
fn a_pool_of_one_creates_no_thread() {
    std::env::set_var("RAYON_NUM_THREADS", "1");
    assert_eq!(rayon::current_num_threads(), 1);
    let before = process_threads();
    let owner = std::thread::current().id();
    let mut ran = [false; 4];
    for _ in 0..10 {
        rayon::scope(|s| {
            for slot in &mut ran {
                s.spawn(move |_| {
                    assert_eq!(std::thread::current().id(), owner);
                    *slot = true;
                });
            }
        });
        assert_eq!(process_threads(), before);
    }
    assert_eq!(ran, [true; 4]);
}
