//! Work-stealing parallel evaluation scheduler.
//!
//! Fans a static grid of evaluation cells (task × model here, but any
//! `Send` item works) across a bounded worker pool. Design constraints,
//! in order:
//!
//! 1. **Determinism independent of scheduling.** Results come back in
//!    slot order (the input order), and nothing a cell computes may
//!    depend on which worker ran it or when. The harness guarantees the
//!    latter by keying every RNG stream on grid coordinates
//!    (`pcg_core::rng::rng_for`), never on worker identity; this module
//!    guarantees the former by writing each result into its input slot.
//! 2. **Isolation.** A panicking cell is captured (`catch_unwind`) and
//!    reported per-slot; the worker survives and keeps draining the
//!    queue. (Candidate-level panic/timeout isolation is one layer
//!    down, in `runner`.)
//! 3. **Balance.** Workers own interleaved slices of the grid and steal
//!    from the back of a victim's deque when their own runs dry — cheap
//!    LIFO-steal/FIFO-own scheduling in the spirit of
//!    `pcg_shmem::Schedule::Dynamic`, but without that pool's fork-join
//!    region semantics (grid cells are coarse and independent).
//!
//! The worker count comes from `--jobs N` / `PCG_JOBS` (see
//! [`jobs_from_cli`]); `--jobs 1` degrades to an in-place serial loop
//! with identical results, which is the A/B lever the benchmarks use.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// One completed grid cell.
#[derive(Debug)]
pub struct Cell<R> {
    /// The cell's computation, or the captured panic message.
    pub value: Result<R, String>,
    /// Time between grid start and a worker picking the cell up.
    pub queue_wait: Duration,
    /// Time the cell's computation ran.
    pub exec: Duration,
}

/// Render a panic payload the way the test harness would. Cooperative
/// cancellation rides the panic machinery (`pcg_core::cancel`), so its
/// marker payload gets a stable message too.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if pcg_core::cancel::is_cancel_payload(payload) {
        "cancelled".to_string()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic (non-string payload)".to_string()
    }
}

/// The worker count to use when none is given explicitly: `PCG_JOBS`
/// if set and positive, else the machine's available parallelism.
pub fn default_jobs() -> usize {
    if let Ok(s) = std::env::var("PCG_JOBS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Parse `--jobs N` / `--jobs=N` from the process arguments, falling
/// back to [`default_jobs`]. A `--jobs` that is present but not a
/// positive integer aborts with exit code 2 — silently defaulting
/// would turn a typo into the wrong A/B arm. Used by every figure
/// binary.
pub fn jobs_from_cli() -> usize {
    let args: Vec<String> = std::env::args().collect();
    match jobs_from_args(&args) {
        Ok(jobs) => jobs.unwrap_or_else(default_jobs),
        Err(bad) => {
            eprintln!("error: --jobs expects a positive integer, got {bad:?}");
            std::process::exit(2);
        }
    }
}

/// `Ok(Some(n))` for a valid flag, `Ok(None)` when absent,
/// `Err(value)` when present but not a positive integer.
fn jobs_from_args(args: &[String]) -> Result<Option<usize>, String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let value = if a == "--jobs" {
            it.next().map(String::as_str).unwrap_or("")
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            v
        } else {
            continue;
        };
        return match value.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Some(n)),
            _ => Err(value.to_string()),
        };
    }
    Ok(None)
}

/// Run `f` over every item of `items` on `jobs` workers, returning the
/// results in input order regardless of completion order.
///
/// `f` receives `(slot_index, &item)`. Cell panics are captured into
/// `Cell::value`; worker threads never die mid-grid.
pub fn run_grid<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<Cell<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_grid_prioritized(items, jobs, None, f, |_, _| {})
}

/// [`run_grid`] with a completion observer and an explicit dispatch
/// order. `observe(slot, &cell)` runs on the *calling* thread as each
/// cell completes, in completion order (not slot order). This is the
/// hook the write-ahead journal appends from — the observer is the
/// single serialization point of the grid, so journal frames need no
/// locking discipline beyond the file itself.
///
/// When `order` is given, workers *pick up* cells in that sequence
/// (longest processing time first, when the caller sorts by cost
/// priors) while results still come back in slot order and each cell's
/// computation is untouched. Dispatch order is pure scheduling — it
/// changes wall-clock tail latency, never bytes.
///
/// With an explicit order the workers share one front-pop queue (the
/// classic LPT list-scheduling discipline: next free worker takes the
/// longest remaining cell). Without one (`None`), the grid is dealt
/// round-robin into per-worker deques with back-steal, which is the
/// better default when costs are unknown. `order` must be a permutation
/// of `0..items.len()`; out-of-range or duplicate entries panic.
pub fn run_grid_prioritized<T, R, F, O>(
    items: Vec<T>,
    jobs: usize,
    order: Option<Vec<usize>>,
    f: F,
    mut observe: O,
) -> Vec<Cell<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
    O: FnMut(usize, &Cell<R>),
{
    let n = items.len();
    let jobs = jobs.max(1).min(n.max(1));
    let t0 = Instant::now();

    if let Some(order) = &order {
        let mut seen = vec![false; n];
        for &slot in order {
            assert!(slot < n, "dispatch order entry {slot} out of range for {n} items");
            assert!(!seen[slot], "dispatch order repeats slot {slot}");
            seen[slot] = true;
        }
        assert!(seen.iter().all(|&s| s), "dispatch order must cover every slot");
    }

    let run_cell = |slot: usize| -> Cell<R> {
        let queue_wait = t0.elapsed();
        let started = Instant::now();
        let value = catch_unwind(AssertUnwindSafe(|| f(slot, &items[slot])))
            .map_err(|p| panic_message(&*p));
        Cell { value, queue_wait, exec: started.elapsed() }
    };

    if jobs == 1 {
        // Serial A/B path: same code path per cell, no worker threads.
        // An explicit order still reorders execution (the journal sees
        // completion order), but results scatter back to their slots.
        let mut slots: Vec<Option<Cell<R>>> = (0..n).map(|_| None).collect();
        let sequence = order.unwrap_or_else(|| (0..n).collect());
        for slot in sequence {
            let cell = run_cell(slot);
            observe(slot, &cell);
            slots[slot] = Some(cell);
        }
        return slots
            .into_iter()
            .enumerate()
            .map(|(i, c)| c.unwrap_or_else(|| panic!("grid slot {i} never completed")))
            .collect();
    }

    // Dispatch queues. With an explicit priority order, one shared
    // front-pop queue implements LPT list scheduling exactly; otherwise
    // deal the grid round-robin so every worker starts with a spread of
    // cells (adjacent cells often share a problem and therefore cost).
    let deques: Vec<Mutex<VecDeque<usize>>> = match order {
        Some(order) => vec![Mutex::new(order.into_iter().collect())],
        None => (0..jobs).map(|w| Mutex::new((w..n).step_by(jobs).collect())).collect(),
    };
    let queues = deques.len();

    let mut slots: Vec<Option<Cell<R>>> = (0..n).map(|_| None).collect();
    {
        // Hand each worker an interleaved view of the result slots:
        // worker `w` may only ever write slots it popped, and every slot
        // is popped exactly once, so the raw pointer writes are disjoint.
        // Rather than reason about that with unsafe code, collect over a
        // channel and scatter afterwards.
        let (tx, rx) = std::sync::mpsc::channel::<(usize, Cell<R>)>();
        std::thread::scope(|scope| {
            for w in 0..jobs {
                let tx = tx.clone();
                let deques = &deques;
                let run_cell = &run_cell;
                scope.spawn(move || {
                    while let Some(slot) = next_slot(deques, w % queues) {
                        let _ = tx.send((slot, run_cell(slot)));
                    }
                });
            }
            drop(tx);
            for (slot, cell) in rx {
                observe(slot, &cell);
                slots[slot] = Some(cell);
            }
        });
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, c)| c.unwrap_or_else(|| panic!("grid slot {i} never completed")))
        .collect()
}

/// The next slot for the worker whose own queue is `deques[own]`: its
/// own queue first (front), then a steal from the others (back). The
/// own queue's guard is dropped before stealing — two draining workers
/// that each held their own lock while locking the other's would wait
/// on each other forever.
fn next_slot(deques: &[Mutex<VecDeque<usize>>], own: usize) -> Option<usize> {
    let next = deques[own].lock().pop_front();
    next.or_else(|| {
        (1..deques.len()).find_map(|d| deques[(own + d) % deques.len()].lock().pop_back())
    })
}

/// [`run_grid`], unwrapping cell panics by re-raising the first one
/// after the whole grid has drained (so no in-flight work is lost).
pub fn run_grid_strict<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<Cell<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let cells = run_grid(items, jobs, f);
    if let Some((slot, msg)) = cells
        .iter()
        .enumerate()
        .find_map(|(i, c)| c.value.as_ref().err().map(|m| (i, m.clone())))
    {
        panic!("evaluation cell {slot} panicked: {msg}");
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_slot_order() {
        let items: Vec<usize> = (0..97).collect();
        let cells = run_grid(items, 8, |i, &x| {
            assert_eq!(i, x);
            // Vary the work so completion order scrambles.
            let mut acc = 0u64;
            for k in 0..((x % 7) * 1000) {
                acc = acc.wrapping_add(k as u64);
            }
            (x * 2, acc)
        });
        assert_eq!(cells.len(), 97);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.value.as_ref().unwrap().0, i * 2);
        }
    }

    #[test]
    fn jobs_one_matches_jobs_many() {
        let f = |i: usize, x: &u64| x.wrapping_mul(31).wrapping_add(i as u64);
        let items: Vec<u64> = (0..64).map(|i| i * 3).collect();
        let serial: Vec<u64> =
            run_grid(items.clone(), 1, f).into_iter().map(|c| c.value.unwrap()).collect();
        let parallel: Vec<u64> =
            run_grid(items, 8, f).into_iter().map(|c| c.value.unwrap()).collect();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let hits = AtomicUsize::new(0);
        let cells = run_grid((0..1000).collect::<Vec<_>>(), 6, |_, _| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
        assert_eq!(cells.len(), 1000);
    }

    #[test]
    fn cell_panic_is_captured_and_grid_completes() {
        let cells = run_grid((0..20).collect::<Vec<_>>(), 4, |_, &x| {
            if x == 7 {
                panic!("boom on {x}");
            }
            x
        });
        for (i, c) in cells.iter().enumerate() {
            if i == 7 {
                assert_eq!(c.value.as_ref().unwrap_err(), "boom on 7");
            } else {
                assert_eq!(*c.value.as_ref().unwrap(), i);
            }
        }
    }

    #[test]
    #[should_panic(expected = "cell 7 panicked")]
    fn strict_variant_reraises_after_drain() {
        run_grid_strict((0..20).collect::<Vec<_>>(), 4, |_, &x| {
            assert!(x != 7, "boom");
        });
    }

    #[test]
    fn empty_grid_and_oversized_jobs() {
        let cells = run_grid(Vec::<u32>::new(), 8, |_, &x| x);
        assert!(cells.is_empty());
        let cells = run_grid(vec![5u32, 6], 64, |_, &x| x + 1);
        assert_eq!(
            cells.into_iter().map(|c| c.value.unwrap()).collect::<Vec<_>>(),
            vec![6, 7]
        );
    }

    #[test]
    fn stealing_drains_a_lopsided_grid() {
        // All the work lands in worker 0's deque slots; the others must
        // steal it. (0, jobs, 2*jobs, ... are worker 0's cells under
        // round-robin dealing with jobs=4.)
        let items: Vec<usize> = (0..64).collect();
        let slow = AtomicUsize::new(0);
        let cells = run_grid(items, 4, |_, &x| {
            if x % 4 == 0 {
                slow.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(1));
            }
            x
        });
        assert_eq!(slow.load(Ordering::Relaxed), 16);
        assert_eq!(cells.len(), 64);
    }

    #[test]
    fn stealing_releases_the_own_queue_first() {
        // Worker 0's queue is empty and worker 1's is locked elsewhere
        // (as by worker 1 itself, about to steal from worker 0), so
        // worker 0 blocks in the steal. Its own queue must be free by
        // then, or the two workers deadlock.
        let deques: Vec<Mutex<VecDeque<usize>>> =
            vec![Mutex::new(VecDeque::new()), Mutex::new(VecDeque::from([7]))];
        let sibling = deques[1].lock();
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| next_slot(&deques, 0));
            std::thread::sleep(Duration::from_millis(50));
            let deadline = Instant::now() + Duration::from_secs(1);
            let own_free = loop {
                if deques[0].try_lock().is_some() {
                    break true;
                }
                if Instant::now() > deadline {
                    break false;
                }
                std::thread::yield_now();
            };
            drop(sibling);
            assert_eq!(worker.join().unwrap(), Some(7));
            assert!(own_free, "a stealing worker still held its own queue's lock");
        });
    }

    #[test]
    fn queue_wait_and_exec_are_recorded() {
        let cells = run_grid(vec![1u32; 8], 2, |_, _| {
            std::thread::sleep(Duration::from_millis(2));
        });
        for c in &cells {
            assert!(c.exec >= Duration::from_millis(2));
        }
        // Later cells on a 2-worker pool must have waited in queue.
        assert!(cells.iter().any(|c| c.queue_wait > Duration::from_millis(1)));
    }

    #[test]
    fn prioritized_dispatch_respects_order_and_slot_results() {
        // At jobs=1 the execution sequence IS the order; observe()
        // records it, while results still land slot-ordered.
        let order: Vec<usize> = (0..17).rev().collect();
        let mut executed = Vec::new();
        let cells = run_grid_prioritized(
            (0..17).collect::<Vec<usize>>(),
            1,
            Some(order.clone()),
            |i, &x| {
                assert_eq!(i, x);
                x * 10
            },
            |slot, _| executed.push(slot),
        );
        assert_eq!(executed, order, "jobs=1 must execute exactly in dispatch order");
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(*c.value.as_ref().unwrap(), i * 10);
        }

        // At jobs>1 results are still slot-ordered and byte-identical
        // to the unordered run; only pickup order differs.
        let f = |i: usize, x: &u64| x.wrapping_mul(31).wrapping_add(i as u64);
        let items: Vec<u64> = (0..64).map(|i| i * 3).collect();
        let plain: Vec<u64> =
            run_grid(items.clone(), 8, f).into_iter().map(|c| c.value.unwrap()).collect();
        let ordered: Vec<u64> =
            run_grid_prioritized(items, 8, Some((0..64).rev().collect()), f, |_, _| {})
                .into_iter()
                .map(|c| c.value.unwrap())
                .collect();
        assert_eq!(plain, ordered);
    }

    #[test]
    fn prioritized_dispatch_runs_long_cells_first() {
        // The head of the dispatch order must be among the first cells
        // picked up. With 2 workers each holding one cell, no third
        // pop can happen until one of the first two completes, and a
        // barrier makes both first pickups rendezvous inside `f` — so
        // the first two `f` entries are exactly the first two queue
        // pops, deterministically.
        let long_slot = 9usize;
        let order: Vec<usize> = std::iter::once(long_slot)
            .chain((0..16).filter(|&i| i != long_slot))
            .collect();
        let barrier = std::sync::Barrier::new(2);
        let entries = AtomicUsize::new(0);
        let first_two = Mutex::new(Vec::new());
        run_grid_prioritized(
            (0..16).collect::<Vec<usize>>(),
            2,
            Some(order),
            |slot, _| {
                if entries.fetch_add(1, Ordering::SeqCst) < 2 {
                    first_two.lock().push(slot);
                    barrier.wait();
                }
            },
            |_, _| {},
        );
        assert!(
            first_two.lock().contains(&long_slot),
            "the head of the dispatch order must be picked up first"
        );
    }

    #[test]
    #[should_panic(expected = "dispatch order")]
    fn prioritized_dispatch_rejects_non_permutations() {
        run_grid_prioritized(
            vec![1u32, 2, 3],
            2,
            Some(vec![0, 0, 1]),
            |_, &x| x,
            |_, _| {},
        );
    }

    #[test]
    fn jobs_flags_parse() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(jobs_from_args(&args(&["bin", "--jobs", "8"])), Ok(Some(8)));
        assert_eq!(jobs_from_args(&args(&["bin", "--jobs=3"])), Ok(Some(3)));
        assert_eq!(jobs_from_args(&args(&["bin"])), Ok(None));
        // Present-but-invalid must be an error, not a silent default.
        assert_eq!(jobs_from_args(&args(&["bin", "--jobs", "0"])), Err("0".into()));
        assert_eq!(jobs_from_args(&args(&["bin", "--jobs", "many"])), Err("many".into()));
        assert_eq!(jobs_from_args(&args(&["bin", "--jobs"])), Err("".into()));
        assert!(default_jobs() >= 1);
    }
}
