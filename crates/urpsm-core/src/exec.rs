//! Dependency-free scoped-thread fan-out.
//!
//! Two primitives, using nothing beyond `std`:
//!
//! * [`WorkPool`] — a fixed-width fan-out built on
//!   [`std::thread::scope`], so workers may borrow the caller's state
//!   (no `'static` bound, no `unsafe`). Thread 0 is the *calling*
//!   thread: a pool of width `t` spawns only `t − 1` OS threads.
//! * [`IndexFeed`] — an atomic work queue over `0..len`.
//!
//! The geo-sharded service broadcasts fleet-wide events (clock ticks)
//! to its shards over a [`WorkPool`], and the `experiments` binary
//! spreads independent grid cells over one with an [`IndexFeed`]. The
//! planners do not use either: Algo. 5 is one sequential scan.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of hardware threads, with a serial fallback when the
/// platform cannot tell.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// A fixed-width scoped fan-out: `threads` workers run a closure
/// concurrently, borrowing from the caller's stack.
///
/// Width 1 never touches the thread machinery: the closure runs once,
/// on the calling thread.
#[derive(Debug, Clone)]
pub struct WorkPool {
    threads: usize,
}

impl WorkPool {
    /// A pool of `threads` workers; `0` means
    /// [`available_threads()`].
    pub fn new(threads: usize) -> Self {
        WorkPool {
            threads: if threads == 0 {
                available_threads()
            } else {
                threads
            },
        }
    }

    /// The pool width.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether fan-out actually happens (`threads > 1`).
    #[inline]
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }

    /// Runs `worker(thread_index)` on every pool thread and returns
    /// the results in thread-index order. Thread 0 is the caller.
    ///
    /// A worker panic is propagated to the caller after every other
    /// worker has been joined (no detached threads survive the call).
    pub fn run<R, F>(&self, worker: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.threads <= 1 {
            return vec![worker(0)];
        }
        std::thread::scope(|scope| {
            let worker = &worker;
            let spawned: Vec<_> = (1..self.threads)
                .map(|i| scope.spawn(move || worker(i)))
                .collect();
            let mut out = Vec::with_capacity(self.threads);
            out.push(worker(0));
            for handle in spawned {
                match handle.join() {
                    Ok(r) => out.push(r),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            out
        })
    }

    /// Like [`WorkPool::run`], but hands worker `i` exclusive `&mut`
    /// access to `states[i]` (the shard broadcast hands each thread its
    /// own chunk of shards).
    ///
    /// # Panics
    /// If `states.len() < self.threads()`.
    pub fn run_with<S, R, F>(&self, states: &mut [S], worker: F) -> Vec<R>
    where
        S: Send,
        R: Send,
        F: Fn(usize, &mut S) -> R + Sync,
    {
        assert!(
            states.len() >= self.threads,
            "need one scratch state per pool thread"
        );
        if self.threads <= 1 {
            return vec![worker(0, &mut states[0])];
        }
        std::thread::scope(|scope| {
            let worker = &worker;
            let (head, tail) = states.split_at_mut(1);
            let spawned: Vec<_> = tail
                .iter_mut()
                .take(self.threads - 1)
                .enumerate()
                .map(|(i, s)| scope.spawn(move || worker(i + 1, s)))
                .collect();
            let mut out = Vec::with_capacity(self.threads);
            out.push(worker(0, &mut head[0]));
            for handle in spawned {
                match handle.join() {
                    Ok(r) => out.push(r),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            out
        })
    }
}

impl Default for WorkPool {
    /// The serial pool (`threads = 1`).
    fn default() -> Self {
        WorkPool::new(1)
    }
}

/// An atomic work queue over the indices `0..len`, handed out in
/// ascending order.
#[derive(Debug)]
pub struct IndexFeed {
    next: AtomicUsize,
    len: usize,
}

impl IndexFeed {
    /// A feed over `0..len`.
    pub fn new(len: usize) -> Self {
        IndexFeed {
            next: AtomicUsize::new(0),
            len,
        }
    }

    /// Claims the next index, or `None` when the feed is drained.
    /// Each index is handed to exactly one caller.
    #[inline]
    pub fn next(&self) -> Option<usize> {
        // Relaxed is enough: `fetch_add` is already atomic, and no
        // other memory is published through this counter.
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.len).then_some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_pool_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let pool = WorkPool::new(1);
        let ids = pool.run(|_| std::thread::current().id());
        assert_eq!(ids, vec![caller]);
    }

    #[test]
    fn pool_runs_every_worker_once_in_order() {
        let pool = WorkPool::new(4);
        assert!(pool.is_parallel());
        let out = pool.run(|i| i * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn run_with_hands_out_disjoint_scratch() {
        let pool = WorkPool::new(3);
        let mut scratch = vec![0u64; 3];
        let out = pool.run_with(&mut scratch, |i, s| {
            *s = i as u64 + 1;
            *s * 100
        });
        assert_eq!(out, vec![100, 200, 300]);
        assert_eq!(scratch, vec![1, 2, 3]);
    }

    #[test]
    fn zero_width_pool_autodetects() {
        let pool = WorkPool::new(0);
        assert!(pool.threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "scratch state per pool thread")]
    fn run_with_rejects_short_scratch() {
        let pool = WorkPool::new(4);
        let mut scratch = vec![0u8; 2];
        let _ = pool.run_with(&mut scratch, |_, _| ());
    }

    #[test]
    fn feed_hands_each_index_exactly_once() {
        let feed = IndexFeed::new(1_000);
        let pool = WorkPool::new(4);
        let counted = AtomicUsize::new(0);
        let sums = pool.run(|_| {
            let mut sum = 0usize;
            while let Some(i) = feed.next() {
                sum += i;
                counted.fetch_add(1, Ordering::Relaxed);
            }
            sum
        });
        assert_eq!(counted.load(Ordering::Relaxed), 1_000);
        assert_eq!(sums.iter().sum::<usize>(), 999 * 1_000 / 2);
        assert_eq!(feed.next(), None);
    }

    #[test]
    fn worker_panics_propagate() {
        let pool = WorkPool::new(2);
        let caught = std::panic::catch_unwind(|| {
            pool.run(|i| {
                if i == 1 {
                    panic!("boom");
                }
            })
        });
        assert!(caught.is_err());
    }
}
