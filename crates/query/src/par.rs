//! The one fan-out seam of the engine: the vectorized query kernels and the
//! evolution operators (DECOMPOSE, MERGE, plan waves in `cods`) all
//! decompose their work into independent tasks — one per segment batch or
//! per (column × segment) — and map them here. Tasks run on `rayon`'s
//! persistent process-wide pool (one OS thread per hardware thread,
//! started once per process), so the grain can be thousands of tasks
//! without spawning thousands of threads. With one item or one worker the
//! map degenerates to the serial loop, so single-core hosts pay nothing
//! for the seam.

use std::sync::OnceLock;

/// Worker count every fan-out is sized against. `CODS_QUERY_THREADS`
/// overrides the pool's native width — the thread-scaling smoke's knob, so a
/// 1-core CI container can still exercise the N>1 fan-out path (tasks then
/// interleave on the single worker; results must stay bit-identical).
fn threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("CODS_QUERY_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(rayon::current_num_threads)
    })
}

/// Maps `f` over `items` in parallel, preserving order.
pub fn map_parallel<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if items.len() <= 1 || threads() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    rayon::scope(|scope| {
        let f = &f;
        for (slot, item) in out.iter_mut().zip(items) {
            scope.spawn(move |_| {
                *slot = Some(f(item));
            });
        }
    });
    out.into_iter()
        .map(|r| r.expect("pool task did not complete"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let out = map_parallel(vec![1, 2, 3, 4], |x| x * 10);
        assert_eq!(out, vec![10, 20, 30, 40]);
    }

    #[test]
    fn empty_and_single() {
        let out: Vec<i32> = map_parallel(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
        assert_eq!(map_parallel(vec![7], |x| x + 1), vec![8]);
    }

    #[test]
    fn many_tasks_preserve_order() {
        let items: Vec<u64> = (0..10_000).collect();
        let out = map_parallel(items, |x| x * 2);
        assert_eq!(out.len(), 10_000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 * 2);
        }
    }
}
