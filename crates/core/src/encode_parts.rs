//! The encoders' one scan, split across the available CPUs.
//!
//! CSR-DU, CSR-VI and CSR-DU-VI are each built in one `O(nnz)` scan
//! (§IV, §V). From [`PARALLEL_ENCODE_MIN_NNZ`] non-zeros on, an encoder
//! cuts that scan into nnz-balanced parts, one per available CPU
//! ([`std::thread::available_parallelism`]): the first part runs on the
//! calling thread, every other one on a scoped thread of its own, and the
//! parts are joined in order, so every output byte is what the one-part
//! scan writes. Below the threshold the one-part scan runs on the calling
//! thread alone and no thread is spawned.
//!
//! The calling thread allocates every buffer that outlives the encode;
//! a part fills its own slice of it, or a buffer the caller allocated for
//! it that grows only by reallocation. glibc gives a thread that allocates
//! an arena of its own and keeps what is freed there mapped, so encodings
//! allocated on the workers would stay in the resident memory of a
//! long-running process after they are dropped. Filling the caller's
//! buffers by parts also splits their first-touch page faults between the
//! threads.

use std::sync::{Mutex, PoisonError};

/// Non-zeros from which CSR-DU, CSR-VI and CSR-DU-VI encodes split their
/// scan across the available CPUs. Matrices below it (cache-resident
/// ones have tens of thousands of non-zeros) encode in a few
/// milliseconds, which a thread spawn and a second glibc arena would not
/// pay for; the multi-million-nnz matrices above it spend tens of
/// milliseconds per encode, a fifth of it in first-touch page faults.
pub const PARALLEL_ENCODE_MIN_NNZ: usize = 1 << 20;

/// Parts an encode of `nnz` non-zeros splits into: one per available CPU
/// from [`PARALLEL_ENCODE_MIN_NNZ`] on, otherwise one.
pub(crate) fn for_nnz(nnz: usize) -> usize {
    if nnz < PARALLEL_ENCODE_MIN_NNZ {
        return 1;
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The `parts + 1` bounds of `parts` near-equal ranges of `0..len`.
pub(crate) fn even_bounds(len: usize, parts: usize) -> Vec<usize> {
    let parts = parts.max(1);
    (0..=parts).map(|p| (len as u128 * p as u128 / parts as u128) as usize).collect()
}

/// `buf` cut into the ranges between consecutive `bounds`, which run from
/// 0 to `buf.len()`. Panics if the bounds descend or pass the end.
pub fn split_mut<'a, T>(mut buf: &'a mut [T], bounds: &[usize]) -> Vec<&'a mut [T]> {
    let mut parts = Vec::with_capacity(bounds.len().saturating_sub(1));
    for w in bounds.windows(2) {
        let (part, rest) = std::mem::take(&mut buf).split_at_mut(w[1] - w[0]);
        parts.push(part);
        buf = rest;
    }
    parts
}

/// Runs `work` on every item and returns the results in item order: the
/// first item on the calling thread, every other one on a scoped thread.
/// An item whose thread cannot be spawned runs on the calling thread
/// instead; a panic in any item resumes on the caller once every thread
/// has finished.
pub(crate) fn run<T: Send, R: Send>(items: Vec<T>, work: impl Fn(T) -> R + Sync) -> Vec<R> {
    // Take-once slots: an item whose spawn failed is still in its slot
    // for the calling thread to run.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let Some((first, rest)) = slots.split_first() else {
        return Vec::new();
    };
    let take = |slot: &Mutex<Option<T>>| {
        let item = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
        work(item.expect("each part runs once"))
    };
    let take = &take;
    std::thread::scope(|s| {
        let spawned: Vec<_> = rest
            .iter()
            .map(|slot| std::thread::Builder::new().spawn_scoped(s, move || take(slot)).ok())
            .collect();
        let mut out = Vec::with_capacity(slots.len());
        out.push(take(first));
        for (slot, handle) in rest.iter().zip(spawned) {
            out.push(match handle {
                Some(h) => h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                None => take(slot),
            });
        }
        out
    })
}

/// A copy of `src`, allocated by the calling thread and filled in `parts`
/// near-equal ranges ([`run`]); one part is a plain `to_vec`.
pub(crate) fn copy<T: Copy + Default + Send + Sync>(src: &[T], parts: usize) -> Vec<T> {
    if parts <= 1 {
        return src.to_vec();
    }
    let mut out = vec![T::default(); src.len()];
    let bounds = even_bounds(src.len(), parts);
    let items: Vec<_> = split_mut(&mut out, &bounds).into_iter().zip(bounds.windows(2)).collect();
    run(items, |(dst, w)| dst.copy_from_slice(&src[w[0]..w[1]]));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_bounds_cover_the_range_in_order() {
        assert_eq!(even_bounds(10, 3), [0, 3, 6, 10]);
        assert_eq!(even_bounds(2, 7), [0, 0, 0, 0, 1, 1, 1, 2]);
        assert_eq!(even_bounds(0, 2), [0, 0, 0]);
        assert_eq!(even_bounds(5, 0), [0, 5]);
    }

    #[test]
    fn split_mut_cuts_at_the_bounds() {
        let mut buf: Vec<u32> = (0..10).collect();
        let parts = split_mut(&mut buf, &[0, 3, 3, 10]);
        let lens: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        assert_eq!(lens, [3, 0, 7]);
        assert_eq!(parts[2][0], 3);
    }

    #[test]
    fn run_returns_results_in_item_order() {
        let got = run((0..7u64).collect(), |i| (i, std::thread::current().id()));
        assert_eq!(got.iter().map(|(i, _)| *i).collect::<Vec<_>>(), (0..7).collect::<Vec<_>>());
        assert_eq!(got[0].1, std::thread::current().id(), "the first part runs on the caller");
        assert!(run(Vec::<u8>::new(), |i| i).is_empty());
    }

    #[test]
    fn a_worker_panic_resumes_on_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            run(vec![0, 1, 2], |i| {
                assert_ne!(i, 2, "part two fails");
                i
            })
        });
        let panic = caught.expect_err("the worker's panic reaches the caller");
        let msg = panic.downcast_ref::<String>().map(String::as_str).unwrap_or_default();
        assert!(msg.contains("part two fails"), "{msg}");
    }

    #[test]
    fn copy_matches_to_vec_at_every_part_count() {
        let src: Vec<u32> = (0..1001).map(|i| i * 7).collect();
        for parts in [0, 1, 2, 3, 7] {
            assert_eq!(copy(&src, parts), src, "{parts} parts");
        }
        // More parts than elements: some parts copy nothing.
        assert_eq!(copy(&src[..5], 7), &src[..5]);
    }

    #[test]
    fn parts_follow_the_threshold() {
        assert_eq!(for_nnz(PARALLEL_ENCODE_MIN_NNZ - 1), 1);
        let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(for_nnz(PARALLEL_ENCODE_MIN_NNZ), cpus);
    }
}
