//! Offline stand-in for the `rayon` crate.
//!
//! Implements the slice-parallelism surface this workspace uses —
//! `par_iter()` followed by `map(...).collect()`, `map_init(...).collect()`
//! or `for_each(...)` — on top of `std::thread::scope`. Work is split into one contiguous chunk per
//! available core (sequential fallback on one core), and `collect()`
//! preserves input order, matching rayon's indexed semantics. Swapping the
//! real rayon back in is a manifest-only change.

use std::num::NonZeroUsize;

/// Number of worker threads to use for a job of `len` items.
fn workers_for(len: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    cores.min(len).max(1)
}

/// Apply `f` to every element of `items`, collecting outputs in input
/// order across a scoped thread pool. Every worker makes one state with
/// `init` and hands it to each of its calls of `f`.
fn parallel_map<'a, T, S, R, I, F>(items: &'a [T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &'a T) -> R + Sync,
{
    let n = items.len();
    let workers = workers_for(n);
    if workers <= 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    let chunk = n.div_ceil(workers);
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let slots: Vec<(usize, &mut [Option<R>])> = {
        let mut rest = out.as_mut_slice();
        let mut slots = Vec::new();
        let mut start = 0;
        while !rest.is_empty() {
            let take = chunk.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            slots.push((start, head));
            start += take;
            rest = tail;
        }
        slots
    };
    std::thread::scope(|scope| {
        for (start, slot) in slots {
            let (init, f) = (&init, &f);
            scope.spawn(move || {
                let mut state = init();
                for (k, cell) in slot.iter_mut().enumerate() {
                    *cell = Some(f(&mut state, &items[start + k]));
                }
            });
        }
    });
    out.into_iter()
        .map(|v| v.expect("worker filled slot"))
        .collect()
}

/// A "parallel" iterator over a borrowed slice.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

/// A mapped parallel iterator.
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

/// A parallel iterator mapped with per-worker state (`map_init`).
pub struct ParMapInit<'a, T, I, F> {
    items: &'a [T],
    init: I,
    f: F,
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Apply `f` to every element.
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        F: Fn(&'a T) -> R + Sync,
        R: Send,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Apply `f` to every element, handing it a state made by `init` —
    /// once per worker, not once per element (rayon's `map_init`).
    pub fn map_init<S, R, I, F>(self, init: I, f: F) -> ParMapInit<'a, T, I, F>
    where
        I: Fn() -> S + Sync,
        F: Fn(&mut S, &'a T) -> R + Sync,
        R: Send,
    {
        ParMapInit {
            items: self.items,
            init,
            f,
        }
    }

    /// Run `f` for every element.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&'a T) + Sync,
    {
        parallel_map(self.items, || (), |(), item| f(item));
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl<'a, T: Sync, R: Send, F: Fn(&'a T) -> R + Sync> ParMap<'a, T, F> {
    /// Collect the mapped values, preserving input order.
    pub fn collect<C: FromParallel<R>>(self) -> C {
        let f = self.f;
        C::from_vec(parallel_map(self.items, || (), |(), item| f(item)))
    }

    /// Sum the mapped values.
    pub fn sum<S: std::iter::Sum<R> + Send>(self) -> S {
        let v: Vec<R> = self.collect();
        v.into_iter().sum()
    }
}

impl<'a, T, S, R, I, F> ParMapInit<'a, T, I, F>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &'a T) -> R + Sync,
{
    /// Collect the mapped values, preserving input order.
    pub fn collect<C: FromParallel<R>>(self) -> C {
        C::from_vec(parallel_map(self.items, self.init, self.f))
    }
}

/// Conversion from an ordered `Vec` of results (rayon's
/// `FromParallelIterator` analogue).
pub trait FromParallel<R> {
    /// Build the collection from results in input order.
    fn from_vec(v: Vec<R>) -> Self;
}

impl<R> FromParallel<R> for Vec<R> {
    fn from_vec(v: Vec<R>) -> Self {
        v
    }
}

impl<A, B> FromParallel<(A, B)> for (Vec<A>, Vec<B>) {
    fn from_vec(v: Vec<(A, B)>) -> Self {
        v.into_iter().unzip()
    }
}

/// `par_iter()` on borrowed collections.
pub trait IntoParallelRefIterator<'a> {
    /// Element type.
    type Item: 'a;
    /// Create the parallel iterator.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// The prelude, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{FromParallel, IntoParallelRefIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<i32> = (0..1000).collect();
        let doubled: Vec<i32> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_init_makes_one_state_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let states = AtomicUsize::new(0);
        let v: Vec<usize> = (0..1000).collect();
        let out: Vec<usize> = v
            .par_iter()
            .map_init(
                || {
                    states.fetch_add(1, Ordering::Relaxed);
                    0usize
                },
                |seen, x| {
                    *seen += 1;
                    *x + 1
                },
            )
            .collect();
        assert_eq!(out, (1..=1000).collect::<Vec<_>>());
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert!((1..=cores).contains(&states.load(Ordering::Relaxed)));
    }

    #[test]
    fn empty_input() {
        let v: Vec<i32> = Vec::new();
        let out: Vec<i32> = v.par_iter().map(|x| *x).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn borrows_from_outer_scope() {
        let names = vec!["a".to_string(), "bb".to_string()];
        let refs: Vec<&str> = names.par_iter().map(|s| s.as_str()).collect();
        assert_eq!(refs, ["a", "bb"]);
    }
}
