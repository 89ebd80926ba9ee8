//! Offline stand-in for the subset of `rayon` that the repository uses.
//!
//! Every "parallel" iterator here runs **sequentially on the calling
//! thread**, in order. The benchmark box has two cores and its harness
//! budgets one client thread plus one orchestrator worker, so a pool
//! would only add contention the thread-budget guard forbids; results
//! are identical because the repository's kernels are written to be
//! bit-identical to their sequential order (DESIGN.md §14).

use std::ops::Range;

/// A "parallel" iterator: a wrapper around the sequential one.
pub struct Par<I>(I);

pub trait ParallelIterator: Sized {
    type Item;
    type Seq: Iterator<Item = Self::Item>;

    fn into_seq(self) -> Self::Seq;

    fn map<F, R>(self, f: F) -> Par<std::iter::Map<Self::Seq, F>>
    where
        F: Fn(Self::Item) -> R + Sync + Send,
    {
        Par(self.into_seq().map(f))
    }

    fn filter<P>(self, p: P) -> Par<std::iter::Filter<Self::Seq, P>>
    where
        P: Fn(&Self::Item) -> bool + Sync + Send,
    {
        Par(self.into_seq().filter(p))
    }

    fn filter_map<F, R>(self, f: F) -> Par<std::iter::FilterMap<Self::Seq, F>>
    where
        F: Fn(Self::Item) -> Option<R> + Sync + Send,
    {
        Par(self.into_seq().filter_map(f))
    }

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        self.into_seq().for_each(f)
    }

    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item>,
    {
        self.into_seq().sum()
    }

    fn count(self) -> usize {
        self.into_seq().count()
    }

    fn reduce<ID, OP>(self, identity: ID, op: OP) -> Self::Item
    where
        ID: Fn() -> Self::Item + Sync + Send,
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Sync + Send,
    {
        self.into_seq().fold(identity(), op)
    }

    fn any<P>(self, p: P) -> bool
    where
        P: Fn(Self::Item) -> bool + Sync + Send,
    {
        self.into_seq().any(p)
    }

    fn all<P>(self, p: P) -> bool
    where
        P: Fn(Self::Item) -> bool + Sync + Send,
    {
        self.into_seq().all(p)
    }

    fn collect<C>(self) -> C
    where
        C: FromIterator<Self::Item>,
    {
        self.into_seq().collect()
    }
}

impl<I: Iterator> ParallelIterator for Par<I> {
    type Item = I::Item;
    type Seq = I;

    fn into_seq(self) -> I {
        self.0
    }
}

pub trait IndexedParallelIterator: ParallelIterator {
    fn zip<Z>(self, other: Z) -> Par<std::iter::Zip<Self::Seq, <Z::Iter as ParallelIterator>::Seq>>
    where
        Z: IntoParallelIterator,
    {
        Par(self.into_seq().zip(other.into_par_iter().into_seq()))
    }

    fn enumerate(self) -> Par<std::iter::Enumerate<Self::Seq>> {
        Par(self.into_seq().enumerate())
    }

    /// Splitting hints have nothing to split here.
    fn with_min_len(self, _min: usize) -> Self {
        self
    }

    fn with_max_len(self, _max: usize) -> Self {
        self
    }
}

impl<I: Iterator> IndexedParallelIterator for Par<I> {}

pub trait IntoParallelIterator {
    type Item;
    type Iter: ParallelIterator<Item = Self::Item>;

    fn into_par_iter(self) -> Self::Iter;
}

impl<I: Iterator> IntoParallelIterator for Par<I> {
    type Item = I::Item;
    type Iter = Par<I>;

    fn into_par_iter(self) -> Par<I> {
        self
    }
}

macro_rules! into_par_range {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for Range<$t> {
            type Item = $t;
            type Iter = Par<Range<$t>>;

            fn into_par_iter(self) -> Self::Iter {
                Par(self)
            }
        }
    )*};
}
into_par_range!(u32, u64, usize, i32, i64);

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = Par<std::vec::IntoIter<T>>;

    fn into_par_iter(self) -> Self::Iter {
        Par(self.into_iter())
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
    type Item = &'a T;
    type Iter = Par<std::slice::Iter<'a, T>>;

    fn into_par_iter(self) -> Self::Iter {
        Par(self.iter())
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a Vec<T> {
    type Item = &'a T;
    type Iter = Par<std::slice::Iter<'a, T>>;

    fn into_par_iter(self) -> Self::Iter {
        Par(self.iter())
    }
}

impl<'a, T: Send> IntoParallelIterator for &'a mut [T] {
    type Item = &'a mut T;
    type Iter = Par<std::slice::IterMut<'a, T>>;

    fn into_par_iter(self) -> Self::Iter {
        Par(self.iter_mut())
    }
}

impl<'a, T: Send> IntoParallelIterator for &'a mut Vec<T> {
    type Item = &'a mut T;
    type Iter = Par<std::slice::IterMut<'a, T>>;

    fn into_par_iter(self) -> Self::Iter {
        Par(self.iter_mut())
    }
}

pub trait IntoParallelRefIterator<'a> {
    type Item;
    type Iter: ParallelIterator<Item = Self::Item>;

    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, C: 'a + ?Sized> IntoParallelRefIterator<'a> for C
where
    &'a C: IntoParallelIterator,
{
    type Item = <&'a C as IntoParallelIterator>::Item;
    type Iter = <&'a C as IntoParallelIterator>::Iter;

    fn par_iter(&'a self) -> Self::Iter {
        self.into_par_iter()
    }
}

pub trait IntoParallelRefMutIterator<'a> {
    type Item;
    type Iter: ParallelIterator<Item = Self::Item>;

    fn par_iter_mut(&'a mut self) -> Self::Iter;
}

impl<'a, C: 'a + ?Sized> IntoParallelRefMutIterator<'a> for C
where
    &'a mut C: IntoParallelIterator,
{
    type Item = <&'a mut C as IntoParallelIterator>::Item;
    type Iter = <&'a mut C as IntoParallelIterator>::Iter;

    fn par_iter_mut(&'a mut self) -> Self::Iter {
        self.into_par_iter()
    }
}

pub trait ParallelSlice<T: Sync> {
    fn as_parallel_slice(&self) -> &[T];

    fn par_chunks(&self, size: usize) -> Par<std::slice::Chunks<'_, T>> {
        Par(self.as_parallel_slice().chunks(size))
    }

    fn par_chunks_exact(&self, size: usize) -> Par<std::slice::ChunksExact<'_, T>> {
        Par(self.as_parallel_slice().chunks_exact(size))
    }
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn as_parallel_slice(&self) -> &[T] {
        self
    }
}

pub trait ParallelSliceMut<T: Send> {
    fn as_parallel_slice_mut(&mut self) -> &mut [T];

    fn par_chunks_mut(&mut self, size: usize) -> Par<std::slice::ChunksMut<'_, T>> {
        Par(self.as_parallel_slice_mut().chunks_mut(size))
    }

    fn par_chunks_exact_mut(&mut self, size: usize) -> Par<std::slice::ChunksExactMut<'_, T>> {
        Par(self.as_parallel_slice_mut().chunks_exact_mut(size))
    }
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn as_parallel_slice_mut(&mut self) -> &mut [T] {
        self
    }
}

/// Run both closures (one after the other) and return both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    (a(), b())
}

/// The calling thread is the whole pool.
pub fn current_num_threads() -> usize {
    1
}

pub mod prelude {
    pub use super::{
        IndexedParallelIterator, IntoParallelIterator, IntoParallelRefIterator,
        IntoParallelRefMutIterator, ParallelIterator, ParallelSlice, ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn adapters_match_sequential_iterators() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = vec![2.0; 4];
        let dot: f64 = a.par_iter().zip(&b).map(|(x, y)| x * y).sum();
        assert_eq!(dot, 20.0);

        let mut out = vec![0usize; 6];
        out.par_chunks_mut(2)
            .enumerate()
            .with_min_len(8)
            .for_each(|(i, c)| c.fill(i));
        assert_eq!(out, [0, 0, 1, 1, 2, 2]);

        let squares: Vec<usize> = (0..4usize).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares, [0, 1, 4, 9]);
    }
}
