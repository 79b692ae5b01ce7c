//! Offline stand-in for the `rayon` crate.
//!
//! Implements the slice-parallelism subset this workspace uses — `par_iter`,
//! `par_iter_mut`, `par_chunks`, `par_chunks_mut`, with `map`, `enumerate`,
//! `for_each` and `collect` — on top of `std::thread::scope`. Work is split
//! into one contiguous block per available core; results are concatenated in
//! source order, so `collect` observes exactly the sequential ordering. Small
//! inputs (fewer items than `MIN_ITEMS_PER_THREAD`) run sequentially to
//! avoid spawn overhead.
//!
//! Like real rayon, work executes on a **persistent global worker pool**
//! ([`pool::global_pool`]: one worker per available core, started on first
//! use) — a parallel call costs a queue push and a pool wakeup, not thread
//! creation × core count. The pool type itself ([`pool::WorkerPool`]) is
//! public because the `mc-serve` serving subsystem reuses it for connection
//! handling; see [`pool`] for the claim-based scoped-execution protocol that
//! keeps nested parallel calls deadlock-free on a fixed pool.

use std::sync::Mutex;

pub mod pool;

pub use pool::{global_pool, WorkerPool};

/// Below this many items per would-be thread the shim runs sequentially.
const MIN_ITEMS_PER_THREAD: usize = 2;

fn num_threads() -> usize {
    pool::global_pool().threads()
}

/// A pre-split mutable block waiting to be claimed by one scope worker,
/// stored next to the results it produces (see [`MapIterMut::collect`]).
type MutBlockSlot<'a, T, R> = Mutex<(Option<&'a mut [T]>, Vec<R>)>;

/// A pre-split mutable run of chunks (tagged with its first chunk index)
/// waiting to be claimed by one scope worker (see
/// [`EnumerateChunksMut::for_each`]).
type ChunkBlockSlot<'a, T> = Mutex<Option<(usize, &'a mut [T])>>;

/// How many worker blocks to use for `len` items.
fn blocks_for(len: usize) -> usize {
    if len < 2 * MIN_ITEMS_PER_THREAD {
        return 1;
    }
    num_threads().min(len / MIN_ITEMS_PER_THREAD).max(1)
}

pub mod prelude {
    pub use crate::{
        IntoParallelRefIterator, IntoParallelRefMutIterator, ParallelSlice, ParallelSliceMut,
    };
}

/// `slice.par_chunks(n)` — parallel iterator over contiguous chunks.
pub trait ParallelSlice<T: Sync> {
    fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T> {
        assert!(chunk_size > 0, "par_chunks: chunk size must be non-zero");
        ParChunks {
            slice: self,
            chunk_size,
        }
    }
}

/// `slice.par_chunks_mut(n)` — parallel iterator over mutable chunks.
pub trait ParallelSliceMut<T: Send> {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(
            chunk_size > 0,
            "par_chunks_mut: chunk size must be non-zero"
        );
        ParChunksMut {
            slice: self,
            chunk_size,
        }
    }
}

/// `collection.par_iter()` — parallel iterator over `&T`.
pub trait IntoParallelRefIterator<'a> {
    type Item: Sync + 'a;
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { slice: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { slice: self }
    }
}

/// `collection.par_iter_mut()` — parallel iterator over `&mut T`.
pub trait IntoParallelRefMutIterator<'a> {
    type Item: Send + 'a;
    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, Self::Item>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
        ParIterMut { slice: self }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = T;
    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
        ParIterMut { slice: self }
    }
}

pub struct ParIter<'a, T> {
    slice: &'a [T],
}

pub struct ParIterMut<'a, T> {
    slice: &'a mut [T],
}

pub struct ParChunks<'a, T> {
    slice: &'a [T],
    chunk_size: usize,
}

pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk_size: usize,
}

impl<'a, T: Sync> ParIter<'a, T> {
    pub fn map<R, F>(self, f: F) -> MapIter<'a, T, F>
    where
        F: Fn(&'a T) -> R + Sync,
        R: Send,
    {
        MapIter {
            slice: self.slice,
            f,
        }
    }
}

impl<'a, T: Send> ParIterMut<'a, T> {
    pub fn map<R, F>(self, f: F) -> MapIterMut<'a, T, F>
    where
        F: Fn(&mut T) -> R + Sync,
        R: Send,
    {
        MapIterMut {
            slice: self.slice,
            f,
        }
    }
}

impl<'a, T: Sync> ParChunks<'a, T> {
    pub fn map<R, F>(self, f: F) -> MapChunks<'a, T, F>
    where
        F: Fn(&'a [T]) -> R + Sync,
        R: Send,
    {
        MapChunks {
            slice: self.slice,
            chunk_size: self.chunk_size,
            f,
        }
    }

    pub fn enumerate(self) -> EnumerateChunks<'a, T> {
        EnumerateChunks {
            slice: self.slice,
            chunk_size: self.chunk_size,
        }
    }
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    pub fn enumerate(self) -> EnumerateChunksMut<'a, T> {
        EnumerateChunksMut {
            slice: self.slice,
            chunk_size: self.chunk_size,
        }
    }

    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut [T]) + Sync,
    {
        self.enumerate().for_each(move |(_, chunk)| f(chunk));
    }
}

pub struct MapIter<'a, T, F> {
    slice: &'a [T],
    f: F,
}

pub struct MapIterMut<'a, T, F> {
    slice: &'a mut [T],
    f: F,
}

pub struct MapChunks<'a, T, F> {
    slice: &'a [T],
    chunk_size: usize,
    f: F,
}

pub struct EnumerateChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk_size: usize,
}

pub struct EnumerateChunks<'a, T> {
    slice: &'a [T],
    chunk_size: usize,
}

pub struct MapEnumerateChunks<'a, T, F> {
    slice: &'a [T],
    chunk_size: usize,
    f: F,
}

impl<'a, T: Sync> EnumerateChunks<'a, T> {
    pub fn map<R, F>(self, f: F) -> MapEnumerateChunks<'a, T, F>
    where
        F: Fn((usize, &'a [T])) -> R + Sync,
        R: Send,
    {
        MapEnumerateChunks {
            slice: self.slice,
            chunk_size: self.chunk_size,
            f,
        }
    }
}

impl<'a, T, R, F> MapEnumerateChunks<'a, T, F>
where
    T: Sync,
    R: Send,
    F: Fn((usize, &'a [T])) -> R + Sync,
{
    pub fn collect<C: FromIterator<R>>(self) -> C {
        let n_chunks = self.slice.len().div_ceil(self.chunk_size.max(1));
        let produced = join_blocks(n_chunks, blocks_for(n_chunks), |start, end| {
            (start..end)
                .map(|c| {
                    let lo = c * self.chunk_size;
                    let hi = (lo + self.chunk_size).min(self.slice.len());
                    (self.f)((c, &self.slice[lo..hi]))
                })
                .collect()
        });
        produced.into_iter().collect()
    }
}

/// Runs `produce(start, end)` for each of `blocks` contiguous sub-ranges of
/// `0..len` on the global worker pool and concatenates the results in range
/// order. Each block writes into its own pre-allocated slot (the per-slot
/// mutexes are uncontended — exactly one claimant ever touches a slot), so
/// source ordering survives however the pool schedules the blocks.
fn join_blocks<R, F>(len: usize, blocks: usize, produce: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, usize) -> Vec<R> + Sync,
{
    if blocks <= 1 || len == 0 {
        return produce(0, len);
    }
    let per_block = len.div_ceil(blocks);
    let n_blocks = len.div_ceil(per_block);
    let slots: Vec<Mutex<Vec<R>>> = (0..n_blocks).map(|_| Mutex::new(Vec::new())).collect();
    pool::global_pool().scope_run(n_blocks, &|b| {
        let start = b * per_block;
        let end = ((b + 1) * per_block).min(len);
        *slots[b].lock().expect("join block slot poisoned") = produce(start, end);
    });
    slots
        .into_iter()
        .flat_map(|slot| slot.into_inner().expect("join block slot poisoned"))
        .collect()
}

impl<'a, T, R, F> MapIter<'a, T, F>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    pub fn collect<C: FromIterator<R>>(self) -> C {
        let len = self.slice.len();
        let produced = join_blocks(len, blocks_for(len), |start, end| {
            self.slice[start..end].iter().map(&self.f).collect()
        });
        produced.into_iter().collect()
    }
}

impl<'a, T, R, F> MapIterMut<'a, T, F>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    pub fn collect<C: FromIterator<R>>(self) -> C {
        let len = self.slice.len();
        let blocks = blocks_for(len);
        if blocks <= 1 {
            let f = &self.f;
            return self.slice.iter_mut().map(f).collect();
        }
        // Pre-split into disjoint mutable blocks, each parked in its own
        // slot next to space for its results. Every slot is claimed by
        // exactly one scope block (`take()` moves the `&mut` chunk out), so
        // the mutexes are uncontended and ordering is positional.
        let per_block = len.div_ceil(blocks);
        let f = &self.f;
        let slots: Vec<MutBlockSlot<'_, T, R>> = self
            .slice
            .chunks_mut(per_block)
            .map(|chunk| Mutex::new((Some(chunk), Vec::new())))
            .collect();
        pool::global_pool().scope_run(slots.len(), &|b| {
            let mut slot = slots[b].lock().expect("mut block slot poisoned");
            let chunk = slot.0.take().expect("each block is claimed once");
            slot.1 = chunk.iter_mut().map(f).collect();
        });
        slots
            .into_iter()
            .flat_map(|slot| slot.into_inner().expect("mut block slot poisoned").1)
            .collect()
    }
}

impl<'a, T, R, F> MapChunks<'a, T, F>
where
    T: Sync,
    R: Send,
    F: Fn(&'a [T]) -> R + Sync,
{
    pub fn collect<C: FromIterator<R>>(self) -> C {
        let n_chunks = self.slice.len().div_ceil(self.chunk_size.max(1));
        let produced = join_blocks(n_chunks, blocks_for(n_chunks), |start, end| {
            (start..end)
                .map(|c| {
                    let lo = c * self.chunk_size;
                    let hi = (lo + self.chunk_size).min(self.slice.len());
                    (self.f)(&self.slice[lo..hi])
                })
                .collect()
        });
        produced.into_iter().collect()
    }
}

impl<'a, T: Send> EnumerateChunksMut<'a, T> {
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        let chunk_size = self.chunk_size;
        let n_chunks = self.slice.len().div_ceil(chunk_size.max(1));
        let blocks = blocks_for(n_chunks);
        if blocks <= 1 {
            for (i, chunk) in self.slice.chunks_mut(chunk_size).enumerate() {
                f((i, chunk));
            }
            return;
        }
        let chunks_per_block = n_chunks.div_ceil(blocks);
        // Pre-split into per-block slices (whole multiples of `chunk_size`
        // items, so chunk boundaries stay aligned with the sequential
        // layout) and fan them out on the global pool.
        let slots: Vec<ChunkBlockSlot<'_, T>> = self
            .slice
            .chunks_mut(chunks_per_block * chunk_size)
            .enumerate()
            .map(|(b, part)| Mutex::new(Some((b * chunks_per_block, part))))
            .collect();
        pool::global_pool().scope_run(slots.len(), &|b| {
            let (base, part) = slots[b]
                .lock()
                .expect("chunk block slot poisoned")
                .take()
                .expect("each block is claimed once");
            for (i, chunk) in part.chunks_mut(chunk_size).enumerate() {
                f((base + i, chunk));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_chunks_map_collect_preserves_order() {
        let data: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        let sums: Vec<f32> = data.par_chunks(10).map(|c| c.iter().sum::<f32>()).collect();
        let expect: Vec<f32> = data.chunks(10).map(|c| c.iter().sum::<f32>()).collect();
        assert_eq!(sums, expect);
    }

    #[test]
    fn par_iter_map_collect_matches_sequential() {
        let data: Vec<u64> = (0..5000).collect();
        let out: Vec<u64> = data.par_iter().map(|x| x * 3 + 1).collect();
        let expect: Vec<u64> = data.iter().map(|x| x * 3 + 1).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn par_iter_mut_map_collect_mutates_and_orders() {
        let mut data: Vec<u64> = (0..999).collect();
        let out: Vec<u64> = data
            .par_iter_mut()
            .map(|x| {
                *x += 1;
                *x
            })
            .collect();
        assert_eq!(out, (1..1000).collect::<Vec<u64>>());
        assert_eq!(data, (1..1000).collect::<Vec<u64>>());
    }

    #[test]
    fn par_chunks_enumerate_map_collect_preserves_indices() {
        let data: Vec<f32> = (0..501).map(|i| i as f32).collect();
        let out: Vec<(usize, f32)> = data
            .par_chunks(7)
            .enumerate()
            .map(|(i, c)| (i, c.iter().sum::<f32>()))
            .collect();
        let expect: Vec<(usize, f32)> = data
            .chunks(7)
            .enumerate()
            .map(|(i, c)| (i, c.iter().sum::<f32>()))
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn par_chunks_mut_enumerate_for_each_writes_disjoint_chunks() {
        let mut data = vec![0usize; 103];
        data.par_chunks_mut(10)
            .enumerate()
            .for_each(|(i, chunk)| chunk.iter_mut().for_each(|x| *x = i));
        for (i, chunk) in data.chunks(10).enumerate() {
            assert!(chunk.iter().all(|&x| x == i));
        }
    }

    #[test]
    fn tiny_inputs_run_sequentially() {
        let data = [1.0f32];
        let out: Vec<f32> = data.par_chunks(1).map(|c| c[0] * 2.0).collect();
        assert_eq!(out, vec![2.0]);
        let empty: Vec<f32> = Vec::new();
        let out: Vec<f32> = empty.par_iter().map(|x| *x).collect();
        assert!(out.is_empty());
    }
}
