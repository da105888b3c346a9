//! Hostile-bytes kit shared by `wire_golden.rs` and
//! `persist_recovery.rs`: the mutations a decoder is swept over, and an
//! allocator that adds up what one thread requests, so a sweep can
//! assert that no length prefix was believed before it was checked (and
//! a journal test that an append copies nothing).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, summing the bytes each thread asks for.
struct CountingAllocator;

// SAFETY: every operation is `System`'s, unchanged. The counter is a
// const-initialised `Cell<usize>` with no destructor: touching it
// neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.with(|r| r.set(r.get().saturating_add(layout.size())));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.with(|r| r.set(r.get().saturating_add(new_size)));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f`, returning what it returned and the bytes this thread
/// requested from the allocator meanwhile.
pub fn requested_by<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = REQUESTED.with(Cell::get);
    let out = f();
    (out, REQUESTED.with(Cell::get) - before)
}

/// Bytes a decoder may request per input byte, all allocations of one
/// call added up. A sequence reserves at most one element per remaining
/// input byte (`Vec::decode`'s guard), the widest element — a
/// `GrowthRecord` — is under 200 bytes, and records nest five deep; the
/// worst the sweeps measure is 115 (a snapshot whose growth-log length
/// was raised to just under the guard). A believed `u32::MAX` prefix
/// would ask for gigabytes.
const BYTES_PER_INPUT_BYTE: usize = 1024;

/// One corruption of a valid encoding.
#[derive(Debug, Clone, Copy)]
pub enum Mutation {
    /// Bit `n` (of the whole buffer) inverted.
    FlipBit(usize),
    /// Everything from this offset on dropped.
    TruncateAt(usize),
    /// The little-endian `u32` at this 4-aligned offset replaced —
    /// what a corrupted length prefix looks like.
    OverwriteU32 { at: usize, value: u32 },
}

impl Mutation {
    /// Every bit flip, every strict truncation, and every aligned
    /// `u32` inflated to `u32::MAX` and to `len + 1`.
    pub fn all(len: usize) -> impl Iterator<Item = Mutation> {
        let inflated = [u32::MAX, len as u32 + 1];
        let flips = (0..len * 8).map(Mutation::FlipBit);
        let cuts = (0..len).map(Mutation::TruncateAt);
        let overwrites = (0..len.saturating_sub(3))
            .step_by(4)
            .flat_map(move |at| inflated.map(|value| Mutation::OverwriteU32 { at, value }));
        flips.chain(cuts).chain(overwrites)
    }

    pub fn apply(self, bytes: &[u8]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        match self {
            Self::FlipBit(n) => out[n / 8] ^= 1 << (n % 8),
            Self::TruncateAt(at) => out.truncate(at),
            Self::OverwriteU32 { at, value } => {
                out[at..at + 4].copy_from_slice(&value.to_le_bytes())
            }
        }
        out
    }
}

/// What a sweep saw: how many mutants still decoded, how many were
/// refused with a typed error, and how many of those refusals were a
/// length prefix caught by the codec's `Oversize` guard.
#[derive(Debug, Default)]
pub struct Swept {
    pub decoded: usize,
    pub refused: usize,
    pub oversize: usize,
}

/// Hands `decode` every [`Mutation`] of `bytes`. Each call must
/// *return* — `Ok` or a typed error — having requested no more than
/// `BYTES_PER_INPUT_BYTE` per byte of `bytes`; every unwind and every
/// over-allocation is collected and reported together.
pub fn sweep<E: Debug>(what: &str, bytes: &[u8], decode: impl Fn(&[u8]) -> Result<(), E>) -> Swept {
    let budget = BYTES_PER_INPUT_BYTE * bytes.len().max(64);
    let mut swept = Swept::default();
    let mut failures = Vec::new();
    for mutation in Mutation::all(bytes.len()) {
        let mutant = mutation.apply(bytes);
        let (outcome, requested) =
            requested_by(|| catch_unwind(AssertUnwindSafe(|| decode(&mutant))));
        match outcome {
            Ok(Ok(())) => swept.decoded += 1,
            Ok(Err(e)) => {
                swept.refused += 1;
                swept.oversize += usize::from(format!("{e:?}").contains("Oversize"));
            }
            Err(_) => failures.push(format!("{what}: {mutation:?} unwound")),
        }
        if requested > budget {
            failures.push(format!(
                "{what}: {mutation:?} requested {requested} bytes for a {}-byte input",
                bytes.len()
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
    swept
}
