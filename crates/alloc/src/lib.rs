//! Counting global allocator with thread-tagged meters.
//!
//! The sweep engine (`dtexl::sweep`) records every job's allocator
//! peak and enforces per-job *memory budgets* the same way it enforces
//! wall-clock timeouts: a job under a watchdog runs on a disposable
//! thread, and the dispatching worker observes it from outside. An
//! unwatched job runs on the worker itself, tagged for the attempt's
//! duration only. This crate supplies the observation channel — a
//! [`#[global_allocator]`](std::alloc::GlobalAlloc) wrapper around
//! [`System`] that, when a thread is *tagged* with an [`AllocMeter`],
//! charges that thread's allocations and frees to the meter.
//!
//! Design constraints (all load-bearing):
//!
//! * **Zero dependencies, no allocation on the hot path.** The
//!   allocator consults one `const`-initialized thread-local `Cell`
//!   (native TLS, no lazy allocation) and touches only atomics; an
//!   untagged thread pays a single pointer read + null check per
//!   allocator call.
//! * **Never panics, never unwinds.** Unwinding out of a global
//!   allocator is undefined behavior, so the hook uses
//!   [`LocalKey::try_with`](std::thread::LocalKey::try_with) and
//!   shrugs off TLS-destruction edge cases instead of asserting.
//! * **Enforcement lives outside the allocator.** Exceeding a budget
//!   must not abort the process (the default `handle_alloc_error`
//!   would), so the allocator only *counts*; the sweep watchdog polls
//!   [`AllocMeter::peak_bytes`] from the worker thread and abandons
//!   the job exactly like a wall-clock timeout.
//!
//! Cross-thread flows are attributed conservatively: memory allocated
//! on a tagged thread but freed elsewhere stays charged (the peak —
//! the budget signal — is monotone anyway), and frees of memory that
//! predates the tag clamp at zero instead of underflowing. Several
//! threads tagged with one meter share a single `current` counter; the
//! peak is therefore the meter's high-water mark across all of them,
//! not a per-thread one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Allocation counters for one tagged thread (shared with its
/// watchdog via `Arc`). All counters are monotone except `current`,
/// which tracks live bytes and may dip below zero transiently when a
/// thread frees memory allocated before it was tagged.
#[derive(Debug, Default)]
pub struct AllocMeter {
    /// Live bytes: allocations minus frees observed since tagging.
    current: AtomicI64,
    /// High-water mark of `current` (the budget signal).
    peak: AtomicU64,
    /// Cumulative bytes allocated (throughput diagnostic).
    total: AtomicU64,
}

impl AllocMeter {
    /// A fresh meter with all counters at zero.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Live bytes currently attributed to the tagged thread
    /// (clamped at zero).
    #[must_use]
    pub fn current_bytes(&self) -> u64 {
        self.current.load(Ordering::Relaxed).max(0) as u64
    }

    /// High-water mark of live bytes — the "peak RSS"-style figure
    /// budgets are enforced against and journals record.
    #[must_use]
    pub fn peak_bytes(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Cumulative bytes allocated since tagging (ignores frees).
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    #[inline]
    fn on_alloc(&self, bytes: usize) {
        let bytes_i = i64::try_from(bytes).unwrap_or(i64::MAX);
        let now = self.current.fetch_add(bytes_i, Ordering::Relaxed) + bytes_i;
        self.total.fetch_add(bytes as u64, Ordering::Relaxed);
        if now > 0 {
            self.peak.fetch_max(now as u64, Ordering::Relaxed);
        }
    }

    #[inline]
    fn on_dealloc(&self, bytes: usize) {
        let bytes_i = i64::try_from(bytes).unwrap_or(i64::MAX);
        self.current.fetch_sub(bytes_i, Ordering::Relaxed);
    }
}

thread_local! {
    /// The meter charged for this thread's allocations (null = untagged).
    /// `const`-initialized so first access never allocates — a lazily
    /// initialized TLS slot would recurse into the allocator.
    static METER: Cell<*const AllocMeter> = const { Cell::new(ptr::null()) };
}

/// Tags the current thread until dropped; created by
/// [`meter_current_thread`].
///
/// Ownership model: the guard owns the strong reference keeping its
/// meter alive; the TLS slot only *borrows* the pointer. The slot
/// therefore always points at the meter of a still-live guard (or is
/// null), and dropping any combination of guards in any order can
/// never over-release a refcount.
#[derive(Debug)]
pub struct MeterGuard {
    /// The strong reference backing the pointer in the TLS slot.
    meter: Arc<AllocMeter>,
    /// Pins the guard to the tagging thread (`!Send`): the slot it
    /// must clear lives in that thread's TLS.
    _not_send: PhantomData<*const AllocMeter>,
}

impl Drop for MeterGuard {
    fn drop(&mut self) {
        // Untag only while this guard still owns the slot; if a later
        // `meter_current_thread` call displaced it, the slot belongs
        // to the newer guard and must be left alone.
        // lint: taint-barrier(pointer compared for slot-ownership identity only; the address never reaches a metric)
        let raw = Arc::as_ptr(&self.meter);
        let _ = METER.try_with(|slot| {
            if slot.get() == raw {
                slot.set(ptr::null());
            }
        });
        // `self.meter` drops after this body — strictly after the slot
        // stopped referencing it, so no allocator call can observe a
        // dangling pointer.
    }
}

/// Tag the current thread: until the returned guard drops, every
/// allocation and free this thread performs is charged to `meter`.
///
/// Tags do not nest — tagging an already-tagged thread replaces the
/// previous meter, whose guard becomes inert: it stops charging
/// immediately and does not resume when the replacing guard drops
/// (the thread simply becomes untagged once the guard owning the slot
/// drops). The sweep engine tags the thread that runs an attempt (the
/// worker itself, or a disposable job thread when a watchdog is set)
/// for that attempt only, so a thread that calls `run_sweep` must not
/// be tagged itself: its first inline attempt would end its tag.
#[must_use]
pub fn meter_current_thread(meter: &Arc<AllocMeter>) -> MeterGuard {
    let owned = Arc::clone(meter);
    // lint: taint-barrier(the address is an opaque TLS tag read back only via pointer identity, never as a value)
    METER.with(|slot| slot.set(Arc::as_ptr(&owned)));
    MeterGuard {
        meter: owned,
        _not_send: PhantomData,
    }
}

#[inline]
fn record_alloc(bytes: usize) {
    let _ = METER.try_with(|slot| {
        let meter = slot.get();
        if !meter.is_null() {
            // SAFETY: a non-null slot means the `MeterGuard` that set
            // it is still alive on this thread and holds a strong
            // reference, so the meter behind the pointer is live; the
            // shared borrow lasts only for this atomic bump.
            unsafe { &*meter }.on_alloc(bytes);
        }
    });
}

#[inline]
fn record_dealloc(bytes: usize) {
    let _ = METER.try_with(|slot| {
        let meter = slot.get();
        if !meter.is_null() {
            // SAFETY: same invariant as `record_alloc` — the guard
            // that set the slot outlives every read, nulling it before
            // its strong reference drops.
            unsafe { &*meter }.on_dealloc(bytes);
        }
    });
}

/// The counting allocator: [`System`] plus per-thread attribution.
#[derive(Debug)]
pub struct CountingAlloc;

// Installed here, in a leaf crate, so every workspace binary that
// links the simulator gets metering without declaring anything.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the
// bookkeeping around each call touches only atomics via a
// const-initialized TLS slot and can neither allocate nor unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards the caller's layout to `System` untouched, so
    // the returned block satisfies exactly the contract `System`
    // guarantees; metering happens after the fact and cannot fail.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            record_alloc(layout.size());
        }
        p
    }

    // SAFETY: as `alloc` — `System.alloc_zeroed` receives the layout
    // verbatim and its zeroed-block contract passes through unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            record_alloc(layout.size());
        }
        p
    }

    // SAFETY: the caller promises `ptr`/`layout` came from this
    // allocator, which is `System` underneath — the free is forwarded
    // with both unmodified.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        record_dealloc(layout.size());
    }

    // SAFETY: caller-provided `ptr`/`layout`/`new_size` go straight
    // through to `System.realloc`; metering only runs on success, with
    // the sizes the caller already vouched for.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            record_dealloc(layout.size());
            record_alloc(new_size);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untagged_threads_charge_nothing() {
        let meter = AllocMeter::new();
        let probe = vec![0u8; 64 * 1024];
        std::hint::black_box(&probe);
        assert_eq!(meter.peak_bytes(), 0);
        assert_eq!(meter.total_bytes(), 0);
    }

    #[test]
    fn tagged_allocations_raise_peak_and_total() {
        let meter = AllocMeter::new();
        {
            let _guard = meter_current_thread(&meter);
            let big = vec![7u8; 1 << 20];
            std::hint::black_box(&big);
            drop(big);
            let small = vec![7u8; 1 << 10];
            std::hint::black_box(&small);
        }
        assert!(
            meter.peak_bytes() >= 1 << 20,
            "peak {} must cover the 1 MiB spike",
            meter.peak_bytes()
        );
        assert!(meter.total_bytes() >= (1 << 20) + (1 << 10));
        // After the guard drops, this thread stops charging the meter.
        let total = meter.total_bytes();
        let after = vec![1u8; 1 << 16];
        std::hint::black_box(&after);
        assert_eq!(meter.total_bytes(), total);
    }

    #[test]
    fn peak_is_highwater_not_live() {
        let meter = AllocMeter::new();
        let _guard = meter_current_thread(&meter);
        let a = vec![1u8; 512 * 1024];
        std::hint::black_box(&a);
        drop(a);
        assert!(meter.peak_bytes() >= 512 * 1024);
        assert!(
            meter.current_bytes() < meter.peak_bytes(),
            "freeing must lower live bytes below the high-water mark"
        );
    }

    #[test]
    fn frees_of_pre_tag_memory_clamp_at_zero() {
        let pre = vec![9u8; 256 * 1024];
        let meter = AllocMeter::new();
        let _guard = meter_current_thread(&meter);
        drop(pre);
        assert_eq!(meter.current_bytes(), 0, "clamped, not underflowed");
        assert_eq!(meter.peak_bytes(), 0);
    }

    #[test]
    fn retagging_replaces_the_meter_without_double_release() {
        // Regression test: the displaced guard's Drop must not release
        // a refcount it no longer owns (previously a double
        // `Arc::from_raw` → use-after-free).
        let first = AllocMeter::new();
        let second = AllocMeter::new();
        let outer = meter_current_thread(&first);
        let inner = meter_current_thread(&second); // displaces `first`
        let probe = vec![5u8; 1 << 20];
        std::hint::black_box(&probe);
        drop(probe);
        assert_eq!(first.total_bytes(), 0, "displaced meter stops charging");
        assert!(second.total_bytes() >= 1 << 20, "replacement meter charges");
        drop(inner);
        drop(outer);
        // Both meters are still safely usable: the guards only ever
        // released the references they owned.
        assert_eq!(Arc::strong_count(&first), 1);
        assert_eq!(Arc::strong_count(&second), 1);
        let untagged = vec![4u8; 1 << 18];
        std::hint::black_box(&untagged);
        assert!(second.total_bytes() < (1 << 20) + (1 << 18));
    }

    #[test]
    fn retagged_guards_tolerate_out_of_order_drops() {
        let first = AllocMeter::new();
        let second = AllocMeter::new();
        let outer = meter_current_thread(&first);
        let inner = meter_current_thread(&second);
        // Drop the *displaced* guard first: it must leave the newer
        // guard's tag in place.
        drop(outer);
        let probe = vec![6u8; 1 << 20];
        std::hint::black_box(&probe);
        assert!(second.total_bytes() >= 1 << 20, "newer tag still active");
        drop(inner);
        assert_eq!(Arc::strong_count(&first), 1);
        assert_eq!(Arc::strong_count(&second), 1);
    }

    #[test]
    fn meters_are_per_thread() {
        let meter = AllocMeter::new();
        let worker = meter.clone();
        std::thread::spawn(move || {
            let _guard = meter_current_thread(&worker);
            let buf = vec![3u8; 2 << 20];
            std::hint::black_box(&buf);
            worker.peak_bytes()
        })
        .join()
        .map(|peak| assert!(peak >= 2 << 20, "job thread metered: {peak}"))
        .unwrap();
        // This (untagged) thread contributed nothing since the join.
        let total = meter.total_bytes();
        let here = vec![0u8; 1 << 18];
        std::hint::black_box(&here);
        assert_eq!(meter.total_bytes(), total);
    }
}
