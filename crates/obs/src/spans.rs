//! Tracing spans: per-thread fixed-capacity ring buffers with a lock-free hot path.
//!
//! The write path does **no locking and never blocks**: recording a span is one
//! `fetch_add` to claim a sequence number plus a handful of relaxed atomic stores into the
//! claimed slot, sealed by a release store of the sequence (a per-slot seqlock). When the
//! ring wraps, the oldest events are overwritten — drop-oldest, by construction. Readers
//! ([`SpanRing::read_all`], used by the exporters and the `trace` socket op) validate each
//! slot's sequence before and after copying its fields and simply skip slots a writer is
//! mid-flight on, so a live dump never stalls the instrumented thread.
//!
//! Span names are interned `&'static str`s; the [`span!`](crate::span!) macro caches the
//! intern id in a per-call-site `OnceLock`, so the intern table's mutex is taken once per
//! call site for the lifetime of the process, never per span.
//!
//! Every thread lazily creates its own ring on its first recorded span and registers it in
//! a global list, so [`collect_spans`] sees the commit thread, the speculation runner and
//! every pool worker side by side — which is exactly what the Chrome-trace timeline needs
//! to show speculation/commit overlap.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default per-thread ring capacity (events). ~40 bytes per slot.
pub const DEFAULT_RING_CAPACITY: usize = 16 * 1024;

/// One recorded span, resolved for export.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Interned span name.
    pub name: &'static str,
    /// Small dense id of the recording thread (assigned on first span, stable for the
    /// thread's lifetime).
    pub tid: u32,
    /// Start time in nanoseconds since the process's span epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

struct Slot {
    /// 0 = never written or mid-write; otherwise the (nonzero) sequence that wrote it.
    seq: AtomicU64,
    name: AtomicU32,
    tid: AtomicU32,
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
}

impl Slot {
    fn empty() -> Self {
        Self {
            seq: AtomicU64::new(0),
            name: AtomicU32::new(0),
            tid: AtomicU32::new(0),
            start_ns: AtomicU64::new(0),
            dur_ns: AtomicU64::new(0),
        }
    }
}

/// A fixed-capacity, drop-oldest ring of span events. Writers never block (see the module
/// docs); multiple writers are memory-safe (each claims a distinct sequence), though in
/// normal operation each ring has exactly one writing thread.
pub struct SpanRing {
    slots: Box<[Slot]>,
    head: AtomicU64,
    /// Highest sequence already handed out by [`SpanRing::drain`]; events at or below it
    /// are never returned by a later drain.
    drained: AtomicU64,
}

impl SpanRing {
    /// A ring holding the most recent `capacity` events.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            slots: (0..capacity).map(|_| Slot::empty()).collect(),
            head: AtomicU64::new(0),
            drained: AtomicU64::new(0),
        }
    }

    /// Capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (recorded − capacity of them may have been dropped).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Record one event. Lock-free: claim a sequence, invalidate the slot, store the
    /// fields, seal with the sequence.
    #[inline]
    pub fn record(&self, name_id: u32, tid: u32, start_ns: u64, dur_ns: u64) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed) + 1; // nonzero
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        slot.seq.store(0, Ordering::Release);
        slot.name.store(name_id, Ordering::Relaxed);
        slot.tid.store(tid, Ordering::Relaxed);
        slot.start_ns.store(start_ns, Ordering::Relaxed);
        slot.dur_ns.store(dur_ns, Ordering::Relaxed);
        slot.seq.store(seq, Ordering::Release);
    }

    /// Snapshot every stable event in the ring, oldest first. Slots a writer is mid-flight
    /// on (or that were overwritten while being read) are skipped, never waited for.
    pub fn read_all(&self) -> Vec<SpanEvent> {
        self.read_after(0).into_iter().map(|(_, e)| e).collect()
    }

    /// Like [`SpanRing::read_all`], but only events with sequence strictly greater than
    /// `after`; the raw sealed sequences ride along.
    fn read_after(&self, after: u64) -> Vec<(u64, SpanEvent)> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let seq = slot.seq.load(Ordering::Acquire);
            if seq <= after {
                continue; // 0 = empty/mid-write; otherwise already drained
            }
            let name = slot.name.load(Ordering::Relaxed);
            let tid = slot.tid.load(Ordering::Relaxed);
            let start_ns = slot.start_ns.load(Ordering::Relaxed);
            let dur_ns = slot.dur_ns.load(Ordering::Relaxed);
            if slot.seq.load(Ordering::Acquire) != seq {
                continue; // torn: a writer lapped us mid-copy
            }
            out.push((seq, name, tid, start_ns, dur_ns));
        }
        out.sort_unstable_by_key(|&(seq, ..)| seq);
        out.into_iter()
            .map(|(seq, name, tid, start_ns, dur_ns)| {
                (
                    seq,
                    SpanEvent {
                        name: resolve(name),
                        tid,
                        start_ns,
                        dur_ns,
                    },
                )
            })
            .collect()
    }

    /// Consume the events recorded since the previous drain, oldest first. Advances a
    /// per-ring watermark instead of clearing slots, so a drain never races a concurrent
    /// [`SpanRing::read_all`] into losing events, and an event the writer is still
    /// mid-flight on is *not* skipped forever — the watermark only moves past sequences
    /// actually returned, so the in-flight tail lands in the next drain once sealed.
    ///
    /// A caller that drains more often than the ring wraps (every `capacity` events) sees
    /// **every** event of an arbitrarily long run; without draining, drop-oldest caps
    /// retained history at `capacity`. Events that wrapped out between drains are gone
    /// (drop-oldest is the contract). Concurrent drains of the *same* ring may hand the
    /// same event to both callers — drive draining from one collector thread.
    pub fn drain(&self) -> Vec<SpanEvent> {
        let after = self.drained.load(Ordering::Acquire);
        let events = self.read_after(after);
        if let Some(&(max_seq, _)) = events.last() {
            self.drained.fetch_max(max_seq, Ordering::AcqRel);
        }
        events.into_iter().map(|(_, e)| e).collect()
    }

    /// Invalidate every slot (the head keeps counting, so sequences stay unique).
    pub fn clear(&self) {
        for slot in self.slots.iter() {
            slot.seq.store(0, Ordering::Release);
        }
    }
}

// --- name interning -------------------------------------------------------------------

fn intern_table() -> &'static Mutex<Vec<&'static str>> {
    static TABLE: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(Vec::new()))
}

/// Intern a span name, returning its dense id. Meant to be called once per call site (the
/// [`span!`](crate::span!) macro caches the id in a `OnceLock`); the table is tiny and
/// scanned linearly.
pub fn intern(name: &'static str) -> u32 {
    let mut table = intern_table().lock().expect("span intern table poisoned");
    if let Some(i) = table.iter().position(|&n| n == name) {
        return i as u32;
    }
    table.push(name);
    (table.len() - 1) as u32
}

/// Resolve an intern id back to its name (`"?"` for ids from a torn read).
pub fn resolve(id: u32) -> &'static str {
    intern_table()
        .lock()
        .expect("span intern table poisoned")
        .get(id as usize)
        .copied()
        .unwrap_or("?")
}

// --- per-thread rings ------------------------------------------------------------------

/// One registered thread's ring plus its identity for export.
#[derive(Clone)]
pub struct ThreadRing {
    /// Dense thread id (matches [`SpanEvent::tid`]).
    pub tid: u32,
    /// Thread name at registration time (or `thread-<tid>`).
    pub name: String,
    /// The ring itself.
    pub ring: Arc<SpanRing>,
}

fn ring_registry() -> &'static Mutex<Vec<ThreadRing>> {
    static RINGS: OnceLock<Mutex<Vec<ThreadRing>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

static NEXT_TID: AtomicU32 = AtomicU32::new(0);
static RING_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);

/// Set the capacity used for rings of threads that have not recorded a span yet (existing
/// rings keep their size).
pub fn set_ring_capacity(capacity: usize) {
    RING_CAPACITY.store(capacity.max(1), Ordering::Relaxed);
}

thread_local! {
    static THREAD_RING: std::cell::OnceCell<(u32, Arc<SpanRing>)> =
        const { std::cell::OnceCell::new() };
}

#[inline]
fn with_thread_ring<R>(f: impl FnOnce(u32, &SpanRing) -> R) -> R {
    THREAD_RING.with(|cell| {
        let (tid, ring) = cell.get_or_init(|| {
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            let ring = Arc::new(SpanRing::new(RING_CAPACITY.load(Ordering::Relaxed)));
            let name = std::thread::current()
                .name()
                .map(str::to_owned)
                .unwrap_or_else(|| format!("thread-{tid}"));
            ring_registry()
                .lock()
                .expect("span ring registry poisoned")
                .push(ThreadRing {
                    tid,
                    name,
                    ring: Arc::clone(&ring),
                });
            (tid, ring)
        });
        f(*tid, ring)
    })
}

/// Every thread ring registered so far (rings of exited threads are kept — their spans
/// stay visible in the exported timeline).
pub fn thread_rings() -> Vec<ThreadRing> {
    ring_registry()
        .lock()
        .expect("span ring registry poisoned")
        .clone()
}

/// Snapshot every ring's stable events, sorted by start time.
pub fn collect_spans() -> Vec<SpanEvent> {
    let mut events: Vec<SpanEvent> = thread_rings()
        .iter()
        .flat_map(|t| t.ring.read_all())
        .collect();
    events.sort_by_key(|e| (e.start_ns, e.tid));
    events
}

/// Clear every registered ring (for tests and long-lived services resetting a dump).
pub fn clear_spans() {
    for t in thread_rings() {
        t.ring.clear();
    }
}

/// Drain every registered ring's new-since-last-drain events, sorted by start time. A
/// long-lived collector (the ECO soak harness, a periodic trace shipper) calls this more
/// often than any ring wraps and accumulates complete history, instead of calling
/// [`collect_spans`] at the end and keeping only the last 16k events per thread. Call from
/// a single collector thread (see [`SpanRing::drain`]).
pub fn drain_spans() -> Vec<SpanEvent> {
    let mut events: Vec<SpanEvent> = thread_rings().iter().flat_map(|t| t.ring.drain()).collect();
    events.sort_by_key(|e| (e.start_ns, e.tid));
    events
}

// --- clock -----------------------------------------------------------------------------

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process's span epoch (first use of the clock).
#[inline]
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

// --- the guard -------------------------------------------------------------------------

/// RAII span: records `[start, drop)` into the current thread's ring. Construct through
/// the [`span!`](crate::span!) macro (hot paths) or [`span`] (coarse phases); a disarmed
/// guard (instrumentation disabled) does nothing on drop.
#[must_use = "a span guard records its duration when dropped"]
pub struct SpanGuard {
    name_id: u32,
    start_ns: u64,
    armed: bool,
}

impl SpanGuard {
    /// An armed guard starting now. Callers should check [`crate::enabled`] first.
    #[inline]
    pub fn armed(name_id: u32) -> Self {
        Self {
            name_id,
            start_ns: now_ns(),
            armed: true,
        }
    }

    /// A guard that records nothing.
    #[inline]
    pub fn inert() -> Self {
        Self {
            name_id: 0,
            start_ns: 0,
            armed: false,
        }
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.armed {
            let end = now_ns();
            with_thread_ring(|tid, ring| {
                ring.record(
                    self.name_id,
                    tid,
                    self.start_ns,
                    end.saturating_sub(self.start_ns),
                );
            });
        }
    }
}

/// Start a span by name, interning on every call (fine for per-run phases; use the
/// [`span!`](crate::span!) macro on per-target hot paths, which caches the intern).
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if crate::recording() {
        SpanGuard::armed(intern(name))
    } else {
        SpanGuard::inert()
    }
}

/// Record an already-measured complete span (for callers that time manually).
#[inline]
pub fn record_span(name: &'static str, start_ns: u64, dur_ns: u64) {
    if crate::recording() {
        let id = intern(name);
        with_thread_ring(|tid, ring| ring.record(id, tid, start_ns, dur_ns));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_and_keeps_newest() {
        let ring = SpanRing::new(8);
        for i in 0..20u64 {
            ring.record(0, 0, i, 1);
        }
        let events = ring.read_all();
        assert_eq!(events.len(), 8);
        let starts: Vec<u64> = events.iter().map(|e| e.start_ns).collect();
        assert_eq!(starts, (12..20).collect::<Vec<_>>());
        assert_eq!(ring.recorded(), 20);
    }

    #[test]
    fn clear_empties_the_ring() {
        let ring = SpanRing::new(4);
        ring.record(0, 0, 1, 1);
        ring.clear();
        assert!(ring.read_all().is_empty());
        ring.record(0, 0, 2, 1);
        assert_eq!(ring.read_all().len(), 1);
    }

    #[test]
    fn drain_returns_each_event_exactly_once() {
        let ring = SpanRing::new(8);
        for i in 0..5u64 {
            ring.record(0, 0, i, 1);
        }
        let first: Vec<u64> = ring.drain().iter().map(|e| e.start_ns).collect();
        assert_eq!(first, (0..5).collect::<Vec<_>>());
        assert!(
            ring.drain().is_empty(),
            "second drain must return nothing new"
        );
        for i in 5..9u64 {
            ring.record(0, 0, i, 1);
        }
        let second: Vec<u64> = ring.drain().iter().map(|e| e.start_ns).collect();
        assert_eq!(second, (5..9).collect::<Vec<_>>());
        // read_all still sees the full retained window: draining moves a watermark, it
        // does not clear slots out from under a snapshot reader
        assert_eq!(ring.read_all().len(), 8);
    }

    #[test]
    fn frequent_drains_see_past_the_ring_capacity() {
        let ring = SpanRing::new(4);
        let mut seen = Vec::new();
        for i in 0..40u64 {
            ring.record(0, 0, i, 1);
            if i % 3 == 0 {
                seen.extend(ring.drain().iter().map(|e| e.start_ns));
            }
        }
        seen.extend(ring.drain().iter().map(|e| e.start_ns));
        // draining every 3 events on a capacity-4 ring loses nothing across 10× capacity
        assert_eq!(seen, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn intern_is_stable_and_resolvable() {
        let a = intern("obs-test-span-a");
        let b = intern("obs-test-span-b");
        assert_ne!(a, b);
        assert_eq!(intern("obs-test-span-a"), a);
        assert_eq!(resolve(a), "obs-test-span-a");
        assert_eq!(resolve(u32::MAX), "?");
    }
}
