//! The flight recorder: a lock-free, overwrite-on-wrap ring buffer of
//! fixed-size trace records.
//!
//! Writers claim a slot with one `fetch_add` and publish through a
//! per-slot sequence word (seqlock discipline, built entirely from safe
//! atomics): the sequence is odd while a write is in flight and even once
//! the record is complete, with the generation number encoded so a reader
//! can tell a fresh record from a stale one after wrap-around. Readers
//! (JSON dump, panic hook) re-check the sequence after reading the
//! payload and simply skip torn slots — the recorder never blocks a
//! writer and a dump is always a consistent set of whole records.
//!
//! The ring is sized at construction (the global registry's holds
//! [`DEFAULT_RING_CAPACITY`] records) and is the only allocation the
//! enabled observability plane performs after startup — recording
//! itself is five relaxed stores plus two release stores.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// What a trace record describes. Discriminants are stable and appear in
/// dumps, so renumbering is a breaking change for dump consumers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceKind {
    /// Ingest tick began. `a` = tick horizon (`until`).
    TickStart = 1,
    /// Ingest tick ended. `a` = horizon, `b` = admitted, `c` = shed,
    /// `d` = end-of-tick backlog.
    TickEnd = 2,
    /// Planner handled a request. `a` = request id, `b` = shortlist
    /// candidates, `c` = cumulative DP probe counter at record time,
    /// `d` = accepted Δ unified cost (`u64::MAX` = rejected).
    PlanRequest = 3,
    /// WAL record appended. `a` = payload length in bytes.
    WalAppend = 4,
    /// WAL flushed to the OS. `a` = flush latency (ns), `b` = total WAL
    /// bytes so far.
    WalFsync = 5,
    /// Admission verdict. `a` = shard (`u64::MAX` = unsharded),
    /// `b` = verdict (0 admit / 1 defer / 2 shed), `c` = shard backlog.
    Admission = 6,
    /// Cross-shard worker handoff. `a` = worker, `b` = source shard,
    /// `c` = destination shard.
    ShardHandoff = 7,
    /// TD distance-cache lookup. `a` = 1 hit / 0 miss, `b` = from vertex,
    /// `c` = to vertex, `d` = departure bucket.
    TdCache = 8,
    /// WAL recovery replay finished. `a` = events replayed, `b` = WAL
    /// bytes scanned, `c` = 1 if a torn tail was truncated.
    Recovery = 9,
}

impl TraceKind {
    fn from_u8(v: u8) -> Option<TraceKind> {
        Some(match v {
            1 => TraceKind::TickStart,
            2 => TraceKind::TickEnd,
            3 => TraceKind::PlanRequest,
            4 => TraceKind::WalAppend,
            5 => TraceKind::WalFsync,
            6 => TraceKind::Admission,
            7 => TraceKind::ShardHandoff,
            8 => TraceKind::TdCache,
            9 => TraceKind::Recovery,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            TraceKind::TickStart => "tick_start",
            TraceKind::TickEnd => "tick_end",
            TraceKind::PlanRequest => "plan_request",
            TraceKind::WalAppend => "wal_append",
            TraceKind::WalFsync => "wal_fsync",
            TraceKind::Admission => "admission",
            TraceKind::ShardHandoff => "shard_handoff",
            TraceKind::TdCache => "td_cache",
            TraceKind::Recovery => "recovery",
        }
    }
}

/// A decoded trace record, as produced by [`FlightRecorder::events`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global record index (monotone across the whole run).
    pub index: u64,
    /// Nanoseconds since recorder construction.
    pub ts_ns: u64,
    /// Record kind.
    pub kind: TraceKind,
    /// First payload word (meaning per [`TraceKind`]).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
    /// Third payload word.
    pub c: u64,
    /// Fourth payload word.
    pub d: u64,
}

/// One ring slot: a sequence word plus five payload words
/// (kind+timestamp packed, then a..d).
#[derive(Debug)]
struct Slot {
    /// 0 = never written; odd = write in flight; `2 * generation + 2` =
    /// complete record written in `generation` (generation = index / cap).
    seq: AtomicU64,
    words: [AtomicU64; 5],
}

impl Slot {
    fn new() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Capacity (records) of the global registry's ring.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// The lock-free trace ring. See module docs for the protocol.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    head: AtomicU64,
    epoch: Instant,
}

impl FlightRecorder {
    /// Build a ring with `capacity` slots (rounded up to at least 8).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(8);
        FlightRecorder {
            slots: (0..cap).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Ring capacity in records.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever written (dump retains the last `capacity()`).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Append one record. Never blocks; overwrites the oldest record once
    /// the ring is full.
    #[inline]
    pub fn record(&self, kind: TraceKind, a: u64, b: u64, c: u64, d: u64) {
        let i = self.head.fetch_add(1, Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        let slot = &self.slots[(i % cap) as usize];
        let generation = i / cap;
        // Mark the slot torn while we write, then publish with the new
        // generation. A concurrent writer that laps us will simply win
        // the final store; readers discard the slot either way.
        slot.seq.store(2 * generation + 1, Ordering::Release);
        let ts = self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        slot.words[0].store((kind as u64) | (ts << 8), Ordering::Relaxed);
        slot.words[1].store(a, Ordering::Relaxed);
        slot.words[2].store(b, Ordering::Relaxed);
        slot.words[3].store(c, Ordering::Relaxed);
        slot.words[4].store(d, Ordering::Relaxed);
        slot.seq.store(2 * generation + 2, Ordering::Release);
    }

    /// Snapshot the ring: the retained records in oldest-to-newest order.
    /// Slots with a write in flight (or lapped mid-read) are skipped.
    pub fn events(&self) -> Vec<TraceEvent> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((head - start) as usize);
        for i in start..head {
            let slot = &self.slots[(i % cap) as usize];
            let expect = 2 * (i / cap) + 2;
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 != expect {
                continue; // torn, stale, or already lapped
            }
            let w: [u64; 5] = std::array::from_fn(|k| slot.words[k].load(Ordering::Acquire));
            if slot.seq.load(Ordering::Acquire) != expect {
                continue; // lapped while reading
            }
            let Some(kind) = TraceKind::from_u8((w[0] & 0xff) as u8) else {
                continue;
            };
            out.push(TraceEvent {
                index: i,
                ts_ns: w[0] >> 8,
                kind,
                a: w[1],
                b: w[2],
                c: w[3],
                d: w[4],
            });
        }
        out
    }

    /// Render the retained records as a JSON array (one object per
    /// record, payload words under their generic `a..d` names plus the
    /// kind-specific decoding left to consumers).
    pub fn dump_json(&self) -> String {
        let events = self.events();
        let mut out = String::with_capacity(64 + events.len() * 96);
        out.push('[');
        for (n, e) in events.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"i\":{},\"ts_ns\":{},\"kind\":\"{}\",\"a\":{},\"b\":{},\"c\":{},\"d\":{}}}",
                e.index,
                e.ts_ns,
                e.kind.name(),
                e.a,
                e.b,
                e.c,
                e.d
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip() {
        let r = FlightRecorder::with_capacity(16);
        r.record(TraceKind::TickStart, 600, 0, 0, 0);
        r.record(TraceKind::PlanRequest, 7, 12, 40, 123);
        let ev = r.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].kind, TraceKind::TickStart);
        assert_eq!(ev[0].a, 600);
        assert_eq!(ev[1].kind, TraceKind::PlanRequest);
        assert_eq!((ev[1].a, ev[1].b, ev[1].c, ev[1].d), (7, 12, 40, 123));
        assert!(ev[0].ts_ns <= ev[1].ts_ns);
    }

    #[test]
    fn wraparound_keeps_last_capacity_records() {
        let r = FlightRecorder::with_capacity(8);
        for i in 0..30u64 {
            r.record(TraceKind::WalAppend, i, 0, 0, 0);
        }
        let ev = r.events();
        assert_eq!(ev.len(), 8);
        assert_eq!(ev.first().unwrap().a, 22);
        assert_eq!(ev.last().unwrap().a, 29);
        assert_eq!(r.recorded(), 30);
    }

    #[test]
    fn dump_json_is_wellformed() {
        let r = FlightRecorder::with_capacity(8);
        r.record(TraceKind::Admission, u64::MAX, 2, 5, 0);
        let json = r.dump_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"kind\":\"admission\""));
    }

    #[test]
    fn concurrent_writers_never_produce_torn_reads() {
        let r = std::sync::Arc::new(FlightRecorder::with_capacity(32));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    // Payload words are all derived from one value so a
                    // torn record is detectable.
                    let v = t * 1000 + i;
                    r.record(TraceKind::TdCache, v, v * 2, v * 3, v * 4);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for e in r.events() {
            assert_eq!(e.b, e.a * 2);
            assert_eq!(e.c, e.a * 3);
            assert_eq!(e.d, e.a * 4);
        }
        assert_eq!(r.recorded(), 2000);
    }
}
