//! The open-loop load generator: one thread submits every arrival of a
//! precomputed schedule at its due time, whether or not earlier requests
//! have finished, and collects completions in between.
//!
//! Pacing is spin-then-yield: while the next due time is far off the thread
//! collects finished responses and yields; in the last stretch it spins on
//! the clock. Every latency is taken from the request's due time (submit
//! lateness plus the server-measured enqueue-to-completion time), so a stall
//! anywhere shows in every request it delays. How late the generator itself
//! ran is recorded per request.

use crate::schedule::{Arrival, Op};
use crate::trace::{Layer, Tracer};
use nsg_core::index::SearchRequest;
use nsg_serve::{ResponseSlot, ServeError, Server};
use nsg_vectors::VectorSet;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Response slots the generator cycles through (more than the admission
/// queue of a one-worker server can hold).
const SLOTS: usize = 512;
/// Below this much slack before the next due time, spin instead of yielding.
const SPIN_NS: u64 = 40_000;
/// Arrivals submitted later than this after their due time count as late.
pub const LATE_NS: u64 = 50_000;

#[derive(Debug, Clone, Copy)]
pub enum Outcome {
    /// A query answer: its ids sit at `ids[at..at + len]` of the log.
    Answered {
        latency_ns: u64,
        at: usize,
        len: usize,
    },
    /// A mutation acknowledgement.
    Mutated {
        latency_ns: u64,
        id: u32,
        applied: bool,
    },
    /// The request failed; `Overloaded` is a rejection at submit time.
    Failed(ServeError),
    /// Submitted, not yet collected (never left in a finished phase).
    Pending,
}

#[derive(Debug, Clone, Copy)]
pub struct Record {
    pub op: Op,
    /// Due time from the start of the record's phase.
    pub due_ns: u64,
    pub late_ns: u64,
    pub outcome: Outcome,
}

impl Record {
    /// Latency from the due time in µs, or `None` for a failed request.
    pub fn latency_us(&self) -> Option<f64> {
        match self.outcome {
            Outcome::Answered { latency_ns, .. } | Outcome::Mutated { latency_ns, .. } => {
                Some(latency_ns as f64 / 1e3)
            }
            Outcome::Failed(_) | Outcome::Pending => None,
        }
    }
}

/// Every request a generator sent, in submission order (the index is the
/// request's global sequence number), plus the answer ids.
#[derive(Default)]
pub struct Log {
    pub records: Vec<Record>,
    pub ids: Vec<u32>,
}

impl Log {
    pub fn answer(&self, r: &Record) -> Option<&[u32]> {
        match r.outcome {
            Outcome::Answered { at, len, .. } => Some(&self.ids[at..at + len]),
            _ => None,
        }
    }
}

pub struct Generator<'a> {
    server: &'a Server,
    queries: &'a VectorSet,
    rows: &'a VectorSet,
    request: SearchRequest,
    slots: Vec<Arc<ResponseSlot>>,
    free: Vec<usize>,
    /// (slot, record, submit time) of requests not yet collected, oldest
    /// first.
    inflight: VecDeque<(usize, usize, Instant)>,
    pub log: Log,
}

impl<'a> Generator<'a> {
    /// A generator whose `Query(q)` arrivals search `queries.get(q)` and
    /// whose `Insert(r)` arrivals insert `rows.get(r)`.
    pub fn new(
        server: &'a Server,
        queries: &'a VectorSet,
        rows: &'a VectorSet,
        request: SearchRequest,
    ) -> Self {
        Generator {
            server,
            queries,
            rows,
            request,
            slots: (0..SLOTS).map(|_| Arc::new(ResponseSlot::new())).collect(),
            free: (0..SLOTS).rev().collect(),
            inflight: VecDeque::with_capacity(SLOTS),
            log: Log::default(),
        }
    }

    /// Plays `arrivals` (due times relative to now) and waits for every
    /// response. Returns the range of [`Log::records`] this phase wrote.
    pub fn play(&mut self, arrivals: &[Arrival], tracer: &mut Tracer) -> Range<usize> {
        let first = self.log.records.len();
        self.log.records.reserve(arrivals.len());
        // A short lead so the first arrival is not late by construction.
        let start = Instant::now() + Duration::from_micros(200);
        for a in arrivals {
            let due = start + Duration::from_nanos(a.due_ns);
            self.pace(due, tracer);
            if self.free.is_empty() {
                self.collect_front(tracer);
            }
            self.submit(a, due);
            self.collect_ready(tracer);
        }
        while !self.inflight.is_empty() {
            self.collect_front(tracer);
        }
        first..self.log.records.len()
    }

    /// Closed loop for `seconds`: keeps `depth` requests outstanding, so the
    /// worker never waits for work, submitting `next()` whenever one
    /// finishes. A record's due time is its submit time, so its latency is
    /// the server's; its completion time is `due_ns + latency`.
    pub fn saturate(
        &mut self,
        seconds: f64,
        depth: usize,
        mut next: impl FnMut() -> Op,
        tracer: &mut Tracer,
    ) -> Range<usize> {
        let first = self.log.records.len();
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(seconds);
        loop {
            while self.inflight.len() < depth.min(SLOTS) {
                let now = Instant::now();
                let due_ns = (now - start).as_nanos() as u64;
                self.submit(&Arrival { due_ns, op: next() }, now);
                if matches!(self.log.records.last(), Some(r) if matches!(r.outcome, Outcome::Failed(_)))
                {
                    break;
                }
            }
            self.collect_front(tracer);
            if Instant::now() >= end {
                break;
            }
        }
        while !self.inflight.is_empty() {
            self.collect_front(tracer);
        }
        first..self.log.records.len()
    }

    fn pace(&mut self, due: Instant, tracer: &mut Tracer) {
        loop {
            let now = Instant::now();
            if now >= due {
                return;
            }
            if (due - now).as_nanos() as u64 > SPIN_NS {
                self.collect_ready(tracer);
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    fn submit(&mut self, &Arrival { due_ns, op }: &Arrival, due: Instant) {
        let Some(slot) = self.free.pop() else { return };
        let now = Instant::now();
        let late_ns = now.saturating_duration_since(due).as_nanos() as u64;
        let s = &self.slots[slot];
        let sent = match op {
            Op::Query(q) => {
                self.server
                    .try_submit(s, self.queries.get(q as usize), &self.request, None)
            }
            Op::Insert(r) => self
                .server
                .submit_insert(s, self.rows.get(r as usize), None),
            Op::Delete(id) => self.server.submit_delete(s, id, None),
        };
        let outcome = match sent {
            Ok(()) => Outcome::Pending,
            Err(e) => Outcome::Failed(e),
        };
        self.log.records.push(Record {
            op,
            due_ns,
            late_ns,
            outcome,
        });
        if sent.is_ok() {
            self.inflight
                .push_back((slot, self.log.records.len() - 1, now));
        } else {
            self.free.push(slot);
        }
    }

    /// Collects finished responses from the front of the in-flight queue
    /// without blocking.
    fn collect_ready(&mut self, tracer: &mut Tracer) {
        while let Some(&(slot, _, _)) = self.inflight.front() {
            if self.slots[slot].is_pending() {
                return;
            }
            self.collect_front(tracer);
        }
    }

    /// Waits for the oldest in-flight request and records its outcome.
    fn collect_front(&mut self, tracer: &mut Tracer) {
        let Some((slot, rec, submitted)) = self.inflight.pop_front() else {
            return;
        };
        let late_ns = self.log.records[rec].late_ns;
        let outcome = match self.slots[slot].wait() {
            Ok(guard) => {
                let service = guard.latency();
                tracer.record(
                    "serve.request",
                    Layer::Serve,
                    rec as u64,
                    submitted,
                    submitted + service,
                );
                let latency_ns = late_ns + service.as_nanos() as u64;
                match self.log.records[rec].op {
                    Op::Query(_) => {
                        let at = self.log.ids.len();
                        self.log
                            .ids
                            .extend(guard.neighbors().iter().map(|nb| nb.id));
                        Outcome::Answered {
                            latency_ns,
                            at,
                            len: self.log.ids.len() - at,
                        }
                    }
                    Op::Insert(_) | Op::Delete(_) => match guard.mutation() {
                        Some((id, applied)) => Outcome::Mutated {
                            latency_ns,
                            id,
                            applied,
                        },
                        None => Outcome::Failed(ServeError::MutationRejected),
                    },
                }
            }
            Err(e) => Outcome::Failed(e),
        };
        self.log.records[rec].outcome = outcome;
        self.free.push(slot);
    }
}

/// Share of `records` submitted more than [`LATE_NS`] after their due time,
/// and the p99 (or highest reportable percentile) of lateness in µs.
pub fn lateness(records: &[Record]) -> (f64, f64) {
    if records.is_empty() {
        return (0.0, 0.0);
    }
    let late = records.iter().filter(|r| r.late_ns > LATE_NS).count() as f64 / records.len() as f64;
    let us: Vec<f64> = records.iter().map(|r| r.late_ns as f64 / 1e3).collect();
    (late, crate::stats::summarize(&us).tail)
}
