//! The runtime-switchable observability facade.
//!
//! A [`Telemetry`] hub owns one trace sink and one [`MetricSet`];
//! components hold cheap [`Probe`] clones and record spans, instants
//! and latency samples against simulated [`Picos`] time. A disabled
//! probe (the default everywhere) is a `None` — every recording call is
//! a single enum check with no allocation and no locking, so production
//! sweeps pay effectively nothing for the instrumentation being
//! compiled in.
//!
//! The trace sink is an [`EventTracer`] ring only when the caller will
//! read the events back ([`Telemetry::new`],
//! [`Telemetry::with_attribution`]). A caller that discards the trace
//! builds a [`Telemetry::counting`] hub, which only tallies the calls
//! offered to it: no lock, no event, no ring write and no sort at
//! `finish`. Layers that know how many events a request or a run of
//! steps would offer ask [`Probe::stores_events`] and hand a counting
//! hub one [`Probe::count_events`] tally instead of one call per event.
//!
//! One hub is created *per simulated cell* (inside the spec runner),
//! never shared across cells, so traced sweeps stay deterministic at
//! any worker-thread count: each cell's events and metrics are a pure
//! function of that cell's simulation.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use util::telemetry::{
    AttrCollector, AttrRecord, EventTracer, LatencyHistogram, MetricSet, TraceEvent, Track,
};

use crate::time::Picos;

pub use util::telemetry::{AttrScope, AttrSummary, Cause, LatencySpan, NUM_CAUSES, NUM_SCOPES};

/// Latency-attribution state: the collector plus the `(scope, index)`
/// cursor issuing layers tag before servicing layers record. Atomics
/// only because the hub is `Sync`; within a cell everything is
/// single-threaded, so `Relaxed` ordering suffices.
#[derive(Debug)]
struct AttrState {
    collector: Mutex<AttrCollector>,
    scope: AtomicU8,
    index: AtomicU64,
    /// Per-scope next-ordinal counters for layers that number their own
    /// requests (offload segments, staging chunks).
    next: [AtomicU64; NUM_SCOPES],
}

/// Where a hub's `span`/`span_args`/`instant` calls go.
#[derive(Debug)]
enum TraceSink {
    /// A bounded ring whose surviving events [`Telemetry::finish`]
    /// returns.
    Ring(Mutex<EventTracer>),
    /// Calls counted, never stored: the caller discards the trace.
    /// `finish` reports the `trace.events_*` counters a ring of
    /// `capacity` would have, so metrics are the same either way.
    Count { capacity: u64, offered: AtomicU64 },
}

#[derive(Debug)]
struct Hub {
    trace: TraceSink,
    metrics: Mutex<MetricSet>,
    attr: Option<AttrState>,
}

impl Hub {
    /// Offers one trace event; `event` is built only when a ring keeps
    /// it.
    #[inline]
    fn trace(&self, event: impl FnOnce() -> TraceEvent) {
        match &self.trace {
            TraceSink::Count { offered, .. } => {
                offered.fetch_add(1, Ordering::Relaxed);
            }
            TraceSink::Ring(tracer) => tracer.lock().expect("tracer lock").record(event()),
        }
    }
}

/// A per-run telemetry hub: the owning side of a set of [`Probe`]s.
///
/// Create one per simulated run, hand [`probe`](Self::probe) clones to
/// components, then call [`finish`](Self::finish) to collect the trace
/// and live-recorded metrics.
#[derive(Debug)]
pub struct Telemetry {
    hub: Arc<Hub>,
}

impl Telemetry {
    /// A hub whose trace ring buffer holds at most `trace_capacity`
    /// events (metrics are unbounded — they are a small fixed set of
    /// names).
    pub fn new(trace_capacity: usize) -> Self {
        Self::build(Self::ring(trace_capacity), false)
    }

    /// A hub that additionally collects per-request latency
    /// attribution ([`Probe::attr_record`] and friends become live).
    pub fn with_attribution(trace_capacity: usize) -> Self {
        Self::build(Self::ring(trace_capacity), true)
    }

    /// A hub for a caller that discards the trace: trace calls are
    /// counted instead of stored, and [`finish`](Self::finish) returns
    /// no events. Its metrics — `trace.events_recorded` and
    /// `trace.events_dropped` included — equal those of a storing hub
    /// with the same `trace_capacity`.
    pub fn counting(trace_capacity: usize, attribution: bool) -> Self {
        let trace = TraceSink::Count {
            capacity: trace_capacity as u64,
            offered: AtomicU64::new(0),
        };
        Self::build(trace, attribution)
    }

    fn ring(trace_capacity: usize) -> TraceSink {
        TraceSink::Ring(Mutex::new(EventTracer::new(trace_capacity)))
    }

    fn build(trace: TraceSink, attribution: bool) -> Self {
        Telemetry {
            hub: Arc::new(Hub {
                trace,
                metrics: Mutex::new(MetricSet::new()),
                attr: attribution.then(|| AttrState {
                    collector: Mutex::new(AttrCollector::default()),
                    scope: AtomicU8::new(AttrScope::Offload as u8),
                    index: AtomicU64::new(0),
                    next: [const { AtomicU64::new(0) }; NUM_SCOPES],
                }),
            }),
        }
    }

    /// A live probe feeding this hub.
    pub fn probe(&self) -> Probe {
        Probe(Some(Arc::clone(&self.hub)))
    }

    /// Folds a set of end-of-run metrics (component counters collected
    /// via `collect_metrics`) into the hub, merging with anything probes
    /// recorded live.
    pub fn merge_metrics(&self, other: &MetricSet) {
        self.hub.metrics.lock().expect("metrics lock").merge(other);
    }

    /// Drains the hub: time-sorted surviving events (none from a
    /// [`counting`](Self::counting) hub) plus the metrics recorded
    /// through probes, including `trace.events_recorded` /
    /// `trace.events_dropped` bookkeeping.
    ///
    /// Outstanding probe clones keep working but feed a fresh, empty
    /// buffer; `finish` is called once, after the run completes.
    pub fn finish(&self) -> (Vec<TraceEvent>, MetricSet) {
        let (events, recorded, dropped) = match &self.hub.trace {
            TraceSink::Ring(tracer) => {
                let tracer = std::mem::replace(
                    &mut *tracer.lock().expect("tracer lock"),
                    EventTracer::new(0),
                );
                let (recorded, dropped) = (tracer.recorded(), tracer.dropped());
                (tracer.finish(), recorded, dropped)
            }
            TraceSink::Count { capacity, offered } => {
                let n = offered.swap(0, Ordering::Relaxed);
                (Vec::new(), n, n.saturating_sub(*capacity))
            }
        };
        let mut metrics = std::mem::take(&mut *self.hub.metrics.lock().expect("metrics lock"));
        metrics.add("trace.events_recorded", recorded);
        metrics.add("trace.events_dropped", dropped);
        (events, metrics)
    }

    /// The latency-attribution summary, when this hub was created with
    /// [`with_attribution`](Self::with_attribution). Does not drain —
    /// callable alongside [`finish`](Self::finish) in either order.
    pub fn attribution(&self) -> Option<AttrSummary> {
        self.hub
            .attr
            .as_ref()
            .map(|a| a.collector.lock().expect("attr lock").summarize())
    }
}

/// The lone disabled probe with a `'static` home, for trait default
/// methods that hand out `&Probe` without storing one.
static DISABLED_PROBE: Probe = Probe(None);

/// A cheap, cloneable recording handle.
///
/// The default probe is disabled: every call short-circuits on a single
/// `Option` check. Probes are `Send + Sync` (the hub is mutex-guarded),
/// but within this workspace a probe never crosses a thread — hubs are
/// per-cell.
#[derive(Debug, Clone, Default)]
pub struct Probe(Option<Arc<Hub>>);

impl Probe {
    /// The no-op probe — what every component starts with.
    pub fn disabled() -> Self {
        Probe(None)
    }

    /// A `'static` disabled probe, for trait default methods returning
    /// `&Probe`.
    pub fn disabled_ref() -> &'static Probe {
        &DISABLED_PROBE
    }

    /// Whether recording calls will actually store anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Whether the hub keeps the trace events offered to it (a ring
    /// from [`Telemetry::new`] or [`Telemetry::with_attribution`]).
    /// False for a disabled probe and for a [`Telemetry::counting`]
    /// hub, which only needs to know how many calls it was offered.
    #[inline]
    pub fn stores_events(&self) -> bool {
        matches!(&self.0, Some(hub) if matches!(hub.trace, TraceSink::Ring(_)))
    }

    /// Adds `n` offered trace calls to a counting hub's tally — what `n`
    /// [`span`](Self::span)/[`instant`](Self::instant) calls would add.
    /// Only for callers that checked [`stores_events`](Self::stores_events)
    /// is false: a storing hub needs each event, so it never receives a
    /// tally.
    #[inline]
    pub fn count_events(&self, n: u64) {
        if let Some(hub) = &self.0 {
            match &hub.trace {
                TraceSink::Count { offered, .. } => {
                    offered.fetch_add(n, Ordering::Relaxed);
                }
                TraceSink::Ring(_) => {
                    debug_assert!(n == 0, "a storing hub takes events one call at a time")
                }
            }
        }
    }

    /// Records a `[start, end)` span on `track`.
    #[inline]
    pub fn span(&self, track: Track, name: &'static str, start: Picos, end: Picos) {
        if let Some(hub) = &self.0 {
            hub.trace(|| TraceEvent {
                ts_ps: start.as_ps(),
                dur_ps: end.as_ps().saturating_sub(start.as_ps()),
                track,
                name,
                args: Vec::new(),
            });
        }
    }

    /// Records a span carrying small numeric args (byte counts, rows).
    #[inline]
    pub fn span_args(
        &self,
        track: Track,
        name: &'static str,
        start: Picos,
        end: Picos,
        args: &[(&'static str, u64)],
    ) {
        if let Some(hub) = &self.0 {
            hub.trace(|| TraceEvent {
                ts_ps: start.as_ps(),
                dur_ps: end.as_ps().saturating_sub(start.as_ps()),
                track,
                name,
                args: args.to_vec(),
            });
        }
    }

    /// Records a zero-duration instant on `track`.
    #[inline]
    pub fn instant(&self, track: Track, name: &'static str, at: Picos) {
        if let Some(hub) = &self.0 {
            hub.trace(|| TraceEvent {
                ts_ps: at.as_ps(),
                dur_ps: 0,
                track,
                name,
                args: Vec::new(),
            });
        }
    }

    /// Records `dur` into the latency histogram `name`.
    #[inline]
    pub fn latency(&self, name: &str, dur: Picos) {
        if let Some(hub) = &self.0 {
            hub.metrics
                .lock()
                .expect("metrics lock")
                .record_latency_ps(name, dur.as_ps());
        }
    }

    /// Adds every sample of `samples` into the latency histogram `name`
    /// — for layers that accumulate samples locally and drain them in
    /// batches (same buckets as one [`latency`](Self::latency) call per
    /// sample).
    pub fn latencies(&self, name: &str, samples: &LatencyHistogram) {
        if let Some(hub) = &self.0 {
            hub.metrics
                .lock()
                .expect("metrics lock")
                .merge_latency(name, samples);
        }
    }

    /// Adds `delta` to the counter `name`.
    #[inline]
    pub fn count(&self, name: &str, delta: u64) {
        if let Some(hub) = &self.0 {
            hub.metrics.lock().expect("metrics lock").add(name, delta);
        }
    }

    // --- latency attribution -----------------------------------------
    //
    // The protocol: the layer that *issues* a request tags the cursor
    // (`attr_tag` with an explicit ordinal, or `attr_tag_next` for
    // self-numbering scopes), then the layer(s) that *service* it call
    // `attr_span` at issue time, bucket every advance of the returned
    // builder, and commit with `attr_record`. Nested servicing layers
    // record under the same cursor, so an SSD read inside a staging
    // chunk shares that chunk's (scope, index).

    /// Whether latency attribution is collected. A single check on the
    /// hot path: `None` hub short-circuits like every other probe call.
    #[inline]
    pub fn attr_on(&self) -> bool {
        matches!(&self.0, Some(hub) if hub.attr.is_some())
    }

    /// Sets the attribution cursor to `(scope, index)` — called by the
    /// issuing layer before the serviced request records.
    #[inline]
    pub fn attr_tag(&self, scope: AttrScope, index: u64) {
        if let Some(attr) = self.0.as_ref().and_then(|h| h.attr.as_ref()) {
            attr.scope.store(scope as u8, Ordering::Relaxed);
            attr.index.store(index, Ordering::Relaxed);
        }
    }

    /// Tags the cursor with `scope`'s next self-numbered ordinal.
    #[inline]
    pub fn attr_tag_next(&self, scope: AttrScope) {
        if let Some(attr) = self.0.as_ref().and_then(|h| h.attr.as_ref()) {
            let index = attr.next[scope as usize].fetch_add(1, Ordering::Relaxed);
            attr.scope.store(scope as u8, Ordering::Relaxed);
            attr.index.store(index, Ordering::Relaxed);
        }
    }

    /// Advances the cursor's request ordinal by one, keeping the scope
    /// — the batched-stream path's per-op step.
    #[inline]
    pub fn attr_advance(&self) {
        if let Some(attr) = self.0.as_ref().and_then(|h| h.attr.as_ref()) {
            attr.index.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Starts a conserving span builder at `start`, or `None` when
    /// attribution is off — the servicing layer's single check.
    #[inline]
    pub fn attr_span(&self, start: Picos) -> Option<AttrSpan> {
        if self.attr_on() {
            Some(AttrSpan::new(start))
        } else {
            None
        }
    }

    /// Commits a finished span under the current cursor. The builder's
    /// cursor position is the request's completion time, so the record
    /// conserves by construction.
    pub fn attr_record(&self, source: &'static str, span: &AttrSpan) {
        if let Some(attr) = self.0.as_ref().and_then(|h| h.attr.as_ref()) {
            let rec = span.record(
                AttrScope::from_u8(attr.scope.load(Ordering::Relaxed)),
                attr.index.load(Ordering::Relaxed),
                source,
            );
            attr.collector.lock().expect("attr lock").record(rec);
        }
    }
}

/// A conserving per-request span builder: a monotone time cursor whose
/// every advance is bucketed into a [`Cause`], so the committed record's
/// causes sum exactly to its wall time by construction.
#[derive(Debug, Clone)]
pub struct AttrSpan {
    start: Picos,
    cursor: Picos,
    span: LatencySpan,
}

impl AttrSpan {
    /// A builder whose request was issued at `start`.
    pub fn new(start: Picos) -> Self {
        AttrSpan {
            start,
            cursor: start,
            span: LatencySpan::new(),
        }
    }

    /// Advances the cursor to `to`, attributing the elapsed time to
    /// `cause`. A `to` at or before the cursor attributes nothing (the
    /// resource was already free / the phase was skipped).
    #[inline]
    pub fn advance(&mut self, cause: Cause, to: Picos) {
        if to > self.cursor {
            self.span.add(cause, (to - self.cursor).as_ps());
            self.cursor = to;
        }
    }

    /// The cursor's current position.
    pub fn cursor(&self) -> Picos {
        self.cursor
    }

    /// The decomposition accumulated so far.
    pub fn span(&self) -> &LatencySpan {
        &self.span
    }

    /// The untagged record of request `(scope, index)` serviced at
    /// `source`: issued at the span's start, completed at its cursor.
    pub fn record(&self, scope: AttrScope, index: u64, source: &'static str) -> AttrRecord {
        AttrRecord {
            scope,
            index,
            source,
            start_ps: self.start.as_ps(),
            dur_ps: self.cursor.as_ps().saturating_sub(self.start.as_ps()),
            span: self.span,
            tenant: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_probe_records_nothing() {
        let p = Probe::disabled();
        assert!(!p.is_enabled());
        p.span(Track::new("t", 0), "e", Picos::ZERO, Picos::from_ns(1));
        p.latency("lat", Picos::from_ns(5));
        p.count("c", 1);
        // Nothing observable — and no hub exists to observe.
    }

    #[test]
    fn default_probe_is_disabled() {
        assert!(!Probe::default().is_enabled());
    }

    #[test]
    fn hub_collects_spans_and_metrics() {
        let hub = Telemetry::new(16);
        let p = hub.probe();
        assert!(p.is_enabled());
        let track = Track::new("partition", 2);
        p.span(track, "activate", Picos::from_ns(10), Picos::from_ns(25));
        p.instant(track, "rdb_hit", Picos::from_ns(30));
        p.latency("pram.read", Picos::from_ns(15));
        p.count("pram.requests", 3);

        let (events, metrics) = hub.finish();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "activate");
        assert_eq!(events[0].dur_ps, 15_000);
        assert_eq!(events[1].dur_ps, 0);
        assert_eq!(metrics.counter("pram.requests"), Some(3));
        assert_eq!(metrics.counter("trace.events_recorded"), Some(2));
        assert_eq!(metrics.counter("trace.events_dropped"), Some(0));
        assert_eq!(metrics.histogram("pram.read").unwrap().count(), 1);
    }

    #[test]
    fn counting_hub_reports_the_ring_counters_without_events() {
        for capacity in [0, 2, 16] {
            let ring = Telemetry::new(capacity);
            let count = Telemetry::counting(capacity, false);
            for hub in [&ring, &count] {
                let p = hub.probe();
                let track = Track::new("pe", 1);
                p.span(track, "compute", Picos::ZERO, Picos::from_ns(4));
                p.span_args(
                    track,
                    "mem",
                    Picos::from_ns(4),
                    Picos::from_ns(9),
                    &[("bytes", 64)],
                );
                p.instant(track, "hit", Picos::from_ns(9));
                p.span(track, "compute", Picos::from_ns(9), Picos::from_ns(12));
            }
            let (kept, ring_metrics) = ring.finish();
            let (none, count_metrics) = count.finish();
            assert_eq!(kept.len(), capacity.min(4));
            assert!(none.is_empty());
            assert_eq!(count_metrics, ring_metrics, "capacity {capacity}");
            assert_eq!(count_metrics.counter("trace.events_recorded"), Some(4));
        }
    }

    #[test]
    fn a_tally_counts_what_its_calls_would() {
        // A counting hub given `count_events(n)` reports what `n`
        // offered calls report on a ring of the same capacity; only
        // rings say they store events.
        for capacity in [0, 3, 16] {
            let ring = Telemetry::new(capacity);
            let count = Telemetry::counting(capacity, true);
            let (p, q) = (ring.probe(), count.probe());
            assert!(p.stores_events());
            assert!(!q.stores_events());
            let track = Track::new("partition", 0);
            for i in 0..7 {
                p.instant(track, "rab_hit", Picos::from_ns(i));
            }
            q.instant(track, "rab_hit", Picos::ZERO);
            q.count_events(6);
            q.count_events(0);
            assert_eq!(count.finish().1, ring.finish().1, "capacity {capacity}");
        }
        assert!(!Probe::disabled().stores_events());
        Probe::disabled().count_events(5);
    }

    #[test]
    fn batched_latencies_land_in_the_per_sample_buckets() {
        let (one_by_one, batched) = (Telemetry::new(0), Telemetry::new(0));
        let mut local = LatencyHistogram::new();
        for ns in [1, 3, 700, 700, 90_000] {
            one_by_one.probe().latency("pe.mem_op", Picos::from_ns(ns));
            local.record_ps(Picos::from_ns(ns).as_ps());
        }
        batched.probe().latencies("pe.mem_op", &local);
        Probe::disabled().latencies("pe.mem_op", &local);
        assert_eq!(batched.finish().1, one_by_one.finish().1);
    }

    #[test]
    fn merge_metrics_folds_component_counters_into_the_hub() {
        let hub = Telemetry::new(4);
        hub.probe().count("pram.reads", 2);
        let mut end_of_run = MetricSet::new();
        end_of_run.add("pram.reads", 3);
        end_of_run.add("pram.rab_hits", 7);
        hub.merge_metrics(&end_of_run);
        let (_, m) = hub.finish();
        assert_eq!(m.counter("pram.reads"), Some(5));
        assert_eq!(m.counter("pram.rab_hits"), Some(7));
    }

    #[test]
    fn attribution_records_under_the_tagged_cursor() {
        let hub = Telemetry::with_attribution(4);
        let p = hub.probe();
        assert!(p.attr_on());
        // Plain hubs and disabled probes stay inert.
        assert!(!Telemetry::new(4).probe().attr_on());
        assert!(Probe::disabled().attr_span(Picos::ZERO).is_none());
        assert!(!Probe::disabled_ref().attr_on());

        // Issue side tags, service side buckets a monotone cursor.
        p.attr_tag(AttrScope::Exec, 41);
        p.attr_advance(); // batched path steps to 42
        let at = Picos::from_ns(100);
        let mut span = p.attr_span(at).expect("attr on");
        span.advance(Cause::QueueWait, Picos::from_ns(130));
        span.advance(Cause::QueueWait, Picos::from_ns(120)); // backwards: no-op
        span.advance(Cause::ArrayAccess, Picos::from_ns(180));
        span.advance(Cause::DataBurst, Picos::from_ns(200));
        p.attr_record("pram.read", &span);

        // Self-numbering scopes hand out 0, 1, 2, ...
        p.attr_tag_next(AttrScope::StageIn);
        let mut s2 = p.attr_span(Picos::ZERO).expect("attr on");
        s2.advance(Cause::Media, Picos::from_ns(10));
        p.attr_record("ssd.read", &s2);

        let a = hub.attribution().expect("attribution collected");
        assert!(a.conserves(), "{a:?}");
        assert_eq!(a.records, 2);
        assert_eq!(a.wall_ps, 100_000 + 10_000);
        let exec = a.scopes.iter().find(|s| s.scope == AttrScope::Exec);
        assert_eq!(exec.expect("exec scope").records, 1);
        assert_eq!(a.top[0].index, 42, "tag + advance = batched ordinal");
        assert_eq!(a.top[0].source, "pram.read");
        assert_eq!(a.top[1].index, 0, "stage_in numbered itself");
        assert!(Telemetry::new(4).attribution().is_none());
    }

    #[test]
    fn finish_leaves_probes_harmless() {
        let hub = Telemetry::new(4);
        let p = hub.probe();
        p.count("c", 1);
        let (_, m) = hub.finish();
        assert_eq!(m.counter("c"), Some(1));
        // A straggler write after finish lands in the fresh buffer and
        // is simply never read — no panic, no corruption.
        p.count("c", 1);
    }
}
