//! Spans around the benchmark's calls into the simulator.
//!
//! Spans are recorded by the benchmark, around each call in `calls.rs`;
//! the program itself is not instrumented. They stay in memory and are
//! written once, at exit, as Chrome-trace JSON that Perfetto opens.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::calls::Json;

/// One finished span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// What the span worked on: a rep number, or a cell's position in its
    /// grid (`preset * kernels + kernel`).
    cell: u64,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// Chrome-trace thread the span is drawn on.
    lane: u32,
}

/// Records spans when enabled; otherwise only runs the wrapped calls.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    lane: u32,
}

/// Lane of the timed repetitions.
pub const REPS: u32 = 1;
/// Lane of the single-thread layer probe.
pub const PROBE: u32 = 2;
/// Lane of the correctness and accuracy checks after the timed reps.
pub const CHECKS: u32 = 3;

const LANE_NAMES: [&str; 3] = ["reps", "layer probe", "checks"];

impl Tracer {
    /// A tracer; `on == false` makes [`span`](Self::span) a plain call.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            lane: REPS,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Sets the lane later spans are drawn on.
    pub fn set_lane(&mut self, lane: u32) {
        self.lane = lane;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`. Spans opened inside `f`
    /// become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        cell: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            cell,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            lane: self.lane,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Like [`span`](Self::span), also returning the call's wall time in
    /// seconds.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        cell: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = self.span(name, cell, f);
        (out, start.elapsed().as_secs_f64())
    }

    /// Per span name: count, total and self milliseconds, where self
    /// time is a span's duration minus the time its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur as f64 / 1e6;
            e.2 += dur.saturating_sub(child) as f64 / 1e6;
        }
        out
    }

    /// The spans as a Chrome trace-event array.
    pub fn chrome_trace(&self) -> Json {
        let us = |ns: u64| Json::F64(ns as f64 / 1e3);
        let str = |s: &str| Json::Str(s.to_string());
        let mut events = vec![meta(0, "process_name", "perf")];
        for (i, name) in LANE_NAMES.iter().enumerate() {
            events.push(meta(i as u64 + 1, "thread_name", name));
        }
        for (id, s) in self.spans.iter().enumerate() {
            let mut args = vec![
                ("span".to_string(), Json::U64(id as u64)),
                ("cell".to_string(), Json::U64(s.cell)),
            ];
            if let Some(p) = s.parent {
                args.push(("parent".to_string(), Json::U64(p as u64)));
            }
            events.push(Json::Obj(vec![
                ("name".to_string(), str(s.name)),
                ("ph".to_string(), str("X")),
                ("ts".to_string(), us(s.start_ns)),
                ("dur".to_string(), us(s.end_ns - s.start_ns)),
                ("pid".to_string(), Json::U64(1)),
                ("tid".to_string(), Json::U64(u64::from(s.lane))),
                ("args".to_string(), Json::Obj(args)),
            ]));
        }
        Json::Arr(events)
    }
}

fn meta(tid: u64, kind: &str, name: &str) -> Json {
    Json::Obj(vec![
        ("ph".to_string(), Json::Str("M".to_string())),
        ("pid".to_string(), Json::U64(1)),
        ("tid".to_string(), Json::U64(tid)),
        ("name".to_string(), Json::Str(kind.to_string())),
        (
            "args".to_string(),
            Json::Obj(vec![("name".to_string(), Json::Str(name.to_string()))]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", 0, |t| {
            t.span("inner", 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let times = t.self_times();
        let (n, total, own) = times["outer"];
        assert_eq!(n, 1);
        assert!(own < total && times["inner"].1 >= 5.0);
        let trace = t.chrome_trace().render(false);
        assert!(trace.contains("\"parent\":0"), "{trace}");
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 0, |_| 7), 7);
        assert!(t.self_times().is_empty());
    }
}
