//! The packet-lifecycle tracer: a bounded ring of [`TraceEvent`]s and
//! the Chrome `trace_event` / JSONL exporters.
//!
//! The ring keeps the *exact* first `head` events plus the last `cap`
//! events — enough to snapshot a run's opening (connection setup, first
//! regulator holds) and its steady state without unbounded memory. The
//! two regions never overlap in the export: a head event is emitted only
//! if its index precedes the tail's oldest retained index.
//!
//! Chrome export follows the `trace_event` JSON-object format the
//! `chrome://tracing` / Perfetto legacy importer reads: a top-level
//! `{"traceEvents": [...]}` whose entries carry `name`, `ph`, `ts`
//! (microseconds), `pid`, `tid`. Per-hop residency (node arrival →
//! departure) is a complete `"X"` span on the node's `tid`; arrivals,
//! eligibility releases, dispatches and oracle violations are instants
//! (`"i"`).

use std::fmt::Write as _;

/// The lifecycle stage a trace event records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// Last bit arrived at a node.
    Arrive,
    /// A regulator released a held packet (`E > arrival` only; packets
    /// eligible on arrival emit no separate event).
    Eligible,
    /// Service started (the packet won the eligible queue).
    Dispatch,
    /// Last bit left the node (`aux_ps` = deadline slack; `delivered`
    /// marks the final hop).
    Depart,
    /// The conformance oracle recorded a violation (`tag` names the
    /// violated inequality).
    Violation,
}

impl TraceKind {
    /// The compact name used in JSONL and Chrome `name` fields.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Arrive => "arrive",
            TraceKind::Eligible => "eligible",
            TraceKind::Dispatch => "dispatch",
            TraceKind::Depart => "depart",
            TraceKind::Violation => "violation",
        }
    }
}

/// One recorded lifecycle event. `Copy` and fixed-size so ring recording
/// is a bounded store with no allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Lifecycle stage.
    pub kind: TraceKind,
    /// Simulation time, picoseconds.
    pub t_ps: u64,
    /// Session id (`u32::MAX` when not applicable).
    pub session: u32,
    /// Per-session packet sequence number (0 when not applicable).
    pub seq: u64,
    /// Node id (`u32::MAX` for session-level violations).
    pub node: u32,
    /// Hop index along the session's route.
    pub hop: u32,
    /// Packet length, bits.
    pub len_bits: u32,
    /// Kind-specific payload, picoseconds: holding time `E − arrival`
    /// for [`TraceKind::Eligible`], deadline slack `F − departure`
    /// (negative = late) for [`TraceKind::Depart`], 0 otherwise.
    pub aux_ps: i64,
    /// For [`TraceKind::Depart`]: node arrival time (the span start of
    /// the Chrome `"X"` event). 0 otherwise.
    pub start_ps: u64,
    /// For [`TraceKind::Depart`]: whether this was the final hop.
    pub delivered: bool,
    /// For [`TraceKind::Violation`]: the violated inequality. Empty
    /// otherwise.
    pub tag: &'static str,
}

/// Bounded event storage: the exact first `head_cap` events plus the
/// last `tail_cap`, with a total count so the dropped span is known.
///
/// The tail is a flat circular buffer (one indexed store per record once
/// full, no deque machinery) — `record` is on the simulator's hot path
/// and the CI overhead guard holds the tracing run to ≤ 10% over the
/// probe-free run.
#[derive(Clone, Debug, Default)]
pub struct TraceRing {
    head: Vec<TraceEvent>,
    tail: Vec<TraceEvent>,
    /// Oldest tail slot (next to overwrite) once the tail is full.
    cursor: usize,
    head_cap: usize,
    tail_cap: usize,
    total: u64,
}

impl TraceRing {
    /// A ring keeping the first `head_cap` and last `tail_cap` events.
    /// `tail_cap == 0` disables recording entirely (only the total event
    /// count is kept).
    pub fn new(head_cap: usize, tail_cap: usize) -> Self {
        TraceRing {
            head: Vec::new(),
            tail: Vec::new(),
            cursor: 0,
            head_cap,
            tail_cap,
            total: 0,
        }
    }

    /// Whether recording is enabled (a zero-capacity ring stores nothing).
    pub fn enabled(&self) -> bool {
        self.tail_cap > 0
    }

    /// Record one event.
    #[inline(always)]
    pub fn record(&mut self, e: TraceEvent) {
        self.total += 1;
        if self.tail_cap == 0 {
            return;
        }
        if self.head.len() < self.head_cap {
            self.head.push(e);
        }
        if self.tail.len() < self.tail_cap {
            self.tail.push(e);
        } else {
            self.tail[self.cursor] = e;
            self.cursor += 1;
            if self.cursor == self.tail_cap {
                self.cursor = 0;
            }
        }
    }

    /// Total events observed (recorded or not).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events observed but retained in neither head nor tail.
    pub fn dropped(&self) -> u64 {
        let tail_first = self.total - self.tail.len() as u64;
        tail_first.saturating_sub(self.head.len() as u64)
    }

    /// All retained events in time order, head gap excluded exactly: a
    /// head event appears only if its index precedes the tail's oldest.
    pub fn events(&self) -> Vec<TraceEvent> {
        let tail_first = self.total - self.tail.len() as u64;
        let mut out: Vec<TraceEvent> = self
            .head
            .iter()
            .take(tail_first.min(self.head.len() as u64) as usize)
            .copied()
            .collect();
        if self.tail.len() == self.tail_cap {
            out.extend_from_slice(&self.tail[self.cursor..]);
            out.extend_from_slice(&self.tail[..self.cursor]);
        } else {
            out.extend_from_slice(&self.tail);
        }
        out
    }

    /// The first `n` retained events.
    pub fn first_n(&self, n: usize) -> Vec<TraceEvent> {
        let mut v = self.events();
        v.truncate(n);
        v
    }

    /// The last `n` retained events.
    pub fn last_n(&self, n: usize) -> Vec<TraceEvent> {
        let v = self.events();
        v[v.len().saturating_sub(n)..].to_vec()
    }
}

/// One JSONL line (no trailing newline) for an event, with a fixed key
/// order so the output is byte-deterministic.
pub fn jsonl_line(e: &TraceEvent) -> String {
    let mut s = String::with_capacity(128);
    push_fields(&mut s, e);
    s.insert(0, '{');
    s.push('}');
    s
}

/// A JSONL line with a leading `"arm":"<label>"` field — the form the
/// differential fuzzer's divergence bundles use to tag which run each
/// event came from.
pub fn jsonl_line_tagged(arm: &str, e: &TraceEvent) -> String {
    let mut s = String::with_capacity(144);
    let _ = write!(s, "{{\"arm\":\"{arm}\",");
    let mut rest = String::with_capacity(128);
    push_fields(&mut rest, e);
    s.push_str(&rest);
    s.push('}');
    s
}

fn push_fields(s: &mut String, e: &TraceEvent) {
    let node: i64 = if e.node == u32::MAX {
        -1
    } else {
        i64::from(e.node)
    };
    let session: i64 = if e.session == u32::MAX {
        -1
    } else {
        i64::from(e.session)
    };
    let _ = write!(
        s,
        "\"k\":\"{}\",\"t_ps\":{},\"s\":{session},\"q\":{},\"n\":{node},\"hop\":{},\"len\":{}",
        e.kind.name(),
        e.t_ps,
        e.seq,
        e.hop,
        e.len_bits
    );
    match e.kind {
        TraceKind::Eligible => {
            let _ = write!(s, ",\"held_ps\":{}", e.aux_ps);
        }
        TraceKind::Depart => {
            let _ = write!(
                s,
                ",\"slack_ps\":{},\"arr_ps\":{},\"delivered\":{}",
                e.aux_ps, e.start_ps, e.delivered
            );
        }
        TraceKind::Violation => {
            let _ = write!(s, ",\"tag\":\"{}\"", e.tag);
        }
        _ => {}
    }
}

/// Render events as a JSONL stream (one object per line).
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 1);
    for e in events {
        out.push_str(&jsonl_line(e));
        out.push('\n');
    }
    out
}

/// Microseconds with picosecond resolution, as Chrome's `ts` expects.
fn ts_us(ps: u64) -> String {
    format!("{}.{:06}", ps / 1_000_000, ps % 1_000_000)
}

/// Render event groups as Chrome `trace_event` JSON. Each group (one
/// network run, identified by its master seed) becomes one `pid`, with a
/// `process_name` metadata record; nodes map to `tid`s.
pub fn chrome_trace_json(groups: &[(u64, Vec<TraceEvent>)]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |line: String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };
    for (pid, (seed, events)) in groups.iter().enumerate() {
        push(
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"network seed {seed:#018x}\"}}}}"
            ),
            &mut first,
        );
        for e in events {
            let tid = if e.node == u32::MAX { 0 } else { e.node };
            let line = match e.kind {
                TraceKind::Depart => format!(
                    "{{\"name\":\"s{}#{}\",\"cat\":\"hop\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":{pid},\"tid\":{tid},\"args\":{{\"session\":{},\"seq\":{},\"hop\":{},\
                     \"len_bits\":{},\"slack_ps\":{},\"delivered\":{}}}}}",
                    e.session,
                    e.seq,
                    ts_us(e.start_ps),
                    // Export-side clamp: a Depart always has t ≥ start, but a
                    // malformed ring must not abort the dump.
                    ts_us(e.t_ps.saturating_sub(e.start_ps)),
                    e.session,
                    e.seq,
                    e.hop,
                    e.len_bits,
                    e.aux_ps,
                    e.delivered
                ),
                TraceKind::Violation => format!(
                    "{{\"name\":\"{}\",\"cat\":\"violation\",\"ph\":\"i\",\"s\":\"p\",\"ts\":{},\
                     \"pid\":{pid},\"tid\":{tid},\"args\":{{\"session\":{},\"seq\":{}}}}}",
                    e.tag,
                    ts_us(e.t_ps),
                    if e.session == u32::MAX {
                        -1
                    } else {
                        e.session as i64
                    },
                    e.seq
                ),
                kind => format!(
                    "{{\"name\":\"{}\",\"cat\":\"lifecycle\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\
                     \"pid\":{pid},\"tid\":{tid},\"args\":{{\"session\":{},\"seq\":{},\"hop\":{},\
                     \"aux_ps\":{}}}}}",
                    kind.name(),
                    ts_us(e.t_ps),
                    e.session,
                    e.seq,
                    e.hop,
                    e.aux_ps
                ),
            };
            push(line, &mut first);
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> TraceEvent {
        TraceEvent {
            kind: TraceKind::Arrive,
            t_ps: i * 1000,
            session: 0,
            seq: i,
            node: 1,
            hop: 0,
            len_bits: 424,
            aux_ps: 0,
            start_ps: 0,
            delivered: false,
            tag: "",
        }
    }

    #[test]
    fn ring_keeps_exact_head_and_tail() {
        let mut r = TraceRing::new(3, 4);
        for i in 0..10 {
            r.record(ev(i));
        }
        assert_eq!(r.total(), 10);
        // head = 0,1,2; tail = 6,7,8,9; dropped = 3,4,5.
        assert_eq!(r.dropped(), 3);
        let seqs: Vec<u64> = r.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 6, 7, 8, 9]);
        assert_eq!(
            r.first_n(2).iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(
            r.last_n(2).iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![8, 9]
        );
    }

    #[test]
    fn ring_head_and_tail_never_overlap() {
        // Fewer events than caps: everything retained once.
        let mut r = TraceRing::new(8, 8);
        for i in 0..5 {
            r.record(ev(i));
        }
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.events().len(), 5);
        // Just over the tail cap: head must not duplicate tail survivors.
        let mut r = TraceRing::new(4, 4);
        for i in 0..6 {
            r.record(ev(i));
        }
        let seqs: Vec<u64> = r.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn zero_capacity_ring_counts_only() {
        let mut r = TraceRing::new(64, 0);
        assert!(!r.enabled());
        for i in 0..100 {
            r.record(ev(i));
        }
        assert_eq!(r.total(), 100);
        assert!(r.events().is_empty());
    }

    #[test]
    fn jsonl_lines_parse_and_carry_kind_fields() {
        let mut e = ev(7);
        e.kind = TraceKind::Depart;
        e.aux_ps = -250;
        e.start_ps = 6500;
        e.delivered = true;
        let line = jsonl_line(&e);
        let v = crate::json::Value::parse(&line).expect("line parses");
        assert_eq!(v.get("k").and_then(|k| k.as_str()), Some("depart"));
        assert_eq!(v.get("slack_ps").and_then(|s| s.as_f64()), Some(-250.0));
        assert_eq!(v.get("delivered").and_then(|d| d.as_bool()), Some(true));
        let tagged = jsonl_line_tagged("lit-heap", &e);
        let v = crate::json::Value::parse(&tagged).expect("tagged line parses");
        assert_eq!(v.get("arm").and_then(|a| a.as_str()), Some("lit-heap"));
    }

    #[test]
    fn chrome_export_is_valid_trace_event_json() {
        let mut depart = ev(3);
        depart.kind = TraceKind::Depart;
        depart.start_ps = 1000;
        depart.t_ps = 4500;
        let mut violation = ev(4);
        violation.kind = TraceKind::Violation;
        violation.tag = "delay-bound (ineq. 12/15)";
        let json = chrome_trace_json(&[(7, vec![ev(1), depart, violation])]);
        let v = crate::json::Value::parse(&json).expect("chrome JSON parses");
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 4); // metadata + 3
        for e in events {
            assert!(e.get("name").and_then(|n| n.as_str()).is_some());
            let ph = e.get("ph").and_then(|p| p.as_str()).unwrap();
            if ph != "M" {
                assert!(e.get("ts").and_then(|t| t.as_f64()).is_some());
            }
            if ph == "X" {
                assert!(e.get("dur").and_then(|d| d.as_f64()).unwrap() >= 0.0);
            }
        }
        // ts carries picosecond resolution: 4500 ps span starting 1000 ps.
        assert!(json.contains("\"ts\":0.001000"), "{json}");
        assert!(json.contains("\"dur\":0.003500"), "{json}");
    }
}
