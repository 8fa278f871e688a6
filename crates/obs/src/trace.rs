//! Span recording and Chrome-trace export.
//!
//! ## Recorder design
//!
//! Every thread that records a span owns one `ThreadBuf`: a bounded
//! ring of events plus a display label, registered once in a global
//! list. Recording locks only the owner's own buffer — never a shared
//! structure — so steady-state recording is contention-free; the only
//! writer that ever takes someone else's lock is the exporter, which
//! runs after the measured work. The ring is bounded (default 65536
//! events per thread, `CMAM_TRACE_BUF` overrides), overwriting the
//! oldest events and counting the overwritten ones, so tracing a huge
//! sweep can never exhaust memory.
//!
//! ## Export format
//!
//! [`chrome_trace_json`] renders the JSON Array Format that
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load
//! directly: one `"ph": "X"` *complete* event per span (`ts`/`dur` in
//! microseconds, nanosecond resolution preserved as decimals) plus
//! `"ph": "M"` metadata naming the process and each thread. Span
//! hierarchy needs no explicit parent links — the viewers nest complete
//! events on the same thread track by time containment, which the
//! recorder guarantees by construction (a child guard drops before its
//! parent). [`validate_chrome_trace`] re-parses a document and checks
//! exactly that schema, including the nesting invariant.

use std::cell::OnceCell;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Maximum `name = value` pairs one span can carry (fixed so recording
/// never allocates).
pub const MAX_SPAN_ARGS: usize = 4;

/// Inline argument storage of one span.
#[derive(Debug, Clone, Copy, Default)]
struct ArgBuf {
    kv: [(&'static str, u64); MAX_SPAN_ARGS],
    len: u8,
}

impl ArgBuf {
    fn from_slice(args: &[(&'static str, u64)]) -> Self {
        let mut buf = ArgBuf {
            kv: [("", 0); MAX_SPAN_ARGS],
            len: args.len().min(MAX_SPAN_ARGS) as u8,
        };
        buf.kv[..buf.len as usize].copy_from_slice(&args[..buf.len as usize]);
        buf
    }

    fn pairs(&self) -> &[(&'static str, u64)] {
        &self.kv[..self.len as usize]
    }
}

/// One closed span, timestamped relative to the process trace epoch.
#[derive(Debug, Clone, Copy)]
struct Event {
    name: &'static str,
    ts_ns: u64,
    dur_ns: u64,
    args: ArgBuf,
}

/// Bounded event ring: overwrites the oldest events once full.
#[derive(Debug)]
struct Ring {
    cap: usize,
    buf: Vec<Event>,
    /// Events ever pushed; `total % cap` is the next overwrite slot.
    total: u64,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Ring {
            cap: cap.max(16),
            buf: Vec::new(),
            total: 0,
        }
    }

    fn push(&mut self, ev: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            let slot = (self.total % self.cap as u64) as usize;
            self.buf[slot] = ev;
        }
        self.total += 1;
    }

    /// Events in recording order (oldest surviving first).
    fn in_order(&self) -> Vec<Event> {
        if self.total <= self.cap as u64 {
            self.buf.clone()
        } else {
            let split = (self.total % self.cap as u64) as usize;
            let mut out = Vec::with_capacity(self.buf.len());
            out.extend_from_slice(&self.buf[split..]);
            out.extend_from_slice(&self.buf[..split]);
            out
        }
    }

    fn dropped(&self) -> u64 {
        self.total.saturating_sub(self.buf.len() as u64)
    }
}

/// One thread's recorder: only the owning thread pushes events; the
/// exporter (and `reset`) are the only other lockers.
#[derive(Debug)]
struct ThreadBuf {
    tid: u32,
    label: Mutex<String>,
    events: Mutex<Ring>,
}

/// Global recorder state: the trace epoch and the registered threads.
struct Recorder {
    epoch: Instant,
    threads: Mutex<Vec<Arc<ThreadBuf>>>,
    cap: usize,
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        epoch: Instant::now(),
        threads: Mutex::new(Vec::new()),
        cap: std::env::var("CMAM_TRACE_BUF")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1 << 16),
    })
}

thread_local! {
    static LOCAL: OnceCell<Arc<ThreadBuf>> = const { OnceCell::new() };
}

/// The current thread's buffer, registering it on first use. The label
/// defaults to the OS thread name (`main`, `cmam-pool-3`, test names) or
/// `thread-<tid>`.
fn local_buf() -> Arc<ThreadBuf> {
    LOCAL.with(|cell| {
        Arc::clone(cell.get_or_init(|| {
            let rec = recorder();
            let mut threads = rec.threads.lock().expect("trace registry poisoned");
            let tid = threads.len() as u32 + 1;
            let label = std::thread::current()
                .name()
                .map(str::to_owned)
                .unwrap_or_else(|| format!("thread-{tid}"));
            let buf = Arc::new(ThreadBuf {
                tid,
                label: Mutex::new(label),
                events: Mutex::new(Ring::new(rec.cap)),
            });
            threads.push(Arc::clone(&buf));
            buf
        }))
    })
}

/// Renames the current thread's trace track (the pool workers call this
/// with their worker id so a trace shows `cmam-pool-N` lanes).
pub fn set_thread_label(label: &str) {
    let buf = local_buf();
    *buf.label.lock().expect("trace label poisoned") = label.to_owned();
}

/// Total events ever recorded, across all threads (tests/diagnostics).
pub fn events_recorded() -> u64 {
    let threads = recorder().threads.lock().expect("trace registry poisoned");
    threads
        .iter()
        .map(|t| t.events.lock().expect("trace ring poisoned").total)
        .sum()
}

/// Clears every thread's recorded events (labels and registrations
/// survive). Tests use this for isolation; production code never needs
/// it.
pub fn reset_trace() {
    let threads = recorder().threads.lock().expect("trace registry poisoned");
    for t in threads.iter() {
        let mut ring = t.events.lock().expect("trace ring poisoned");
        ring.buf.clear();
        ring.total = 0;
    }
}

/// An open span; the span closes (and the event is recorded) when the
/// guard drops. Construct through the [`span!`](crate::span) macro.
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard(Option<ActiveSpan>);

struct ActiveSpan {
    name: &'static str,
    args: ArgBuf,
    start: Instant,
}

impl SpanGuard {
    /// Opens a span now. Called by [`span!`](crate::span) only after the
    /// enabled check passed.
    pub fn enter(name: &'static str, args: &[(&'static str, u64)]) -> SpanGuard {
        // Touch the recorder first so the epoch exists before the start
        // timestamp is taken.
        let _ = recorder();
        SpanGuard(Some(ActiveSpan {
            name,
            args: ArgBuf::from_slice(args),
            start: Instant::now(),
        }))
    }

    /// The inert guard the disabled path returns: no clock read, no
    /// allocation, nothing on drop.
    pub fn disabled() -> SpanGuard {
        SpanGuard(None)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(active) = self.0.take() {
            let dur_ns = active.start.elapsed().as_nanos() as u64;
            let ts_ns = active.start.duration_since(recorder().epoch).as_nanos() as u64;
            let buf = local_buf();
            buf.events.lock().expect("trace ring poisoned").push(Event {
                name: active.name,
                ts_ns,
                dur_ns,
                args: active.args,
            });
        }
    }
}

/// Nanoseconds rendered as Chrome-trace microseconds (`ts` unit) with
/// the nanosecond fraction preserved.
fn ns_as_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders everything recorded so far as a Chrome-trace JSON document
/// (the buffers are left intact). Loadable in `chrome://tracing` and
/// Perfetto; parseable back with [`crate::json::parse`].
pub fn chrome_trace_json() -> String {
    let snapshot: Vec<(u32, String, u64, Vec<Event>)> = {
        let threads = recorder().threads.lock().expect("trace registry poisoned");
        threads
            .iter()
            .map(|t| {
                let ring = t.events.lock().expect("trace ring poisoned");
                (
                    t.tid,
                    t.label.lock().expect("trace label poisoned").clone(),
                    ring.dropped(),
                    ring.in_order(),
                )
            })
            .collect()
    };
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"cmam\"}}",
    );
    for (tid, label, dropped, _) in &snapshot {
        out.push_str(&format!(
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\",\"dropped\":{dropped}}}}}",
            json_escape(label)
        ));
    }
    // All spans, globally ordered by start time (longer spans first on
    // ties, so parents precede children).
    let mut all: Vec<(u32, Event)> = Vec::new();
    for (tid, _, _, events) in &snapshot {
        all.extend(events.iter().map(|e| (*tid, *e)));
    }
    all.sort_by_key(|(tid, e)| (e.ts_ns, std::cmp::Reverse(e.dur_ns), *tid));
    for (tid, e) in &all {
        out.push_str(&format!(
            ",\n{{\"name\":\"{}\",\"cat\":\"cmam\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
             \"ts\":{},\"dur\":{}",
            json_escape(e.name),
            ns_as_us(e.ts_ns),
            ns_as_us(e.dur_ns),
        ));
        if e.args.len > 0 {
            out.push_str(",\"args\":{");
            for (i, (k, v)) in e.args.pairs().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":{v}", json_escape(k)));
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Writes [`chrome_trace_json`] to `path`.
pub fn write_chrome_trace(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace_json())
}

/// Validates a Chrome-trace document against the schema this crate
/// emits: a `traceEvents` array of `"ph": "X"` complete events (with
/// `name`, `pid`, `tid`, non-negative `ts`/`dur`) and `"ph": "M"`
/// metadata (named `process_name`/`thread_name`, with `args.name`), and
/// — the property the viewers' nesting depends on — spans on one thread
/// must strictly nest, never partially overlap. Returns the number of
/// complete events.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    use crate::json::{parse, Value};
    let doc = parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut spans_per_tid: std::collections::BTreeMap<i64, Vec<(f64, f64)>> =
        std::collections::BTreeMap::new();
    let mut xcount = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let tid = ev
            .get("tid")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("event {i}: missing tid"))? as i64;
        ev.get("pid")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("event {i}: missing pid"))?;
        match ph {
            "M" => {
                if name != "process_name" && name != "thread_name" {
                    return Err(format!("event {i}: unknown metadata {name:?}"));
                }
                ev.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("event {i}: metadata without args.name"))?;
            }
            "X" => {
                let ts = ev
                    .get("ts")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("event {i} ({name}): missing ts"))?;
                let dur = ev
                    .get("dur")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("event {i} ({name}): missing dur"))?;
                if ts < 0.0 || dur < 0.0 {
                    return Err(format!("event {i} ({name}): negative ts/dur"));
                }
                spans_per_tid.entry(tid).or_default().push((ts, ts + dur));
                xcount += 1;
            }
            other => return Err(format!("event {i} ({name}): unsupported ph {other:?}")),
        }
    }
    // Same-thread spans must nest by containment.
    const EPS: f64 = 1e-6;
    for (tid, spans) in &mut spans_per_tid {
        spans.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap()
                .then(b.1.partial_cmp(&a.1).unwrap())
        });
        let mut stack: Vec<f64> = Vec::new();
        for &(start, end) in spans.iter() {
            while stack.last().is_some_and(|&top| top <= start + EPS) {
                stack.pop();
            }
            if let Some(&top) = stack.last() {
                if end > top + EPS {
                    return Err(format!(
                        "tid {tid}: span [{start}, {end}] partially overlaps \
                         an enclosing span ending at {top}"
                    ));
                }
            }
            stack.push(end);
        }
    }
    Ok(xcount)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_newest_events() {
        let mut r = Ring::new(16);
        for i in 0..40u64 {
            r.push(Event {
                name: "e",
                ts_ns: i,
                dur_ns: 0,
                args: ArgBuf::default(),
            });
        }
        let ordered = r.in_order();
        assert_eq!(ordered.len(), 16);
        assert_eq!(ordered.first().map(|e| e.ts_ns), Some(24));
        assert_eq!(ordered.last().map(|e| e.ts_ns), Some(39));
        assert_eq!(r.dropped(), 24);
    }

    #[test]
    fn ns_formatting_preserves_nanoseconds() {
        assert_eq!(ns_as_us(0), "0.000");
        assert_eq!(ns_as_us(1), "0.001");
        assert_eq!(ns_as_us(1500), "1.500");
        assert_eq!(ns_as_us(12_345_678), "12345.678");
    }

    #[test]
    fn validator_rejects_partial_overlap() {
        let bad = r#"{"traceEvents":[
            {"name":"a","ph":"X","pid":1,"tid":1,"ts":0,"dur":10},
            {"name":"b","ph":"X","pid":1,"tid":1,"ts":5,"dur":10}
        ]}"#;
        assert!(validate_chrome_trace(bad).is_err());
        let good = r#"{"traceEvents":[
            {"name":"a","ph":"X","pid":1,"tid":1,"ts":0,"dur":10},
            {"name":"b","ph":"X","pid":1,"tid":1,"ts":2,"dur":3},
            {"name":"c","ph":"X","pid":1,"tid":1,"ts":6,"dur":4},
            {"name":"d","ph":"X","pid":1,"tid":2,"ts":5,"dur":10}
        ]}"#;
        assert_eq!(validate_chrome_trace(good), Ok(4));
    }

    /// A Chrome-trace document in the exporter's layout: one metadata
    /// event, then `(name, tid, ts_ns, dur_ns)` complete events.
    fn synthetic_trace(events: &[(&str, u32, u64, u64)]) -> String {
        let mut doc = String::from(
            r#"{"traceEvents":[
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"cmam"}}"#,
        );
        for (i, &(name, tid, ts, dur)) in events.iter().enumerate() {
            doc.push_str(&format!(
                ",\n{{\"name\":\"{}\",\"cat\":\"cmam\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
                 \"ts\":{},\"dur\":{},\"args\":{{\"i\":{i}}}}}",
                json_escape(name),
                ns_as_us(ts),
                ns_as_us(dur),
            ));
        }
        doc.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        doc
    }

    #[test]
    fn validator_accepts_a_large_synthetic_trace() {
        // 20,001 complete events on two threads: one root span on thread
        // 1 holding 10,000 disjoint children with multibyte names, and
        // 10,000 back-to-back spans on thread 2.
        let mut events = vec![("root", 1, 0, 100_000_000)];
        for i in 0..10_000u64 {
            events.push((
                "m\u{e4}p_bl\u{f6}ck \u{2192} \u{1f680}",
                1,
                10 + i * 9_000,
                8_000,
            ));
            events.push(("simulate \"q\"", 2, i * 9_000, 9_000));
        }
        let doc = synthetic_trace(&events);
        assert!(doc.len() > 2_000_000);
        assert_eq!(validate_chrome_trace(&doc), Ok(20_001));
        // One child overhanging the root breaks the nesting.
        events.push(("late", 1, 99_999_000, 5_000));
        let err = validate_chrome_trace(&synthetic_trace(&events)).unwrap_err();
        assert!(err.contains("partially overlaps"), "{err}");
    }

    #[test]
    fn validator_checks_metadata_shape() {
        let bad = r#"{"traceEvents":[{"name":"thread_name","ph":"M","pid":1,"tid":1}]}"#;
        assert!(validate_chrome_trace(bad).is_err());
    }
}
