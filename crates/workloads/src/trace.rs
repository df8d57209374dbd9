//! The `gemini-trace-v1` workload trace format: record and replay.
//!
//! A trace is a self-describing JSON Lines document. Line 1 is a JSON
//! object header naming the format, its version, the (already scaled)
//! workload model the events realize, and the run parameters needed to
//! reproduce the machine (`ops`, `seed`, plus `scale`/`fragmented`
//! hints for the CLI). Every following line is one compact JSON array
//! mirroring a [`WorkloadEvent`]:
//!
//! ```text
//! {"format":"gemini-trace-v1","version":1,"workload":"Redis",...}
//! ["A",0,16777216]     Alloc   { chunk: 0, bytes: 16777216 }
//! ["F",0]              Free    { chunk: 0 }
//! ["T",2,411]          Touch   { chunk: 2, page: 411 }
//! ["E",3000]           EndRequest { cpu: 3000 }
//! [".",123456]         end marker carrying the event count
//! ```
//!
//! The end marker makes truncation detectable: a reader that hits EOF
//! without seeing `["."​,n]`, or whose event count disagrees with `n`,
//! reports a typed [`SimError::BadTrace`] instead of silently replaying
//! a shorter run. Unknown versions are refused with
//! [`SimError::TraceVersion`] — version bumps are reserved for
//! incompatible record changes; compatible extensions (new *optional*
//! header fields) do not bump the version and readers must ignore
//! header keys they do not understand.
//!
//! Readers stream: [`TraceStream`] decodes one line at a time from any
//! [`BufRead`] (a file, stdin, or an in-memory buffer) and holds only
//! the current line — memory stays bounded for traces larger than RAM.
//! Writers tee: [`TeeStream`] wraps any live [`EventStream`] and writes
//! each event as the simulator pulls it, so recording a run costs one
//! formatted line per event and nothing is ever materialized.
//!
//! Replay is invisible to simulation by construction: generation is
//! machine-state-independent (the [`EventStream`] contract), so a
//! recorded stream drives a machine through exactly the trajectory the
//! live generator would have — the parity suite (`tests/trace_replay.rs`)
//! proves byte-identical `RunResult`s across the whole scenario
//! registry.
//!
//! The header's `seed` is serialized as a *decimal string*, not a JSON
//! number: seeds span the full `u64` range and JSON numbers round-trip
//! through `f64`, which silently loses integers above 2^53.

use crate::gen::{EventStream, WorkloadEvent};
use crate::spec::{spec_by_name, AccessSkew, AllocPattern, WorkloadSpec};
use gemini_obs::jsonread::{self, Value};
use gemini_obs::{json_f64, json_str};
use gemini_sim_core::{Result, SimError};
use std::io::{BufRead, Write};

/// The format tag every `gemini-trace-v1` header must carry.
pub const TRACE_FORMAT: &str = "gemini-trace-v1";

/// The newest trace format version this build reads and writes.
pub const TRACE_VERSION: u64 = 1;

/// The self-describing first line of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceHeader {
    /// The workload model the recorded events realize, *after* scale
    /// factors were applied — replay uses it verbatim, never re-scales.
    pub spec: WorkloadSpec,
    /// Name of the scale preset the recording ran at (`quick`, `demo`,
    /// `bench`, `full`). A hint for the CLI: replay defaults its
    /// machine sizing to this preset unless `--scale` overrides it.
    pub scale: String,
    /// Whether the recording machine was pre-fragmented; the same kind
    /// of hint as `scale`.
    pub fragmented: bool,
    /// Operations the recorded run targeted.
    pub ops: u64,
    /// Seed of the recorded run; replay seeds the machine with it.
    pub seed: u64,
}

impl TraceHeader {
    /// Serializes the header as its one-line JSON form.
    pub fn to_json_line(&self) -> String {
        let s = &self.spec;
        let mut out = format!(
            concat!(
                "{{\"format\":{},\"version\":{},\"workload\":{},",
                "\"scale\":{},\"fragmented\":{},\"ops\":{},\"seed\":{},",
                "\"working_set\":{}"
            ),
            json_str(TRACE_FORMAT),
            TRACE_VERSION,
            json_str(s.name),
            json_str(&self.scale),
            self.fragmented,
            self.ops,
            json_str(&self.seed.to_string()),
            s.working_set,
        );
        match s.alloc {
            AllocPattern::Static => out.push_str(",\"alloc\":\"static\""),
            AllocPattern::Gradual { chunk } => {
                out.push_str(&format!(",\"alloc\":\"gradual\",\"chunk\":{chunk}"));
            }
        }
        match s.skew {
            AccessSkew::Uniform => out.push_str(",\"skew\":\"uniform\""),
            AccessSkew::Sequential => out.push_str(",\"skew\":\"sequential\""),
            AccessSkew::Zipf(e) => {
                out.push_str(&format!(
                    ",\"skew\":\"zipf\",\"zipf_exponent\":{}",
                    json_f64(e)
                ));
            }
        }
        out.push_str(&format!(
            concat!(
                ",\"churn_period\":{},\"accesses_per_op\":{},\"cpu_per_op\":{},",
                "\"latency_tracked\":{},\"zero_heavy\":{},\"tlb_sensitive\":{}}}"
            ),
            s.churn_period,
            s.accesses_per_op,
            s.cpu_per_op,
            s.latency_tracked,
            s.zero_heavy,
            s.tlb_sensitive,
        ));
        out
    }

    /// Parses a header line. Malformed JSON, a wrong format tag or a
    /// missing field is [`SimError::BadTrace`]; a version this build
    /// does not know is [`SimError::TraceVersion`].
    pub fn parse(line: &str) -> Result<TraceHeader> {
        let bad = |reason: String| SimError::BadTrace { line: 1, reason };
        let v = jsonread::parse(line).map_err(|e| bad(format!("header is not JSON: {e}")))?;
        let format = v
            .get("format")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("header has no \"format\" field".into()))?;
        if format != TRACE_FORMAT {
            return Err(bad(format!(
                "format is {format:?}, expected {TRACE_FORMAT:?}"
            )));
        }
        let version = v
            .get("version")
            .and_then(Value::as_u64)
            .ok_or_else(|| bad("header has no integer \"version\" field".into()))?;
        if version != TRACE_VERSION {
            return Err(SimError::TraceVersion {
                found: version,
                supported: TRACE_VERSION,
            });
        }
        let str_field = |key: &str| -> Result<&str> {
            v.get(key)
                .and_then(Value::as_str)
                .ok_or_else(|| bad(format!("header field {key:?} missing or not a string")))
        };
        let u64_field = |key: &str| -> Result<u64> {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| bad(format!("header field {key:?} missing or not an integer")))
        };
        let bool_field = |key: &str| -> Result<bool> {
            v.get(key)
                .and_then(Value::as_bool)
                .ok_or_else(|| bad(format!("header field {key:?} missing or not a bool")))
        };
        let name = str_field("workload")?;
        let alloc = match str_field("alloc")? {
            "static" => AllocPattern::Static,
            "gradual" => AllocPattern::Gradual {
                chunk: u64_field("chunk")?,
            },
            other => return Err(bad(format!("unknown alloc pattern {other:?}"))),
        };
        let skew = match str_field("skew")? {
            "uniform" => AccessSkew::Uniform,
            "sequential" => AccessSkew::Sequential,
            "zipf" => AccessSkew::Zipf(
                v.get("zipf_exponent")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| bad("zipf skew needs a \"zipf_exponent\" number".into()))?,
            ),
            other => return Err(bad(format!("unknown access skew {other:?}"))),
        };
        let seed: u64 = str_field("seed")?
            .parse()
            .map_err(|e| bad(format!("seed is not a u64 decimal string: {e}")))?;
        let accesses_per_op = u64_field("accesses_per_op")?;
        let spec = WorkloadSpec {
            name: static_name(name),
            working_set: u64_field("working_set")?,
            alloc,
            skew,
            churn_period: u64_field("churn_period")?,
            accesses_per_op: u32::try_from(accesses_per_op)
                .map_err(|_| bad(format!("accesses_per_op {accesses_per_op} exceeds u32")))?,
            cpu_per_op: u64_field("cpu_per_op")?,
            latency_tracked: bool_field("latency_tracked")?,
            zero_heavy: bool_field("zero_heavy")?,
            tlb_sensitive: bool_field("tlb_sensitive")?,
        };
        Ok(TraceHeader {
            spec,
            scale: str_field("scale")?.to_string(),
            fragmented: bool_field("fragmented")?,
            ops: u64_field("ops")?,
            seed,
        })
    }
}

/// Resolves a workload name to the `&'static str` [`WorkloadSpec`]
/// requires. Catalog workloads resolve to their catalog name; an
/// externally-defined name (a production trace) is interned by leaking
/// — one small allocation per distinct name per process, the standard
/// cost of a `&'static str` API meeting runtime data.
fn static_name(name: &str) -> &'static str {
    match spec_by_name(name) {
        Some(s) => s.name,
        None => Box::leak(name.to_string().into_boxed_str()),
    }
}

/// Formats one event as its compact record line (no newline).
pub fn event_record(ev: &WorkloadEvent) -> String {
    match *ev {
        WorkloadEvent::Alloc { chunk, bytes } => format!("[\"A\",{chunk},{bytes}]"),
        WorkloadEvent::Free { chunk } => format!("[\"F\",{chunk}]"),
        WorkloadEvent::Touch { chunk, page } => format!("[\"T\",{chunk},{page}]"),
        WorkloadEvent::EndRequest { cpu } => format!("[\"E\",{cpu}]"),
    }
}

/// One decoded record line.
enum Record {
    Event(WorkloadEvent),
    End { count: u64 },
}

/// Decodes one record line (already stripped of its newline). The
/// format is the canonical encoding [`event_record`] emits — a strict
/// reader keeps malformed input loud instead of guessing.
fn parse_record(line: &str) -> core::result::Result<Record, String> {
    let inner = line
        .strip_prefix("[\"")
        .ok_or("expected a [\"tag\",...] event record")?;
    let (tag, rest) = inner
        .split_once('"')
        .ok_or("unterminated record tag string")?;
    let rest = rest
        .strip_suffix(']')
        .ok_or("record does not end with ']'")?;
    let mut nums = [0u64; 2];
    let mut n = 0;
    for part in rest.split(',').skip(1) {
        if n >= nums.len() {
            return Err("too many fields in record".into());
        }
        nums[n] = part
            .parse()
            .map_err(|e| format!("bad number {part:?} in record: {e}"))?;
        n += 1;
    }
    if !rest.is_empty() && !rest.starts_with(',') {
        return Err("expected ',' after record tag".into());
    }
    let arity = |want: usize| -> core::result::Result<(), String> {
        if n == want {
            Ok(())
        } else {
            Err(format!("tag {tag:?} takes {want} field(s), got {n}"))
        }
    };
    match tag {
        "A" => {
            arity(2)?;
            Ok(Record::Event(WorkloadEvent::Alloc {
                chunk: nums[0] as usize,
                bytes: nums[1],
            }))
        }
        "F" => {
            arity(1)?;
            Ok(Record::Event(WorkloadEvent::Free {
                chunk: nums[0] as usize,
            }))
        }
        "T" => {
            arity(2)?;
            Ok(Record::Event(WorkloadEvent::Touch {
                chunk: nums[0] as usize,
                page: nums[1],
            }))
        }
        "E" => {
            arity(1)?;
            Ok(Record::Event(WorkloadEvent::EndRequest { cpu: nums[0] }))
        }
        "." => {
            arity(1)?;
            Ok(Record::End { count: nums[0] })
        }
        other => Err(format!("unknown record tag {other:?}")),
    }
}

/// Writes a trace: the header up front, one record per event, and the
/// counted end marker on [`TraceWriter::finish`]. Wrap the sink in a
/// `BufWriter` — the writer emits one small `write!` per event.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    events: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Creates the writer and writes the header line.
    pub fn new(mut out: W, header: &TraceHeader) -> std::io::Result<Self> {
        writeln!(out, "{}", header.to_json_line())?;
        Ok(Self { out, events: 0 })
    }

    /// Appends one event record.
    pub fn write_event(&mut self, ev: &WorkloadEvent) -> std::io::Result<()> {
        self.events += 1;
        match *ev {
            WorkloadEvent::Alloc { chunk, bytes } => {
                writeln!(self.out, "[\"A\",{chunk},{bytes}]")
            }
            WorkloadEvent::Free { chunk } => writeln!(self.out, "[\"F\",{chunk}]"),
            WorkloadEvent::Touch { chunk, page } => {
                writeln!(self.out, "[\"T\",{chunk},{page}]")
            }
            WorkloadEvent::EndRequest { cpu } => writeln!(self.out, "[\"E\",{cpu}]"),
        }
    }

    /// Writes the end marker, flushes, and returns the sink and the
    /// event count.
    pub fn finish(mut self) -> std::io::Result<(W, u64)> {
        writeln!(self.out, "[\".\",{}]", self.events)?;
        self.out.flush()?;
        Ok((self.out, self.events))
    }
}

/// Tees a live [`EventStream`] into a [`TraceWriter`]: every event the
/// simulator pulls is also appended to the trace, so a recording run
/// *is* the live run — same stream, same trajectory, one extra line of
/// I/O per event.
///
/// `next_event` cannot surface I/O errors (the [`EventStream`]
/// contract has no error channel), so a failed write is stashed,
/// writing stops, and the error is returned — typed — from
/// [`TeeStream::finish`]. The simulation itself always completes.
#[derive(Debug)]
pub struct TeeStream<S: EventStream, W: Write> {
    inner: S,
    writer: Option<TraceWriter<W>>,
    io_error: Option<std::io::Error>,
}

impl<S: EventStream, W: Write> TeeStream<S, W> {
    /// Wraps `inner`, recording into `writer`.
    pub fn new(inner: S, writer: TraceWriter<W>) -> Self {
        Self {
            inner,
            writer: Some(writer),
            io_error: None,
        }
    }

    /// Writes the end marker and returns the event count, or the first
    /// I/O error encountered while recording.
    pub fn finish(self) -> Result<u64> {
        if let Some(e) = self.io_error {
            return Err(SimError::TraceIo {
                detail: e.to_string(),
            });
        }
        let writer = self
            .writer
            .expect("writer present unless an error was stashed");
        let (_, events) = writer.finish().map_err(|e| SimError::TraceIo {
            detail: e.to_string(),
        })?;
        Ok(events)
    }
}

impl<S: EventStream, W: Write> EventStream for TeeStream<S, W> {
    fn spec(&self) -> &WorkloadSpec {
        self.inner.spec()
    }

    fn next_event(&mut self) -> Option<WorkloadEvent> {
        let ev = self.inner.next_event()?;
        if let Some(w) = &mut self.writer {
            if let Err(e) = w.write_event(&ev) {
                self.io_error = Some(e);
                self.writer = None;
            }
        }
        Some(ev)
    }
}

/// Decode state of a [`TraceStream`].
#[derive(Debug)]
enum StreamState {
    /// Still decoding records.
    Streaming,
    /// The end marker was seen and verified.
    Done,
    /// Decoding failed; the error is replayed by `check_complete`.
    Failed(SimError),
}

/// A streaming `gemini-trace-v1` reader: an [`EventStream`] that
/// decodes incrementally from any [`BufRead`], holding only the current
/// line in memory.
///
/// The [`EventStream`] contract has no error channel, so a decode
/// failure ends the stream (`next_event` returns `None`) and is
/// *latched*: callers must ask [`TraceStream::check_complete`] after
/// the run whether the stream ended at a verified end marker or died
/// on malformed/truncated input. The replay runner does exactly that,
/// turning a damaged trace into a typed [`SimError`] instead of a
/// silently shorter run.
#[derive(Debug)]
pub struct TraceStream<R: BufRead> {
    header: TraceHeader,
    reader: R,
    buf: String,
    /// 1-based line number of the last line read (header = line 1).
    line: u64,
    events: u64,
    state: StreamState,
}

impl<R: BufRead> TraceStream<R> {
    /// Reads and validates the header; the stream is then ready to
    /// decode events.
    pub fn new(mut reader: R) -> Result<Self> {
        let mut buf = String::new();
        match reader.read_line(&mut buf) {
            Err(e) => {
                return Err(SimError::TraceIo {
                    detail: e.to_string(),
                })
            }
            Ok(0) => {
                return Err(SimError::BadTrace {
                    line: 1,
                    reason: "empty input: missing trace header".into(),
                })
            }
            Ok(_) => {}
        }
        let header = TraceHeader::parse(buf.trim_end_matches(['\n', '\r']))?;
        Ok(Self {
            header,
            reader,
            buf,
            line: 1,
            events: 0,
            state: StreamState::Streaming,
        })
    }

    /// The parsed header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Events decoded so far.
    pub fn events_read(&self) -> u64 {
        self.events
    }

    /// Whether the stream ended cleanly: `Ok` only after the counted
    /// end marker was seen, the count matched, and nothing but
    /// whitespace followed. A latched decode failure is returned here;
    /// a stream that was not fully drained is an error too (the run
    /// that consumed it stopped early, so the trace was not verified).
    pub fn check_complete(&self) -> Result<()> {
        match &self.state {
            StreamState::Done => Ok(()),
            StreamState::Failed(e) => Err(e.clone()),
            StreamState::Streaming => Err(SimError::BadTrace {
                line: self.line,
                reason: "trace not fully consumed: end marker not reached".into(),
            }),
        }
    }

    fn fail(&mut self, reason: String) -> Option<WorkloadEvent> {
        self.state = StreamState::Failed(SimError::BadTrace {
            line: self.line,
            reason,
        });
        None
    }

    /// After the end marker, only trailing whitespace is allowed.
    fn verify_eof(&mut self) -> Option<WorkloadEvent> {
        loop {
            self.buf.clear();
            match self.reader.read_line(&mut self.buf) {
                Err(e) => {
                    self.state = StreamState::Failed(SimError::TraceIo {
                        detail: e.to_string(),
                    });
                    return None;
                }
                Ok(0) => {
                    self.state = StreamState::Done;
                    return None;
                }
                Ok(_) => {
                    self.line += 1;
                    if !self.buf.trim().is_empty() {
                        return self.fail("trailing data after end marker".into());
                    }
                }
            }
        }
    }
}

impl<R: BufRead> EventStream for TraceStream<R> {
    fn spec(&self) -> &WorkloadSpec {
        &self.header.spec
    }

    fn next_event(&mut self) -> Option<WorkloadEvent> {
        if !matches!(self.state, StreamState::Streaming) {
            return None;
        }
        self.buf.clear();
        match self.reader.read_line(&mut self.buf) {
            Err(e) => {
                self.state = StreamState::Failed(SimError::TraceIo {
                    detail: e.to_string(),
                });
                return None;
            }
            Ok(0) => {
                self.line += 1;
                return self.fail("unexpected end of input: trace has no end marker".into());
            }
            Ok(_) => self.line += 1,
        }
        let line = self.buf.trim_end_matches(['\n', '\r']);
        match parse_record(line) {
            Err(reason) => self.fail(reason),
            Ok(Record::End { count }) => {
                if count != self.events {
                    return self.fail(format!(
                        "end marker counts {count} events but {} were read",
                        self.events
                    ));
                }
                self.verify_eof()
            }
            Ok(Record::Event(ev)) => {
                self.events += 1;
                Some(ev)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WorkloadGen;
    use std::io::Cursor;

    fn demo_header() -> TraceHeader {
        TraceHeader {
            spec: spec_by_name("Redis").unwrap().scaled(1.0 / 16.0),
            scale: "quick".into(),
            fragmented: true,
            ops: 500,
            seed: 0x9E37_79B9_7F4A_7C15, // Above 2^53: exercises string encoding.
        }
    }

    #[test]
    fn header_round_trips() {
        let h = demo_header();
        let parsed = TraceHeader::parse(&h.to_json_line()).unwrap();
        assert_eq!(parsed, h);
        // Static alloc + uniform skew variant.
        let h2 = TraceHeader {
            spec: spec_by_name("Canneal").unwrap(),
            scale: "demo".into(),
            fragmented: false,
            ops: 8_000,
            seed: 42,
        };
        assert_eq!(TraceHeader::parse(&h2.to_json_line()).unwrap(), h2);
        // Sequential skew variant.
        let h3 = TraceHeader {
            spec: spec_by_name("Streamcluster").unwrap(),
            ..h2
        };
        assert_eq!(TraceHeader::parse(&h3.to_json_line()).unwrap(), h3);
    }

    #[test]
    fn header_rejects_wrong_format_version_and_missing_fields() {
        assert!(matches!(
            TraceHeader::parse("not json at all"),
            Err(SimError::BadTrace { line: 1, .. })
        ));
        assert!(matches!(
            TraceHeader::parse(r#"{"format":"other-trace","version":1}"#),
            Err(SimError::BadTrace { line: 1, .. })
        ));
        let future = demo_header()
            .to_json_line()
            .replace("\"version\":1", "\"version\":2");
        assert_eq!(
            TraceHeader::parse(&future),
            Err(SimError::TraceVersion {
                found: 2,
                supported: 1
            })
        );
        let no_seed = demo_header()
            .to_json_line()
            .replace(",\"seed\":\"11400714819323198485\"", "");
        assert!(matches!(
            TraceHeader::parse(&no_seed),
            Err(SimError::BadTrace { line: 1, .. })
        ));
    }

    #[test]
    fn event_records_round_trip() {
        let events = [
            WorkloadEvent::Alloc {
                chunk: 3,
                bytes: 1 << 24,
            },
            WorkloadEvent::Free { chunk: 3 },
            WorkloadEvent::Touch {
                chunk: 0,
                page: u64::MAX,
            },
            WorkloadEvent::EndRequest { cpu: 12_000 },
        ];
        for ev in &events {
            match parse_record(&event_record(ev)).unwrap() {
                Record::Event(back) => assert_eq!(back, *ev),
                Record::End { .. } => panic!("not an end marker"),
            }
        }
        match parse_record("[\".\",42]").unwrap() {
            Record::End { count } => assert_eq!(count, 42),
            Record::Event(_) => panic!("end marker"),
        }
    }

    #[test]
    fn malformed_records_are_rejected() {
        for bad in [
            "",
            "[",
            "plain text",
            "[\"A\"]",       // wrong arity
            "[\"A\",1]",     // wrong arity
            "[\"A\",1,2,3]", // too many fields
            "[\"T\",1,2",    // unterminated
            "[\"Z\",1]",     // unknown tag
            "[\"A\",1,-2]",  // negative number
            "[\"A\",1,2.5]", // non-integer
            "[\"A\",x,2]",   // garbage number
            "{\"T\":1}",     // object, not array
            "[\"A\"1,2]",    // missing comma
            "[\".\",1,2]",   // end marker arity
        ] {
            assert!(parse_record(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn tee_then_stream_reproduces_the_generator() {
        let h = demo_header();
        let gen = WorkloadGen::new(h.spec.clone(), h.ops, h.seed);
        let expect: Vec<_> = WorkloadGen::new(h.spec.clone(), h.ops, h.seed).collect();
        let writer = TraceWriter::new(Vec::new(), &h).unwrap();
        let mut tee = TeeStream::new(gen, writer);
        let mut seen = Vec::new();
        while let Some(ev) = tee.next_event() {
            seen.push(ev);
        }
        assert_eq!(seen, expect, "tee is transparent");
        // finish() consumes the tee; grab the bytes through the writer
        // by re-recording (the writer was moved into the tee).
        let writer2 = TraceWriter::new(Vec::new(), &h).unwrap();
        let mut tee2 = TeeStream::new(WorkloadGen::new(h.spec.clone(), h.ops, h.seed), writer2);
        while tee2.next_event().is_some() {}
        // Bytes equality between two recordings of the same run.
        let n = tee2.finish().unwrap();
        assert_eq!(n as usize, expect.len());
        // And a full write → read cycle.
        let mut w = TraceWriter::new(Vec::new(), &h).unwrap();
        for ev in &expect {
            w.write_event(ev).unwrap();
        }
        let (bytes, n) = w.finish().unwrap();
        assert_eq!(n as usize, expect.len());
        let mut stream = TraceStream::new(Cursor::new(&bytes)).unwrap();
        assert_eq!(stream.header(), &h);
        assert_eq!(stream.spec().name, "Redis");
        let mut replayed = Vec::new();
        while let Some(ev) = stream.next_event() {
            replayed.push(ev);
        }
        assert_eq!(replayed, expect);
        stream.check_complete().unwrap();
        assert_eq!(stream.events_read(), n);
    }

    #[test]
    fn truncation_and_damage_latch_typed_errors() {
        let h = demo_header();
        let mut w = TraceWriter::new(Vec::new(), &h).unwrap();
        let events: Vec<_> = WorkloadGen::new(h.spec.clone(), 50, 7).collect();
        for ev in &events {
            w.write_event(ev).unwrap();
        }
        let (bytes, _) = w.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let drain = |input: String| -> Result<()> {
            let mut s = TraceStream::new(Cursor::new(input.into_bytes()))?;
            while s.next_event().is_some() {}
            s.check_complete()
        };
        // Cut at any line boundary before the end: missing end marker.
        let lines: Vec<&str> = text.lines().collect();
        let cut = lines[..lines.len() - 3].join("\n");
        assert!(matches!(drain(cut), Err(SimError::BadTrace { .. })));
        // Cut mid-line: malformed record.
        let mid = text[..text.len() * 2 / 3].to_string();
        assert!(matches!(drain(mid), Err(SimError::BadTrace { .. })));
        // Wrong end-marker count.
        let miscounted = text.replace(
            &format!("[\".\",{}]", events.len()),
            &format!("[\".\",{}]", events.len() + 1),
        );
        let err = drain(miscounted).unwrap_err();
        assert!(err.to_string().contains("end marker counts"), "{err}");
        // Trailing junk after the end marker.
        let trailing = format!("{text}[\"E\",1]\n");
        let err = drain(trailing).unwrap_err();
        assert!(err.to_string().contains("trailing data"), "{err}");
        // Garbage mid-file (line numbers surface in the error).
        let mut damaged: Vec<&str> = text.lines().collect();
        damaged[10] = "■ garbage ■";
        let err = drain(damaged.join("\n")).unwrap_err();
        assert!(matches!(err, SimError::BadTrace { line: 11, .. }), "{err}");
        // Trailing blank lines are fine.
        let padded = format!("{text}\n\n");
        drain(padded).unwrap();
        // Empty input.
        assert!(matches!(
            TraceStream::new(Cursor::new(Vec::new())),
            Err(SimError::BadTrace { line: 1, .. })
        ));
    }

    #[test]
    fn unknown_workload_names_are_interned() {
        let line = demo_header()
            .to_json_line()
            .replace("\"workload\":\"Redis\"", "\"workload\":\"ProdService-7\"");
        let h = TraceHeader::parse(&line).unwrap();
        assert_eq!(h.spec.name, "ProdService-7");
        // Catalog names resolve to the catalog's static string.
        let h2 = TraceHeader::parse(&demo_header().to_json_line()).unwrap();
        assert_eq!(h2.spec.name, "Redis");
    }

    #[test]
    fn undrained_stream_is_incomplete() {
        let h = demo_header();
        let mut w = TraceWriter::new(Vec::new(), &h).unwrap();
        for ev in WorkloadGen::new(h.spec.clone(), 20, 3) {
            w.write_event(&ev).unwrap();
        }
        let (bytes, _) = w.finish().unwrap();
        let mut s = TraceStream::new(Cursor::new(bytes)).unwrap();
        s.next_event().unwrap();
        let err = s.check_complete().unwrap_err();
        assert!(err.to_string().contains("not fully consumed"), "{err}");
    }
}
