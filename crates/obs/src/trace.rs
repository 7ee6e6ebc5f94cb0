//! Structured NDJSON trace events with a versioned schema and a bounded
//! ring buffer for long runs.
//!
//! One [`TraceEvent`] is one NDJSON line: a flat JSON object whose
//! reserved keys are `schema` (always [`TRACE_SCHEMA`]), `kind`, `cell`,
//! `cycle` and optionally `core`, followed by event-specific numeric
//! fields. Keeping the object flat means the hand-rolled validator
//! ([`validate_line`]) can fully parse every line — strings and unsigned
//! integers only, no nesting — which is what the CI trace gate runs over
//! the harness's emitted file.

use std::fmt::Write as _;

/// The trace schema identifier carried by every emitted line. Bump the
/// suffix when the line format changes incompatibly.
pub const TRACE_SCHEMA: &str = "dhtm-trace-v1";

/// Default ring-buffer capacity of a [`TraceWriter`]: enough for every
/// event of a quick-mode matrix, bounded for paper-scale runs.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// One structured trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event kind: `begin`, `commit`, `abort`, `durable`, `probes` or
    /// `run_end` (`crash_point` stays reserved by the schema but is no
    /// longer emitted).
    pub kind: String,
    /// The run/cell label the event belongs to (experiment cell
    /// coordinates, spec label, ...).
    pub cell: String,
    /// The core the event happened on, when it is core-attributed.
    pub core: Option<usize>,
    /// Simulated cycle of the event.
    pub cycle: u64,
    /// Event-specific numeric fields, emitted in the given order.
    pub fields: Vec<(String, u64)>,
}

impl TraceEvent {
    /// A new event with no extra fields.
    pub fn new(kind: impl Into<String>, cell: impl Into<String>, cycle: u64) -> Self {
        TraceEvent {
            kind: kind.into(),
            cell: cell.into(),
            core: None,
            cycle,
            fields: Vec::new(),
        }
    }

    /// Sets the core attribution (builder-style).
    pub fn on_core(mut self, core: usize) -> Self {
        self.core = Some(core);
        self
    }

    /// Appends a numeric field (builder-style).
    pub fn field(mut self, name: impl Into<String>, value: u64) -> Self {
        self.fields.push((name.into(), value));
        self
    }

    /// Renders the event as one NDJSON line (no trailing newline).
    pub fn to_ndjson(&self) -> String {
        let mut out = String::with_capacity(96 + self.fields.len() * 24);
        let _ = write!(
            out,
            "{{\"schema\":\"{TRACE_SCHEMA}\",\"kind\":\"{}\",\"cell\":\"{}\"",
            escape(&self.kind),
            escape(&self.cell),
        );
        if let Some(core) = self.core {
            let _ = write!(out, ",\"core\":{core}");
        }
        let _ = write!(out, ",\"cycle\":{}", self.cycle);
        for (name, value) in &self.fields {
            let _ = write!(out, ",\"{}\":{value}", escape(name));
        }
        out.push('}');
        out
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A bounded ring buffer of trace events rendered to NDJSON on demand.
///
/// Long runs emit far more events than anyone replays; the writer keeps the
/// most recent `capacity` events and counts what it dropped, so the memory
/// bound is fixed no matter how long the simulation runs.
#[derive(Debug, Clone)]
pub struct TraceWriter {
    capacity: usize,
    events: std::collections::VecDeque<TraceEvent>,
    seen: u64,
    dropped: u64,
}

impl Default for TraceWriter {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceWriter {
    /// A writer retaining at most `capacity` events (oldest dropped first).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        TraceWriter {
            capacity,
            events: std::collections::VecDeque::new(),
            seen: 0,
            dropped: 0,
        }
    }

    /// Records one event, dropping the oldest retained event when full.
    pub fn record(&mut self, event: TraceEvent) {
        self.seen += 1;
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no event is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events ever recorded (retained + dropped).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Events dropped by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Renders every retained event as NDJSON lines, oldest first.
    pub fn lines(&self) -> Vec<String> {
        self.events.iter().map(TraceEvent::to_ndjson).collect()
    }
}

/// A scalar value parsed back from a trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceScalar {
    /// A JSON string.
    Str(String),
    /// A JSON unsigned integer.
    UInt(u64),
}

/// Parses one flat trace-line JSON object into `(key, value)` pairs in
/// source order. Accepts exactly the subset [`TraceEvent::to_ndjson`]
/// emits: one object of string keys mapping to strings or unsigned
/// integers, no nesting, no trailing garbage.
///
/// # Errors
///
/// Returns a message locating the first malformed construct.
pub fn parse_line(line: &str) -> Result<Vec<(String, TraceScalar)>, String> {
    let mut chars = line.trim().char_indices().peekable();
    let mut pairs = Vec::new();

    let expect = |chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
                  want: char|
     -> Result<(), String> {
        match chars.next() {
            Some((_, c)) if c == want => Ok(()),
            Some((i, c)) => Err(format!("expected '{want}' at byte {i}, found '{c}'")),
            None => Err(format!("expected '{want}', found end of line")),
        }
    };

    fn parse_string(
        chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
    ) -> Result<String, String> {
        match chars.next() {
            Some((_, '"')) => {}
            other => return Err(format!("expected string, found {other:?}")),
        }
        let mut out = String::new();
        loop {
            match chars.next() {
                Some((_, '"')) => return Ok(out),
                Some((i, '\\')) => match chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'u')) => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let (j, d) = chars
                                .next()
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            code = code * 16
                                + d.to_digit(16)
                                    .ok_or_else(|| format!("bad hex digit at byte {j}"))?;
                        }
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("invalid \\u code point {code:#x}"))?,
                        );
                    }
                    other => return Err(format!("bad escape at byte {i}: {other:?}")),
                },
                Some((i, c)) if (c as u32) < 0x20 => {
                    return Err(format!("unescaped control character at byte {i}"))
                }
                Some((_, c)) => out.push(c),
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn parse_uint(
        chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
    ) -> Result<u64, String> {
        let mut value: u64 = 0;
        let mut digits = 0;
        while let Some(&(_, c)) = chars.peek() {
            let Some(d) = c.to_digit(10) else { break };
            chars.next();
            value = value
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(d)))
                .ok_or_else(|| "integer overflows u64".to_string())?;
            digits += 1;
        }
        if digits == 0 {
            Err("expected an unsigned integer".to_string())
        } else {
            Ok(value)
        }
    }

    expect(&mut chars, '{')?;
    loop {
        let key = parse_string(&mut chars)?;
        expect(&mut chars, ':')?;
        let value = match chars.peek() {
            Some((_, '"')) => TraceScalar::Str(parse_string(&mut chars)?),
            Some((_, c)) if c.is_ascii_digit() => TraceScalar::UInt(parse_uint(&mut chars)?),
            other => {
                return Err(format!(
                    "expected string or unsigned integer, found {other:?}"
                ))
            }
        };
        pairs.push((key, value));
        match chars.next() {
            Some((_, ',')) => continue,
            Some((_, '}')) => break,
            other => return Err(format!("expected ',' or '}}', found {other:?}")),
        }
    }
    if let Some((i, c)) = chars.next() {
        return Err(format!("trailing garbage '{c}' at byte {i}"));
    }
    Ok(pairs)
}

/// Validates one NDJSON trace line against [`TRACE_SCHEMA`]: the line must
/// parse as a flat object, carry `schema == dhtm-trace-v1`, a non-empty
/// string `kind`, a string `cell`, an unsigned `cycle`, an unsigned `core`
/// if present, and nothing but unsigned integers elsewhere.
///
/// # Errors
///
/// Returns a message naming the violated constraint.
pub fn validate_line(line: &str) -> Result<(), String> {
    let pairs = parse_line(line)?;
    let get = |key: &str| pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    match get("schema") {
        Some(TraceScalar::Str(s)) if s == TRACE_SCHEMA => {}
        Some(TraceScalar::Str(s)) => return Err(format!("schema '{s}' != '{TRACE_SCHEMA}'")),
        _ => return Err("missing string field 'schema'".to_string()),
    }
    match get("kind") {
        Some(TraceScalar::Str(s)) if !s.is_empty() => {}
        _ => return Err("missing non-empty string field 'kind'".to_string()),
    }
    if !matches!(get("cell"), Some(TraceScalar::Str(_))) {
        return Err("missing string field 'cell'".to_string());
    }
    if !matches!(get("cycle"), Some(TraceScalar::UInt(_))) {
        return Err("missing unsigned field 'cycle'".to_string());
    }
    for (key, value) in &pairs {
        match key.as_str() {
            "schema" | "kind" | "cell" => {}
            _ if matches!(value, TraceScalar::UInt(_)) => {}
            other => return Err(format!("field '{other}' must be an unsigned integer")),
        }
    }
    Ok(())
}

/// Parses a validated line back into a [`TraceEvent`] (the inverse of
/// [`TraceEvent::to_ndjson`], used by the round-trip tests).
///
/// # Errors
///
/// Returns the first validation error.
pub fn event_from_line(line: &str) -> Result<TraceEvent, String> {
    validate_line(line)?;
    let pairs = parse_line(line)?;
    let mut event = TraceEvent::new("", "", 0);
    for (key, value) in pairs {
        match (key.as_str(), value) {
            ("schema", _) => {}
            ("kind", TraceScalar::Str(s)) => event.kind = s,
            ("cell", TraceScalar::Str(s)) => event.cell = s,
            ("core", TraceScalar::UInt(v)) => event.core = Some(v as usize),
            ("cycle", TraceScalar::UInt(v)) => event.cycle = v,
            (_, TraceScalar::UInt(v)) => event.fields.push((key, v)),
            (k, TraceScalar::Str(_)) => return Err(format!("unexpected string field '{k}'")),
        }
    }
    Ok(event)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_render_the_versioned_schema() {
        let line = TraceEvent::new("commit", "fig5/so/hash", 1234)
            .on_core(3)
            .field("committed", 7)
            .to_ndjson();
        assert_eq!(
            line,
            "{\"schema\":\"dhtm-trace-v1\",\"kind\":\"commit\",\"cell\":\"fig5/so/hash\",\
             \"core\":3,\"cycle\":1234,\"committed\":7}"
        );
        assert!(validate_line(&line).is_ok());
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let event = TraceEvent::new("abort", "cell \"x\"\n", 42)
            .on_core(0)
            .field("reason", 2)
            .field("retry_at", 99);
        let back = event_from_line(&event.to_ndjson()).unwrap();
        assert_eq!(back, event);
        // And without core attribution.
        let bare = TraceEvent::new("probes", "c", u64::MAX);
        assert_eq!(event_from_line(&bare.to_ndjson()).unwrap(), bare);
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        for (line, why) in [
            ("", "empty"),
            ("{\"kind\":\"x\"}", "no schema"),
            (
                "{\"schema\":\"dhtm-trace-v0\",\"kind\":\"x\",\"cell\":\"c\",\"cycle\":1}",
                "wrong schema version",
            ),
            (
                "{\"schema\":\"dhtm-trace-v1\",\"kind\":\"\",\"cell\":\"c\",\"cycle\":1}",
                "empty kind",
            ),
            (
                "{\"schema\":\"dhtm-trace-v1\",\"kind\":\"x\",\"cell\":\"c\"}",
                "missing cycle",
            ),
            (
                "{\"schema\":\"dhtm-trace-v1\",\"kind\":\"x\",\"cell\":\"c\",\"cycle\":-1}",
                "negative cycle",
            ),
            (
                "{\"schema\":\"dhtm-trace-v1\",\"kind\":\"x\",\"cell\":\"c\",\"cycle\":1,\"f\":\"s\"}",
                "string extra field",
            ),
            (
                "{\"schema\":\"dhtm-trace-v1\",\"kind\":\"x\",\"cell\":\"c\",\"cycle\":1}}",
                "trailing garbage",
            ),
            ("not json", "not json"),
        ] {
            assert!(validate_line(line).is_err(), "accepted {why}: {line}");
        }
    }

    #[test]
    fn ring_buffer_bounds_memory_and_counts_drops() {
        let mut w = TraceWriter::with_capacity(3);
        for i in 0..10u64 {
            w.record(TraceEvent::new("begin", "c", i));
        }
        assert_eq!(w.len(), 3);
        assert_eq!(w.seen(), 10);
        assert_eq!(w.dropped(), 7);
        let cycles: Vec<u64> = w.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![7, 8, 9], "oldest events dropped first");
        assert_eq!(w.lines().len(), 3);
        assert!(!w.is_empty());
    }

    #[test]
    fn default_capacity_is_bounded_and_positive() {
        let w = TraceWriter::default();
        assert!(w.is_empty());
        assert_eq!(w.seen(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        TraceWriter::with_capacity(0);
    }

    #[test]
    fn parse_line_handles_escapes_and_overflow() {
        let pairs = parse_line("{\"a\":\"x\\u0041\\n\",\"b\":18446744073709551615}").unwrap();
        assert_eq!(pairs[0].1, TraceScalar::Str("xA\n".to_string()));
        assert_eq!(pairs[1].1, TraceScalar::UInt(u64::MAX));
        assert!(parse_line("{\"b\":18446744073709551616}").is_err());
    }
}
