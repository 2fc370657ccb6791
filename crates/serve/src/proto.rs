//! The `drfcheck serve` wire protocol: one JSON object per line, in and
//! out.
//!
//! Requests are flat JSON objects (no nesting — the protocol needs no
//! structure deeper than key/value, and rejecting depth keeps the
//! hand-rolled parser obviously total):
//!
//! ```json
//! {"id":"42","cmd":"check","program":"x := 1; || r0 := x; print r0;",
//!  "model":"tso","timeout_ms":5000,"max_states":1000000}
//! ```
//!
//! Responses mirror the request `id` and carry a `status` that is the
//! service's failure-semantics contract:
//!
//! * `"ok"` — the analysis ran (or was served from the verdict cache);
//!   `verdict` is one of `racy` / `drf_proven` / `unknown`, and
//!   `drf_proven` is only ever emitted by a **complete** run — every
//!   degraded path reports `unknown` or an error.
//! * `"error"` — the request was malformed, or both the first run and
//!   its sequential retry were lost to worker panics. No verdict.
//! * `"overloaded"` — the request was shed by admission control before
//!   running (queue full, oldest request dropped first, never
//!   silently).
//! * `"cancelled"` — the server began draining (SIGINT/SIGTERM) before
//!   the request was scheduled.
//!
//! The parser is strict: unknown keys, nested values and non-integer
//! numbers are errors, so a typo'd option can never be silently
//! ignored and then reported as if it had been honoured.

use std::fmt;

use transafety_traces::MemoryModelKind;

/// A scalar JSON value of the flat request/entry objects.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A JSON string (escapes decoded).
    String(String),
    /// An integer (the protocol has no use for fractions).
    Int(i128),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl JsonValue {
    /// The value as a non-negative integer, if it is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses one flat JSON object — string/integer/boolean/null values
/// only — into its key/value pairs, in source order. Duplicate keys are
/// rejected (a request that says `"timeout_ms"` twice is ambiguous, not
/// last-writer-wins).
pub fn parse_flat_object(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut pairs: Vec<(String, JsonValue)> = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key {key:?}"));
            }
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.value()?;
            pairs.push((key, value));
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        p.pos,
                        other.map(char::from)
                    ))
                }
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing input after object at byte {}", p.pos));
    }
    Ok(pairs)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!(
                "expected {:?} at byte {}, found {:?}",
                char::from(want),
                self.pos,
                other.map(char::from)
            )),
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.integer(),
            Some(b'{' | b'[') => Err(format!(
                "nested values are not part of the protocol (byte {})",
                self.pos
            )),
            other => Err(format!(
                "expected a value at byte {}, found {:?}",
                self.pos,
                other.map(char::from)
            )),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("malformed literal at byte {}", self.pos))
        }
    }

    fn integer(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(format!(
                "non-integer number at byte {start} (the protocol uses integers only)"
            ));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are utf-8");
        text.parse::<i128>()
            .map(JsonValue::Int)
            .map_err(|_| format!("number out of range at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = self
                            .bytes
                            .get(self.pos..self.pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "malformed \\u escape")?;
                        self.pos += 4;
                        // Surrogates are not worth supporting in a
                        // programs-and-options protocol; reject rather
                        // than mis-decode.
                        out.push(
                            char::from_u32(code)
                                .ok_or("\\u escape is not a scalar value (surrogate?)")?,
                        );
                    }
                    other => {
                        return Err(format!("unknown escape {:?}", other.map(char::from)));
                    }
                },
                Some(b) if b < 0x20 => return Err("raw control character in string".to_string()),
                Some(b) => {
                    // Recover multi-byte UTF-8 sequences: the input is a
                    // &str, so continuation bytes are guaranteed valid.
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    let s = std::str::from_utf8(&self.bytes[start..start + len])
                        .expect("input is a &str");
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }
}

/// Escapes a string for embedding in a JSON double-quoted literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The analysis commands a request can ask for. They all run the same
/// full pipeline (one [`Analysis::run`](transafety_checker::Analysis)
/// report answers all three), so the command only names the caller's
/// intent; every response carries the full result either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Cmd {
    /// Full report: verdict + behaviours.
    #[default]
    Check,
    /// Race search focus.
    Races,
    /// Behaviour enumeration focus.
    Behaviours,
}

impl Cmd {
    /// The wire name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Cmd::Check => "check",
            Cmd::Races => "races",
            Cmd::Behaviours => "behaviours",
        }
    }
}

impl std::str::FromStr for Cmd {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "check" => Ok(Cmd::Check),
            "races" => Ok(Cmd::Races),
            "behaviours" => Ok(Cmd::Behaviours),
            other => Err(format!(
                "unknown cmd {other:?} (expected check, races or behaviours)"
            )),
        }
    }
}

/// One parsed, validated service request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    /// Strings and integers are both accepted on the wire; defaults to
    /// the server's admission sequence number.
    pub id: Option<String>,
    /// What the client asked for.
    pub cmd: Cmd,
    /// The program source (§6 concrete syntax).
    pub program: String,
    /// Memory model to explore under (`None` = server default).
    pub model: Option<MemoryModelKind>,
    /// Per-request wall-clock budget in milliseconds. `Some(0)` is
    /// rejected at validation time (a zero deadline can never make
    /// progress — the same usage error `drfcheck --timeout 0` raises).
    pub timeout_ms: Option<u64>,
    /// Per-request explored-state cap.
    pub max_states: Option<u64>,
    /// Per-request interleaving-enumeration cap.
    pub max_interleavings: Option<u64>,
    /// Per-execution action fuel.
    pub max_actions: Option<u64>,
    /// Worker threads for this request's exploration.
    pub jobs: Option<u64>,
    /// Partial-order reduction toggle.
    pub por: Option<bool>,
}

/// A request that failed to parse or validate, with whatever id could
/// be recovered (so the error response still correlates).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestError {
    /// The recovered correlation id, if any.
    pub id: Option<String>,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// Parses and validates one request line.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let pairs = parse_flat_object(line).map_err(|message| RequestError { id: None, message })?;
    let id = pairs.iter().find(|(k, _)| k == "id").map(|(_, v)| match v {
        JsonValue::String(s) => s.clone(),
        JsonValue::Int(i) => i.to_string(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Null => "null".to_string(),
    });
    let fail = |message: String| RequestError {
        id: id.clone(),
        message,
    };
    let mut req = Request {
        id: id.clone(),
        cmd: Cmd::Check,
        program: String::new(),
        model: None,
        timeout_ms: None,
        max_states: None,
        max_interleavings: None,
        max_actions: None,
        jobs: None,
        por: None,
    };
    let mut have_program = false;
    for (key, value) in &pairs {
        match key.as_str() {
            "id" => {}
            "cmd" => {
                let s = value
                    .as_str()
                    .ok_or_else(|| fail("cmd must be a string".to_string()))?;
                req.cmd = s.parse().map_err(fail)?;
            }
            "program" => {
                req.program = value
                    .as_str()
                    .ok_or_else(|| fail("program must be a string".to_string()))?
                    .to_string();
                have_program = true;
            }
            "model" => {
                let s = value
                    .as_str()
                    .ok_or_else(|| fail("model must be a string".to_string()))?;
                req.model = Some(s.parse().map_err(|e| fail(format!("model: {e}")))?);
            }
            "timeout_ms" => {
                req.timeout_ms = Some(
                    value
                        .as_u64()
                        .ok_or_else(|| fail("timeout_ms must be a non-negative integer".into()))?,
                );
            }
            "max_states" => {
                req.max_states = Some(
                    value
                        .as_u64()
                        .ok_or_else(|| fail("max_states must be a non-negative integer".into()))?,
                );
            }
            "max_interleavings" => {
                req.max_interleavings = Some(value.as_u64().ok_or_else(|| {
                    fail("max_interleavings must be a non-negative integer".into())
                })?);
            }
            "max_actions" => {
                req.max_actions =
                    Some(value.as_u64().ok_or_else(|| {
                        fail("max_actions must be a non-negative integer".into())
                    })?);
            }
            "jobs" => {
                req.jobs = Some(
                    value
                        .as_u64()
                        .ok_or_else(|| fail("jobs must be a non-negative integer".into()))?,
                );
            }
            "por" => {
                req.por = Some(
                    value
                        .as_bool()
                        .ok_or_else(|| fail("por must be a boolean".into()))?,
                );
            }
            other => {
                return Err(fail(format!(
                    "unknown key {other:?} (the protocol is strict so misspelled \
                     options are never silently ignored)"
                )))
            }
        }
    }
    if !have_program {
        return Err(fail("missing required key \"program\"".to_string()));
    }
    if req.timeout_ms == Some(0) {
        return Err(fail(
            "timeout_ms must be positive: a zero deadline trips before any work \
             happens (omit the key for no deadline)"
                .to_string(),
        ));
    }
    Ok(req)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_request() {
        let r = parse_request(
            r#"{"id":"a1","cmd":"races","program":"x := 1;","model":"tso",
               "timeout_ms":250,"max_states":100,"max_interleavings":7,
               "max_actions":16,"jobs":2,"por":false}"#,
        )
        .unwrap();
        assert_eq!(r.id.as_deref(), Some("a1"));
        assert_eq!(r.cmd, Cmd::Races);
        assert_eq!(r.model, Some(MemoryModelKind::Tso));
        assert_eq!(r.timeout_ms, Some(250));
        assert_eq!(r.max_states, Some(100));
        assert_eq!(r.max_interleavings, Some(7));
        assert_eq!(r.max_actions, Some(16));
        assert_eq!(r.jobs, Some(2));
        assert_eq!(r.por, Some(false));
    }

    #[test]
    fn integer_ids_are_echoed_as_strings() {
        let r = parse_request(r#"{"id":7,"program":"x := 1;"}"#).unwrap();
        assert_eq!(r.id.as_deref(), Some("7"));
    }

    #[test]
    fn string_escapes_round_trip() {
        let program = "x := 1;\n|| r0 := x;\tprint r0; // \"quoted\"";
        let line = format!(r#"{{"program":"{}"}}"#, json_escape(program));
        let r = parse_request(&line).unwrap();
        assert_eq!(r.program, program);
    }

    #[test]
    fn unknown_keys_are_rejected_with_the_id() {
        let e = parse_request(r#"{"id":"x","program":"p;","timeot_ms":5}"#).unwrap_err();
        assert_eq!(e.id.as_deref(), Some("x"));
        assert!(e.message.contains("timeot_ms"), "{e}");
    }

    #[test]
    fn zero_timeout_is_a_validation_error() {
        let e = parse_request(r#"{"program":"x := 1;","timeout_ms":0}"#).unwrap_err();
        assert!(e.message.contains("must be positive"), "{e}");
    }

    #[test]
    fn missing_program_nesting_and_floats_are_rejected() {
        assert!(parse_request(r#"{"id":"q"}"#)
            .unwrap_err()
            .message
            .contains("program"));
        assert!(parse_flat_object(r#"{"a":{"b":1}}"#)
            .unwrap_err()
            .contains("nested"));
        assert!(parse_flat_object(r#"{"a":1.5}"#)
            .unwrap_err()
            .contains("integer"));
        assert!(parse_flat_object(r#"{"a":1,"a":2}"#)
            .unwrap_err()
            .contains("duplicate"));
        assert!(parse_flat_object(r#"{"a":1} trailing"#)
            .unwrap_err()
            .contains("trailing"));
    }

    #[test]
    fn unicode_and_u_escapes_decode() {
        let pairs = parse_flat_object(r#"{"a":"π é"}"#).unwrap();
        assert_eq!(pairs[0].1.as_str(), Some("π é"));
    }

    #[test]
    fn json_escape_emits_control_escapes() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
