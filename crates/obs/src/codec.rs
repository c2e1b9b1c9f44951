//! The `mto-trace/v2` codec: FNV-checksummed, line-oriented, versioned.
//!
//! Same engineering as the history codec: a text format debuggable with
//! `cat`, strict to parse, integrity-checked end to end:
//!
//! ```text
//! mto-trace v2
//! events 5
//! enter 0 0 1 0 epoch-0
//! point 1 0 1 ledger-pool 320
//! gossip 2 0 1 job-a job-b 12
//! exit 3 0 1 128
//! point 4 1000000 0 job-finished:a 400
//! checksum 8d4f0a1b2c3d4e5f
//! ```
//!
//! * `events <n>` — declared record count, cross-checked on decode;
//! * `enter <seq> <t_us> <span> <parent> <name>` /
//!   `exit <seq> <t_us> <span> <cost>` /
//!   `point <seq> <t_us> <span> <name> <value>` /
//!   `gossip <seq> <t_us> <span> <from> <to> <count>` — one
//!   [`TraceRecord`] each, carrying the causal structure (stable span
//!   ids, parent links) introduced in v2;
//! * the trailing `checksum` is an FNV-1a 64 hash of every preceding
//!   byte, with no newline after it, so any strict prefix is detectably
//!   truncated and any flipped byte is a mismatch. The decoder never
//!   panics, and reads v2 only: any other version is
//!   [`TraceCodecError::UnsupportedVersion`].

use crate::fnv1a64;
use crate::trace::{TraceRecord, TraceSink};

/// Magic of trace files.
pub const TRACE_MAGIC: &str = "mto-trace";
/// The format version this build writes and reads.
pub const TRACE_VERSION: u32 = 2;

/// Decode failures of the trace codec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceCodecError {
    /// The checksum trailer is missing — the input was cut short.
    Truncated,
    /// The body hashes to a different value than the trailer claims.
    ChecksumMismatch {
        /// Hash of the body as read.
        computed: u64,
        /// Hash the trailer recorded.
        stored: u64,
    },
    /// The first line is not `mto-trace v<version>`.
    BadHeader(String),
    /// The file is a format version other than [`TRACE_VERSION`].
    UnsupportedVersion(u32),
    /// A record line failed to parse.
    BadRecord {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for TraceCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceCodecError::Truncated => write!(f, "trace truncated: checksum trailer missing"),
            TraceCodecError::ChecksumMismatch { computed, stored } => {
                write!(f, "trace checksum mismatch: computed {computed:016x}, stored {stored:016x}")
            }
            TraceCodecError::BadHeader(line) => write!(f, "bad trace header {line:?}"),
            TraceCodecError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace format version {v} (this build reads v{TRACE_VERSION})"
                )
            }
            TraceCodecError::BadRecord { line, message } => {
                write!(f, "bad trace record at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for TraceCodecError {}

/// Appends a decimal integer without going through `core::fmt`.
fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII"));
}

/// Appends one record as its `mto-trace/v2` line (no trailing newline).
/// This is the display form the divergence auditor prints, so it is
/// public alongside the whole-document [`encode_trace`].
pub fn render_record(out: &mut String, e: &TraceRecord) {
    match e {
        TraceRecord::Enter { seq, t_us, span, parent, name } => {
            out.push_str("enter ");
            push_u64(out, *seq);
            out.push(' ');
            push_u64(out, *t_us);
            out.push(' ');
            push_u64(out, *span);
            out.push(' ');
            push_u64(out, *parent);
            out.push(' ');
            out.push_str(name);
        }
        TraceRecord::Exit { seq, t_us, span, cost } => {
            out.push_str("exit ");
            push_u64(out, *seq);
            out.push(' ');
            push_u64(out, *t_us);
            out.push(' ');
            push_u64(out, *span);
            out.push(' ');
            push_u64(out, *cost);
        }
        TraceRecord::Point { seq, t_us, span, name, value } => {
            out.push_str("point ");
            push_u64(out, *seq);
            out.push(' ');
            push_u64(out, *t_us);
            out.push(' ');
            push_u64(out, *span);
            out.push(' ');
            out.push_str(name);
            out.push(' ');
            push_u64(out, *value);
        }
        TraceRecord::Gossip { seq, t_us, span, from, to, count } => {
            out.push_str("gossip ");
            push_u64(out, *seq);
            out.push(' ');
            push_u64(out, *t_us);
            out.push(' ');
            push_u64(out, *span);
            out.push(' ');
            out.push_str(from);
            out.push(' ');
            out.push_str(to);
            out.push(' ');
            push_u64(out, *count);
        }
    }
}

/// Serializes a sink's events as an `mto-trace/v2` document.
pub fn encode_trace(sink: &TraceSink) -> String {
    let events = sink.events();
    let mut out = String::with_capacity(64 + 40 * events.len());
    out.push_str(TRACE_MAGIC);
    out.push_str(" v");
    push_u64(&mut out, u64::from(TRACE_VERSION));
    out.push_str("\nevents ");
    push_u64(&mut out, events.len() as u64);
    out.push('\n');
    for e in events {
        render_record(&mut out, e);
        out.push('\n');
    }
    let checksum = fnv1a64(out.as_bytes());
    out.push_str("checksum ");
    use std::fmt::Write as _;
    write!(out, "{checksum:016x}").expect("string write");
    out
}

/// Splits off and verifies the checksum trailer, returning the body.
fn verify_checksum(text: &str) -> Result<&str, TraceCodecError> {
    let pos = text.rfind("\nchecksum ").ok_or(TraceCodecError::Truncated)?;
    let body = &text[..pos + 1];
    let trailer = text[pos + 1..].trim_end_matches('\n');
    let lineno = body.lines().count() + 1;
    if trailer.contains('\n') {
        return Err(TraceCodecError::BadRecord {
            line: lineno,
            message: "data after the checksum trailer".into(),
        });
    }
    let hex = trailer.strip_prefix("checksum ").expect("rfind matched this prefix");
    let stored = u64::from_str_radix(hex, 16).map_err(|e| TraceCodecError::BadRecord {
        line: lineno,
        message: format!("bad checksum literal {hex:?}: {e}"),
    })?;
    let computed = fnv1a64(body.as_bytes());
    if computed != stored {
        return Err(TraceCodecError::ChecksumMismatch { computed, stored });
    }
    Ok(body)
}

fn bad_record(lineno: usize, message: impl Into<String>) -> TraceCodecError {
    TraceCodecError::BadRecord { line: lineno, message: message.into() }
}

fn parse_num<T: std::str::FromStr>(
    token: &str,
    what: &str,
    lineno: usize,
) -> Result<T, TraceCodecError>
where
    T::Err: std::fmt::Display,
{
    token.parse().map_err(|e| bad_record(lineno, format!("bad {what} {token:?}: {e}")))
}

/// Decodes an `mto-trace/v2` document into its records.
pub fn decode_trace(text: &str) -> Result<Vec<TraceRecord>, TraceCodecError> {
    let body = verify_checksum(text)?;
    let mut lines = body.lines().enumerate();

    let (_, header) = lines.next().ok_or_else(|| TraceCodecError::BadHeader(String::new()))?;
    let version = header
        .strip_prefix(TRACE_MAGIC)
        .and_then(|rest| rest.strip_prefix(" v"))
        .ok_or_else(|| TraceCodecError::BadHeader(header.to_string()))?;
    let version: u32 =
        version.parse().map_err(|_| TraceCodecError::BadHeader(header.to_string()))?;
    if version != TRACE_VERSION {
        return Err(TraceCodecError::UnsupportedVersion(version));
    }

    let mut declared: Option<u64> = None;
    let mut records = Vec::new();
    for (i, line) in lines {
        let lineno = i + 1;
        let line = line.trim_end_matches('\r');
        let (keyword, rest) = match line.split_once(' ') {
            Some((k, rest)) if !k.is_empty() => (k, rest),
            _ => {
                return Err(bad_record(lineno, format!("expected `<keyword> <payload>`: {line:?}")))
            }
        };
        match keyword {
            "events" => {
                if declared.is_some() {
                    return Err(bad_record(lineno, "duplicate events record"));
                }
                declared = Some(parse_num(rest, "event count", lineno)?);
            }
            "enter" | "exit" | "point" | "gossip" => {
                let mut tokens = rest.split(' ');
                let mut next = |what: &str| {
                    tokens
                        .next()
                        .ok_or_else(|| bad_record(lineno, format!("missing {what}")))
                        .map(str::to_owned)
                };
                let seq: u64 = parse_num(&next("seq")?, "seq", lineno)?;
                let t_us: u64 = parse_num(&next("t_us")?, "t_us", lineno)?;
                let span: u64 = parse_num(&next("span")?, "span", lineno)?;
                let record = match keyword {
                    "enter" => TraceRecord::Enter {
                        seq,
                        t_us,
                        span,
                        parent: parse_num(&next("parent")?, "parent", lineno)?,
                        name: next("name")?,
                    },
                    "exit" => TraceRecord::Exit {
                        seq,
                        t_us,
                        span,
                        cost: parse_num(&next("cost")?, "cost", lineno)?,
                    },
                    "point" => TraceRecord::Point {
                        seq,
                        t_us,
                        span,
                        name: next("name")?,
                        value: parse_num(&next("value")?, "value", lineno)?,
                    },
                    _ => TraceRecord::Gossip {
                        seq,
                        t_us,
                        span,
                        from: next("from")?,
                        to: next("to")?,
                        count: parse_num(&next("count")?, "count", lineno)?,
                    },
                };
                if tokens.next().is_some() {
                    return Err(bad_record(lineno, format!("trailing tokens in {line:?}")));
                }
                records.push(record);
            }
            other => return Err(bad_record(lineno, format!("unknown keyword {other:?}"))),
        }
    }
    match declared {
        Some(n) if n as usize == records.len() => Ok(records),
        Some(n) => Err(bad_record(1, format!("declared {n} events, decoded {}", records.len()))),
        None => Err(bad_record(1, "missing events record")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_sink() -> TraceSink {
        let mut sink = TraceSink::new();
        sink.enter(0, "epoch-0");
        sink.point(0, "ledger-pool", 320);
        sink.enter(0, "job-a");
        sink.exit(0, 64);
        sink.gossip(0, "job-a", "job-b", 12);
        sink.exit(0, 128);
        sink.point(1_000_000, "job-finished:a", 400);
        sink
    }

    #[test]
    fn round_trip_preserves_every_record() {
        let sink = sample_sink();
        let text = encode_trace(&sink);
        assert!(text.starts_with("mto-trace v2\nevents 7\n"));
        assert!(!text.ends_with('\n'), "no newline after the checksum trailer");
        let decoded = decode_trace(&text).unwrap();
        assert_eq!(decoded, sink.events());
    }

    #[test]
    fn v2_lines_carry_span_and_parent_ids() {
        let text = encode_trace(&sample_sink());
        assert!(text.contains("\nenter 0 0 1 0 epoch-0\n"), "top-level span: id 1, parent 0");
        assert!(text.contains("\nenter 2 0 2 1 job-a\n"), "nested span: id 2, parent 1");
        assert!(text.contains("\ngossip 4 0 1 job-a job-b 12\n"));
        assert!(text.contains("\npoint 6 1000000 0 job-finished:a 400\n"), "point outside spans");
    }

    #[test]
    fn encode_is_deterministic() {
        assert_eq!(encode_trace(&sample_sink()), encode_trace(&sample_sink()));
    }

    #[test]
    fn v1_documents_are_refused_naming_the_version() {
        let v1 = "mto-trace v1\nevents 1\nenter 0 0 epoch-0\n";
        let sealed = format!("{v1}checksum {:016x}", crate::fnv1a64(v1.as_bytes()));
        let err = decode_trace(&sealed).unwrap_err();
        assert_eq!(err, TraceCodecError::UnsupportedVersion(1));
        assert!(err.to_string().contains("version 1"), "{err}");
    }

    #[test]
    fn truncation_and_corruption_are_detected() {
        let text = encode_trace(&sample_sink());
        let torn = &text[..text.len() - 25];
        assert_eq!(decode_trace(torn), Err(TraceCodecError::Truncated));
        let flipped = text.replacen("ledger-pool 320", "ledger-pool 321", 1);
        assert!(matches!(decode_trace(&flipped), Err(TraceCodecError::ChecksumMismatch { .. })));
    }

    #[test]
    fn header_and_record_errors_name_the_problem() {
        let empty = encode_trace(&TraceSink::new());
        let wrong_magic = empty.replacen("mto-trace v2", "mto-videotape v2", 1);
        // Re-seal so only the header is wrong.
        let body = &wrong_magic[..wrong_magic.rfind("checksum ").unwrap()];
        let resealed = format!("{body}checksum {:016x}", crate::fnv1a64(body.as_bytes()));
        assert!(matches!(decode_trace(&resealed), Err(TraceCodecError::BadHeader(_))));

        let v9 = "mto-trace v9\nevents 0\n";
        let sealed = format!("{v9}checksum {:016x}", crate::fnv1a64(v9.as_bytes()));
        assert_eq!(decode_trace(&sealed), Err(TraceCodecError::UnsupportedVersion(9)));

        let v0 = "mto-trace v0\nevents 0\n";
        let sealed = format!("{v0}checksum {:016x}", crate::fnv1a64(v0.as_bytes()));
        assert_eq!(decode_trace(&sealed), Err(TraceCodecError::UnsupportedVersion(0)));

        let bad = "mto-trace v2\nevents 0\nenter x\n";
        let sealed = format!("{bad}checksum {:016x}", crate::fnv1a64(bad.as_bytes()));
        assert!(matches!(decode_trace(&sealed), Err(TraceCodecError::BadRecord { line: 3, .. })));

        let undeclared = "mto-trace v2\npoint 0 0 0 a 1\n";
        let sealed = format!("{undeclared}checksum {:016x}", crate::fnv1a64(undeclared.as_bytes()));
        assert!(matches!(decode_trace(&sealed), Err(TraceCodecError::BadRecord { .. })));
    }

    #[test]
    fn declared_count_is_cross_checked() {
        let text = encode_trace(&sample_sink());
        let lying = text.replacen("events 7", "events 6", 1);
        let body = &lying[..lying.rfind("checksum ").unwrap()];
        let resealed = format!("{body}checksum {:016x}", crate::fnv1a64(body.as_bytes()));
        assert!(matches!(decode_trace(&resealed), Err(TraceCodecError::BadRecord { .. })));
    }
}
