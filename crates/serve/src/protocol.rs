//! The serve wire protocol: JSONL requests in, JSONL responses out.
//!
//! One request per line, one response per line, always in request order:
//!
//! ```text
//! {"id": 1, "loop": "loop t {\n i: iadd i@1\n x: load i\n}", "machine": "4c1b2l64r", "mode": "replicate"}
//! {"id": 2, "op": "stats"}
//! ```
//!
//! A compile response is `{"id":1,"ok":{...}}` with the same counters a
//! one-shot `compile_stats` run reports, or `{"id":1,"error":{...}}`. The
//! **body after the id is a pure function of (loop structure, machine,
//! mode, seeds)** — it never mentions the cache, a worker, or timing, which
//! is what lets the server return cached bytes verbatim and stay
//! byte-identical to one-shot compilation.
//!
//! Errors are structured in the `SpecError` span-carrying style: every
//! error body has a `kind` and a `detail`, plus the position information
//! the underlying error carries (`line`/`col` for loop parse errors, a
//! byte `span` for machine-spec field errors, a byte `pos` for JSON syntax
//! errors). A line that fails before its `id` field is known is answered
//! with `"id":null`.

use std::fmt::Write as _;

use cvliw_ir::ParseError;
use cvliw_machine::SpecError;
use cvliw_replicate::{CauseCounts, CompileError, LoopStats, Mode};

use crate::json::{self, JsonError, RawValue};

/// Hard cap on one request line. Oversized lines are rejected with a
/// structured error *without* being scanned — the daemon must survive a
/// client that pipes it a gigabyte of garbage on one line.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// A parsed request line, borrowing from the input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Request<'a> {
    /// Compile a loop for a machine under a mode.
    Compile {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
        /// The loop source, still JSON-escaped (hash it for identity;
        /// [`json::unescape`] it to parse).
        loop_src: &'a str,
        /// The machine spec string, still JSON-escaped.
        machine: &'a str,
        /// Compilation mode.
        mode: Mode,
        /// Refinement seeds to race (clamped to at least 1 downstream).
        seeds: u32,
    },
    /// Report cache / pool accounting.
    Stats {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
    },
}

/// Everything that can go wrong with a request before (or during)
/// compilation. Paired with the request id when one was recovered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line exceeds [`MAX_LINE_BYTES`].
    Oversized {
        /// Actual line length.
        bytes: usize,
    },
    /// The line is not a protocol object.
    Json(JsonError),
    /// A required field is absent.
    MissingField(&'static str),
    /// A field is present but unusable (wrong type, unknown name, bad
    /// number, unknown mode…).
    BadField {
        /// The field in question.
        field: &'static str,
        /// Why it was rejected.
        detail: String,
    },
    /// The loop source does not parse.
    Parse(ParseError),
    /// The machine spec does not parse.
    Spec(SpecError),
    /// Compilation itself failed (cached like a success — the failure is
    /// as much a function of the inputs as a schedule is).
    Compile(CompileError),
    /// The daemon is at its in-flight compile bound and shed this
    /// request instead of queueing it unboundedly. Never cached.
    Overloaded {
        /// Client back-off hint, in milliseconds.
        retry_after_ms: u64,
    },
    /// An invariant the daemon relies on failed. Replaces what used to
    /// be a request-path panic: the client gets a structured answer and
    /// the daemon keeps serving.
    Internal {
        /// What went wrong.
        detail: &'static str,
    },
}

/// Parses one request line (already length-checked by the server).
///
/// # Errors
///
/// Returns the structured [`ErrorKind`] plus the request id when the scan
/// got far enough to learn it — so even a rejected request is answered on
/// the right correlation id whenever possible.
pub fn parse_request(line: &str) -> Result<Request<'_>, (Option<u64>, ErrorKind)> {
    let mut id: Option<u64> = None;
    let mut op: Option<&str> = None;
    let mut loop_src: Option<&str> = None;
    let mut machine: Option<&str> = None;
    let mut mode_src: Option<&str> = None;
    let mut seeds: Option<&str> = None;

    let scan = json::scan_object(line, |key, value| {
        let slot: &mut Option<&str> = match key {
            "id" => {
                match value {
                    RawValue::Num(digits) => match digits.parse::<u64>() {
                        Ok(n) => id = Some(n),
                        Err(_) => {
                            return Err(JsonError {
                                pos: 0,
                                detail: "id out of range".into(),
                            })
                        }
                    },
                    _ => {
                        return Err(JsonError {
                            pos: 0,
                            detail: "id must be an unsigned integer".into(),
                        })
                    }
                }
                return Ok(());
            }
            "op" => &mut op,
            "loop" => &mut loop_src,
            "machine" => &mut machine,
            "mode" => &mut mode_src,
            "seeds" => &mut seeds,
            other => {
                return Err(JsonError {
                    pos: 0,
                    detail: format!("unknown field `{other}`"),
                })
            }
        };
        match value {
            RawValue::Str(s) | RawValue::Num(s) => {
                *slot = Some(s);
                Ok(())
            }
            RawValue::Null => Err(JsonError {
                pos: 0,
                detail: format!("field `{key}` must not be null"),
            }),
        }
    });
    if let Err(e) = scan {
        return Err((id, ErrorKind::Json(e)));
    }

    let id = match id {
        Some(id) => id,
        None => return Err((None, ErrorKind::MissingField("id"))),
    };
    match op {
        None | Some("compile") => {}
        Some("stats") => return Ok(Request::Stats { id }),
        Some(other) => {
            return Err((
                Some(id),
                ErrorKind::BadField {
                    field: "op",
                    detail: format!("unknown op `{other}` (expected compile or stats)"),
                },
            ))
        }
    }

    let loop_src = match loop_src {
        Some(s) => s,
        None => return Err((Some(id), ErrorKind::MissingField("loop"))),
    };
    let machine = match machine {
        Some(s) => s,
        None => return Err((Some(id), ErrorKind::MissingField("machine"))),
    };
    let mode = match mode_src {
        None => Mode::Replicate,
        Some(name) => match Mode::parse(name) {
            Some(mode) => mode,
            None => {
                return Err((
                    Some(id),
                    ErrorKind::BadField {
                        field: "mode",
                        detail: format!(
                            "unknown mode `{name}` (expected baseline, replicate, sched-len, \
                             zero-bus or value-clone)"
                        ),
                    },
                ))
            }
        },
    };
    let seeds = match seeds {
        None => 1,
        Some(digits) => match digits.parse::<u32>() {
            Ok(n) if n >= 1 => n,
            Ok(_) => {
                return Err((
                    Some(id),
                    ErrorKind::BadField {
                        field: "seeds",
                        detail: "seeds must be at least 1".into(),
                    },
                ))
            }
            Err(_) => {
                return Err((
                    Some(id),
                    ErrorKind::BadField {
                        field: "seeds",
                        detail: format!("cannot parse `{digits}` as an unsigned 32-bit count"),
                    },
                ))
            }
        },
    };
    Ok(Request::Compile {
        id,
        loop_src,
        machine,
        mode,
        seeds,
    })
}

fn append_causes(causes: &CauseCounts, out: &mut String) {
    let _ = write!(
        out,
        "\"causes\":{{\"bus\":{},\"recurrence\":{},\"registers\":{},\"resources\":{}}}",
        causes.bus, causes.recurrence, causes.registers, causes.resources
    );
}

/// Appends the `"ok":{...}` body for a successful compilation. This is the
/// *entire* cacheable payload — it carries every counter the suite's
/// per-cell aggregation consumes and nothing about how it was produced.
pub fn render_ok_body(stats: &LoopStats, out: &mut String) {
    let _ = write!(
        out,
        "\"ok\":{{\"mii\":{},\"ii\":{},\"length\":{},\"stages\":{},\"partition_coms\":{},\
         \"final_coms\":{},\"added\":{},\"removed\":{},\"ops\":{},\"instances\":{},\"copies\":{},",
        stats.mii,
        stats.ii,
        stats.length,
        stats.stage_count,
        stats.partition_coms,
        stats.final_coms,
        stats.replication.added_instances(),
        stats.replication.removed_instances,
        stats.ops_per_iter,
        stats.instances_per_iter,
        stats.copies_per_iter,
    );
    append_causes(&stats.causes, out);
    out.push('}');
}

/// Appends the `"error":{...}` body for a compilation failure (cached
/// exactly like a success).
pub fn render_compile_error_body(e: &CompileError, out: &mut String) {
    match e {
        CompileError::IiLimitExceeded {
            mii,
            max_ii,
            causes,
        } => {
            out.push_str("\"error\":{\"kind\":\"compile\",\"detail\":\"");
            json::escape_into(&e.to_string(), out);
            let _ = write!(out, "\",\"mii\":{mii},\"max_ii\":{max_ii},");
            append_causes(causes, out);
            out.push('}');
        }
        // `CompileError` is non_exhaustive; future variants degrade to a
        // kind + detail body.
        other => {
            out.push_str("\"error\":{\"kind\":\"compile\",\"detail\":\"");
            json::escape_into(&other.to_string(), out);
            out.push_str("\"}");
        }
    }
}

/// Appends the `"error":{...}` body for a pre-compilation failure,
/// carrying whatever position information the underlying error has:
/// `pos` for JSON errors, `line`/`col` for loop parse errors, and the
/// machine spec's byte `span` for zero-field spec errors.
pub fn render_error_body(kind: &ErrorKind, out: &mut String) {
    match kind {
        ErrorKind::Oversized { bytes } => {
            let _ = write!(
                out,
                "\"error\":{{\"kind\":\"oversized\",\"detail\":\"request line of {bytes} bytes \
                 exceeds the {MAX_LINE_BYTES}-byte cap\",\"bytes\":{bytes}}}"
            );
        }
        ErrorKind::Json(e) => {
            out.push_str("\"error\":{\"kind\":\"json\",\"detail\":\"");
            json::escape_into(&e.detail, out);
            let _ = write!(out, "\",\"pos\":{}}}", e.pos);
        }
        ErrorKind::MissingField(field) => {
            let _ = write!(
                out,
                "\"error\":{{\"kind\":\"protocol\",\"detail\":\"missing required field \
                 `{field}`\",\"field\":\"{field}\"}}"
            );
        }
        ErrorKind::BadField { field, detail } => {
            out.push_str("\"error\":{\"kind\":\"protocol\",\"detail\":\"");
            json::escape_into(detail, out);
            let _ = write!(out, "\",\"field\":\"{field}\"}}");
        }
        ErrorKind::Parse(e) => {
            out.push_str("\"error\":{\"kind\":\"parse\",\"detail\":\"");
            json::escape_into(&e.to_string(), out);
            let _ = write!(out, "\",\"line\":{},\"col\":{}}}", e.pos.line, e.pos.col);
        }
        ErrorKind::Spec(e) => {
            out.push_str("\"error\":{\"kind\":\"spec\",\"detail\":\"");
            json::escape_into(&e.to_string(), out);
            out.push('"');
            if let SpecError::ZeroField {
                span: Some((start, end)),
                ..
            } = e
            {
                let _ = write!(out, ",\"span\":[{start},{end}]");
            }
            out.push('}');
        }
        ErrorKind::Compile(e) => render_compile_error_body(e, out),
        ErrorKind::Overloaded { retry_after_ms } => {
            let _ = write!(
                out,
                "\"error\":{{\"kind\":\"overloaded\",\"detail\":\"compile queue at capacity; \
                 retry after {retry_after_ms} ms\",\"retry_after_ms\":{retry_after_ms}}}"
            );
        }
        ErrorKind::Internal { detail } => {
            out.push_str("\"error\":{\"kind\":\"internal\",\"detail\":\"");
            json::escape_into(detail, out);
            out.push_str("\"}");
        }
    }
}

/// Appends the `"error":{...}` body for a compile job that blew its
/// `--deadline-ms` budget. Never cached: the timeout reflects load, not
/// the request, so a follow-up identical request compiles cleanly.
pub fn render_deadline_body(deadline_ms: u64, out: &mut String) {
    let _ = write!(
        out,
        "\"error\":{{\"kind\":\"deadline_exceeded\",\"detail\":\"compile exceeded the \
         {deadline_ms} ms budget\",\"deadline_ms\":{deadline_ms}}}"
    );
}

/// Appends the `"error":{...}` body for a compile job whose worker
/// panicked. Carries the offending cache key (loop fingerprint, interned
/// spec id, mode index, seed count) so the input can be reproduced, plus
/// the panic message. Never cached — a follow-up identical request
/// recompiles on a fresh context and scratch.
pub fn render_panic_body(key: &crate::cache::CacheKey, detail: &str, out: &mut String) {
    out.push_str("\"error\":{\"kind\":\"compile_panic\",\"detail\":\"");
    json::escape_into(detail, out);
    let _ = write!(
        out,
        "\",\"fp\":\"{:016x}\",\"spec\":{},\"mode\":{},\"seeds\":{}}}",
        key.fp, key.spec, key.mode, key.seeds
    );
}

/// Appends one full response line: `{"id":<id>,<body>}\n`. `None` renders
/// as `"id":null` (the line never revealed its id).
pub fn render_response(id: Option<u64>, body: &str, out: &mut String) {
    out.push_str("{\"id\":");
    match id {
        Some(id) => {
            let _ = write!(out, "{id}");
        }
        None => out.push_str("null"),
    }
    out.push(',');
    out.push_str(body);
    out.push_str("}\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_compile_request() {
        let line = r#"{"id": 9, "loop": "loop t {\n i: iadd i@1\n}", "machine": "4c1b2l64r", "mode": "baseline", "seeds": 4}"#;
        let req = parse_request(line).unwrap();
        assert_eq!(
            req,
            Request::Compile {
                id: 9,
                loop_src: r"loop t {\n i: iadd i@1\n}",
                machine: "4c1b2l64r",
                mode: Mode::Baseline,
                seeds: 4,
            }
        );
    }

    #[test]
    fn mode_and_seeds_default() {
        let line = r#"{"id": 1, "loop": "x", "machine": "unified"}"#;
        match parse_request(line).unwrap() {
            Request::Compile { mode, seeds, .. } => {
                assert_eq!(mode, Mode::Replicate);
                assert_eq!(seeds, 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stats_op_parses() {
        assert_eq!(
            parse_request(r#"{"id": 3, "op": "stats"}"#).unwrap(),
            Request::Stats { id: 3 }
        );
    }

    #[test]
    fn errors_echo_the_id_once_known() {
        // id scanned before the failure → echoed.
        let (id, kind) = parse_request(r#"{"id": 5, "loop": "x"}"#).unwrap_err();
        assert_eq!(id, Some(5));
        assert_eq!(kind, ErrorKind::MissingField("machine"));
        // Failure before any id → None.
        let (id, kind) = parse_request("garbage").unwrap_err();
        assert_eq!(id, None);
        assert!(matches!(kind, ErrorKind::Json(_)));
        // Unknown mode.
        let (id, kind) =
            parse_request(r#"{"id": 2, "loop": "x", "machine": "m", "mode": "yolo"}"#).unwrap_err();
        assert_eq!(id, Some(2));
        assert!(matches!(kind, ErrorKind::BadField { field: "mode", .. }));
        // Zero seeds.
        let (_, kind) =
            parse_request(r#"{"id": 2, "loop": "x", "machine": "m", "seeds": 0}"#).unwrap_err();
        assert!(matches!(kind, ErrorKind::BadField { field: "seeds", .. }));
        // Unknown field.
        let (_, kind) = parse_request(r#"{"id": 2, "frobnicate": 1}"#).unwrap_err();
        assert!(matches!(kind, ErrorKind::Json(_)));
    }

    #[test]
    fn response_rendering_is_exact() {
        let mut out = String::new();
        render_response(Some(12), "\"ok\":{}", &mut out);
        assert_eq!(out, "{\"id\":12,\"ok\":{}}\n");
        out.clear();
        render_response(None, "\"error\":{\"kind\":\"json\"}", &mut out);
        assert_eq!(out, "{\"id\":null,\"error\":{\"kind\":\"json\"}}\n");
    }

    #[test]
    fn spec_error_body_carries_the_span() {
        let e = SpecError::zero_field_in("bus latency", "4c0b2l64r", (2, 3));
        let mut out = String::new();
        render_error_body(&ErrorKind::Spec(e), &mut out);
        assert!(out.contains("\"kind\":\"spec\""), "{out}");
        assert!(out.contains("\"span\":[2,3]"), "{out}");
    }

    #[test]
    fn parse_error_body_carries_line_and_col() {
        let e = cvliw_ir::parse_loop("loop l {\n x: frobnicate y\n}").unwrap_err();
        let mut out = String::new();
        render_error_body(&ErrorKind::Parse(e), &mut out);
        assert!(out.contains("\"kind\":\"parse\""), "{out}");
        assert!(out.contains("\"line\":2"), "{out}");
    }
}
