//! The line-delimited wire protocol of [`div_server`](crate).
//!
//! Every request is one UTF-8 text line; every response is a (possibly
//! empty) sequence of *data lines* followed by exactly one *terminal line*.
//! The terminal line is either `OK [detail]` or `ERR <CODE> <message>`, so a
//! client always knows where a response ends — even mid-stream errors
//! terminate with an `ERR` line. Data lines are prefixed by their kind:
//!
//! | prefix    | carries                                                |
//! |-----------|--------------------------------------------------------|
//! | `SCHEMA`  | tab-separated result column names                      |
//! | `ROW`     | tab-separated [`Value`] literals (one result tuple)    |
//! | `PLAN`    | one line of an `EXPLAIN` rendering                     |
//! | `METRICS` | one JSON object (engine + server registries)           |
//!
//! Values use SQL-literal syntax: `NULL`, `TRUE`/`FALSE`, decimal integers,
//! and single-quoted strings with `''` doubling plus `\n`/`\r`/`\\` escapes
//! (the escapes keep the one-line-per-message framing airtight for values
//! that contain newlines). [`encode_value`] and [`parse_value`] are exact
//! inverses for every value the engine can return except sets, which encode
//! but do not parse (no wire command accepts a set literal).

use div_algebra::Value;
use std::fmt;

/// Machine-readable error class of an `ERR <CODE> <message>` terminal line.
///
/// `BUSY`, `TIMEOUT` and `SHUTDOWN` are *retryable*: the request itself was
/// fine and may be resent (to this server later, or to another). The rest
/// are request errors that retrying verbatim cannot fix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line did not match any command grammar.
    Malformed,
    /// The request line exceeded the server's size limit.
    TooLarge,
    /// The SQL text did not parse.
    Parse,
    /// Translation, optimization, planning or execution failed.
    Plan,
    /// A declared `$parameter` has no bound value.
    UnboundParameter,
    /// A binding names a parameter the statement does not declare.
    UnknownParameter,
    /// The prepared plan is stale. Sessions re-prepare a stale statement on
    /// the catalog snapshot they then execute on, so no request this server
    /// serves ends with it; the code stays for `div_sql::Error::StalePlan`.
    StalePlan,
    /// `EXECUTE` named a statement this session never prepared.
    UnknownStatement,
    /// Admission control rejected the connection: the server is at
    /// capacity. Retryable.
    Busy,
    /// The connection sat idle past the server's read timeout. Retryable.
    Timeout,
    /// The server is draining for shutdown. Retryable elsewhere.
    Shutdown,
    /// The statement was cancelled (`CANCEL <session>` from another
    /// connection, or the token was tripped server-side). Not retryable:
    /// somebody asked for this statement to stop.
    Cancelled,
    /// The statement ran past its wall-clock deadline. Not retryable
    /// verbatim — the same statement would time out again.
    Deadline,
    /// The statement's resident-row footprint exceeded its memory budget.
    /// Not retryable verbatim.
    Memory,
}

impl ErrorCode {
    /// The wire spelling (the token after `ERR`).
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorCode::Malformed => "MALFORMED",
            ErrorCode::TooLarge => "TOO_LARGE",
            ErrorCode::Parse => "PARSE",
            ErrorCode::Plan => "PLAN",
            ErrorCode::UnboundParameter => "UNBOUND_PARAMETER",
            ErrorCode::UnknownParameter => "UNKNOWN_PARAMETER",
            ErrorCode::StalePlan => "STALE_PLAN",
            ErrorCode::UnknownStatement => "UNKNOWN_STATEMENT",
            ErrorCode::Busy => "BUSY",
            ErrorCode::Timeout => "TIMEOUT",
            ErrorCode::Shutdown => "SHUTDOWN",
            ErrorCode::Cancelled => "CANCELLED",
            ErrorCode::Deadline => "DEADLINE",
            ErrorCode::Memory => "MEMORY",
        }
    }

    /// `true` when the client may simply retry the same request later.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            ErrorCode::Busy | ErrorCode::Timeout | ErrorCode::Shutdown
        )
    }

    /// Parse a wire spelling back to the code.
    pub fn parse(token: &str) -> Option<ErrorCode> {
        [
            ErrorCode::Malformed,
            ErrorCode::TooLarge,
            ErrorCode::Parse,
            ErrorCode::Plan,
            ErrorCode::UnboundParameter,
            ErrorCode::UnknownParameter,
            ErrorCode::StalePlan,
            ErrorCode::UnknownStatement,
            ErrorCode::Busy,
            ErrorCode::Timeout,
            ErrorCode::Shutdown,
            ErrorCode::Cancelled,
            ErrorCode::Deadline,
            ErrorCode::Memory,
        ]
        .into_iter()
        .find(|c| c.as_str() == token)
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Map an engine error to its wire code.
pub fn code_for(err: &div_sql::Error) -> ErrorCode {
    match err {
        div_sql::Error::Parse(_) => ErrorCode::Parse,
        div_sql::Error::Plan(_) => ErrorCode::Plan,
        div_sql::Error::UnboundParameter { .. } => ErrorCode::UnboundParameter,
        div_sql::Error::UnknownParameter { .. } => ErrorCode::UnknownParameter,
        div_sql::Error::StalePlan { .. } => ErrorCode::StalePlan,
        div_sql::Error::Cancelled { .. } => ErrorCode::Cancelled,
        div_sql::Error::DeadlineExceeded { .. } => ErrorCode::Deadline,
        div_sql::Error::MemoryBudget { .. } => ErrorCode::Memory,
    }
}

/// Render an `ERR` terminal line (newlines in the message are flattened to
/// keep the one-line framing).
pub fn err_line(code: ErrorCode, message: &str) -> String {
    let flat: String = message
        .chars()
        .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
        .collect();
    format!("ERR {code} {flat}")
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with `OK pong`.
    Ping,
    /// Run ad-hoc SQL and stream the result.
    Query(String),
    /// Compile SQL under a session-local statement name.
    Prepare {
        /// Session-local statement name (no whitespace).
        name: String,
        /// The SQL text (may contain `$name` parameters).
        sql: String,
    },
    /// Execute a previously prepared statement with `$name=value` bindings.
    Execute {
        /// The statement name given to `PREPARE`.
        name: String,
        /// The parameter bindings, in request order.
        params: Vec<(String, Value)>,
    },
    /// Compile SQL and return the optimizer/plan report without running it.
    Explain {
        /// The SQL text.
        sql: String,
        /// `true` for `EXPLAIN ANALYZE`: also execute and annotate with
        /// measured statistics.
        analyze: bool,
    },
    /// Return the engine and server metrics registries as one JSON object.
    Metrics,
    /// Register (or replace) a table: `MUTATE REGISTER t (a, b) VALUES
    /// (1, 'x'); (2, 'y')`.
    Register {
        /// Table name.
        table: String,
        /// Column names.
        columns: Vec<String>,
        /// Row literals.
        rows: Vec<Vec<Value>>,
    },
    /// Drop a table: `MUTATE DROP t`.
    Drop(String),
    /// Attach a persistent `div_storage` columnar table file as an external
    /// (file-backed) table: `MUTATE ATTACH t /path/to/t.divcol`. Queries
    /// stream the file chunk-at-a-time with zone-map skipping instead of
    /// loading it into catalog memory.
    Attach {
        /// Table name to register the file under.
        table: String,
        /// Filesystem path of the columnar table file (no whitespace).
        path: String,
    },
    /// Report this connection's session id (`OK session <id>`), the handle
    /// another connection needs to `CANCEL` this session's statements.
    Session,
    /// Trip the cancellation token of the statement session `<id>` is
    /// currently running. Idempotent: answers `OK cancelled <id>` when a
    /// statement was in flight, `OK idle <id>` otherwise (including ids
    /// that never existed — by the time the answer arrives the statement
    /// could have finished anyway, so "unknown" and "idle" are the same
    /// observable fact).
    Cancel(u64),
    /// End the session; the server answers `OK bye` and closes.
    Close,
}

/// Why a request line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MalformedRequest(pub String);

impl fmt::Display for MalformedRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for MalformedRequest {}

fn malformed(msg: impl Into<String>) -> MalformedRequest {
    MalformedRequest(msg.into())
}

/// Parse one request line. The verb is case-sensitive (uppercase), matching
/// the examples in the crate docs; SQL text after the verb is passed through
/// verbatim.
pub fn parse_request(line: &str) -> Result<Request, MalformedRequest> {
    let line = line.trim();
    if line.is_empty() {
        return Err(malformed("empty request line"));
    }
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    match verb {
        "PING" => expect_no_rest("PING", rest, Request::Ping),
        "QUERY" => {
            if rest.is_empty() {
                return Err(malformed("QUERY requires SQL text"));
            }
            Ok(Request::Query(rest.to_string()))
        }
        "PREPARE" => {
            let (name, sql) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| malformed("usage: PREPARE <name> <sql>"))?;
            let sql = sql.trim();
            if sql.is_empty() {
                return Err(malformed("usage: PREPARE <name> <sql>"));
            }
            Ok(Request::Prepare {
                name: name.to_string(),
                sql: sql.to_string(),
            })
        }
        "EXECUTE" => {
            let mut parts = Tokenizer::new(rest);
            let name = match parts.next_token()? {
                Some(Token::Word(w)) => w,
                _ => return Err(malformed("usage: EXECUTE <name> [$param=value ...]")),
            };
            let mut params = Vec::new();
            while let Some(token) = parts.next_token()? {
                match token {
                    Token::Binding(key, value) => params.push((key, value)),
                    _ => return Err(malformed("EXECUTE bindings must look like $name=value")),
                }
            }
            Ok(Request::Execute { name, params })
        }
        "EXPLAIN" => {
            if rest.is_empty() {
                return Err(malformed("EXPLAIN requires SQL text"));
            }
            match rest.strip_prefix("ANALYZE") {
                Some(sql) if sql.starts_with(char::is_whitespace) => Ok(Request::Explain {
                    sql: sql.trim().to_string(),
                    analyze: true,
                }),
                _ => Ok(Request::Explain {
                    sql: rest.to_string(),
                    analyze: false,
                }),
            }
        }
        "METRICS" => expect_no_rest("METRICS", rest, Request::Metrics),
        "MUTATE" => parse_mutate(rest),
        "SESSION" => expect_no_rest("SESSION", rest, Request::Session),
        "CANCEL" => rest
            .parse::<u64>()
            .map(Request::Cancel)
            .map_err(|_| malformed("usage: CANCEL <session-id>")),
        "CLOSE" => expect_no_rest("CLOSE", rest, Request::Close),
        other => Err(malformed(format!("unknown command `{other}`"))),
    }
}

fn expect_no_rest(verb: &str, rest: &str, request: Request) -> Result<Request, MalformedRequest> {
    if rest.is_empty() {
        Ok(request)
    } else {
        Err(malformed(format!("{verb} takes no arguments")))
    }
}

fn parse_mutate(rest: &str) -> Result<Request, MalformedRequest> {
    let (action, rest) = rest
        .split_once(char::is_whitespace)
        .map(|(a, r)| (a, r.trim()))
        .unwrap_or((rest, ""));
    match action {
        "DROP" => {
            if rest.is_empty() || rest.contains(char::is_whitespace) {
                return Err(malformed("usage: MUTATE DROP <table>"));
            }
            Ok(Request::Drop(rest.to_string()))
        }
        "REGISTER" => parse_register(rest),
        "ATTACH" => {
            let (table, path) = rest
                .split_once(char::is_whitespace)
                .map(|(t, p)| (t, p.trim()))
                .ok_or_else(|| malformed("usage: MUTATE ATTACH <table> <path>"))?;
            if table.is_empty() || path.is_empty() || path.contains(char::is_whitespace) {
                return Err(malformed("usage: MUTATE ATTACH <table> <path>"));
            }
            Ok(Request::Attach {
                table: table.to_string(),
                path: path.to_string(),
            })
        }
        _ => Err(malformed(
            "usage: MUTATE REGISTER ... | MUTATE ATTACH <table> <path> | MUTATE DROP <table>",
        )),
    }
}

/// `<table> (<col>, ...) VALUES (<value>, ...)[; (<value>, ...)]...`
fn parse_register(rest: &str) -> Result<Request, MalformedRequest> {
    const USAGE: &str = "usage: MUTATE REGISTER <table> (<col>, ...) VALUES (<row>); (<row>) ...";
    let (table, rest) = rest.split_once('(').ok_or_else(|| malformed(USAGE))?;
    let table = table.trim();
    if table.is_empty() || table.contains(char::is_whitespace) {
        return Err(malformed(USAGE));
    }
    let (cols, rest) = rest.split_once(')').ok_or_else(|| malformed(USAGE))?;
    let columns: Vec<String> = cols
        .split(',')
        .map(|c| c.trim().to_string())
        .filter(|c| !c.is_empty())
        .collect();
    if columns.is_empty() {
        return Err(malformed("MUTATE REGISTER needs at least one column"));
    }
    let rest = rest.trim();
    let values = rest
        .strip_prefix("VALUES")
        .ok_or_else(|| malformed(USAGE))?
        .trim();
    let mut rows = Vec::new();
    if !values.is_empty() {
        for group in SemicolonGroups::new(values) {
            let group = group?;
            let group = group.trim();
            let inner = group
                .strip_prefix('(')
                .and_then(|g| g.strip_suffix(')'))
                .ok_or_else(|| malformed("each row must be parenthesized"))?;
            let mut row = Vec::new();
            let mut tok = Tokenizer::new(inner);
            while let Some(v) = tok.next_value_in_list()? {
                row.push(v);
            }
            if row.len() != columns.len() {
                return Err(malformed(format!(
                    "row has {} values but {} columns were declared",
                    row.len(),
                    columns.len()
                )));
            }
            rows.push(row);
        }
    }
    Ok(Request::Register {
        table: table.to_string(),
        columns,
        rows,
    })
}

/// Split on `;` outside single-quoted strings.
struct SemicolonGroups<'a> {
    rest: &'a str,
    done: bool,
}

impl<'a> SemicolonGroups<'a> {
    fn new(s: &'a str) -> Self {
        SemicolonGroups {
            rest: s,
            done: false,
        }
    }
}

impl<'a> Iterator for SemicolonGroups<'a> {
    type Item = Result<&'a str, MalformedRequest>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let mut in_quote = false;
        let mut prev_backslash = false;
        for (i, c) in self.rest.char_indices() {
            match c {
                '\'' if !prev_backslash => in_quote = !in_quote,
                ';' if !in_quote => {
                    let (head, tail) = self.rest.split_at(i);
                    self.rest = &tail[1..];
                    return Some(Ok(head));
                }
                _ => {}
            }
            prev_backslash = c == '\\' && !prev_backslash;
        }
        self.done = true;
        if in_quote {
            return Some(Err(malformed("unterminated string literal")));
        }
        Some(Ok(self.rest))
    }
}

/// Encode one value as its wire literal.
pub fn encode_value(value: &Value) -> String {
    let mut out = String::new();
    encode_value_into(&mut out, value);
    out
}

/// Append the wire literal of `value` to `out`.
fn encode_value_into(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("NULL"),
        Value::Bool(true) => out.push_str("TRUE"),
        Value::Bool(false) => out.push_str("FALSE"),
        Value::Int(i) => {
            use std::fmt::Write;
            write!(out, "{i}").expect("writing to a String cannot fail");
        }
        Value::Str(s) => {
            out.reserve(s.len() + 2);
            out.push('\'');
            for c in s.chars() {
                match c {
                    '\'' => out.push_str("''"),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    other => out.push(other),
                }
            }
            out.push('\'');
        }
        Value::Set(items) => {
            out.push('{');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                encode_value_into(out, item);
            }
            out.push('}');
        }
    }
}

/// Encode one result tuple as a `ROW` data line.
pub fn encode_row(values: &[Value]) -> String {
    let mut out = String::new();
    encode_row_into(&mut out, values);
    out
}

/// Append the `ROW` data line of one result tuple (no newline) to `out`, so
/// a session can encode a whole result into one reused buffer.
pub fn encode_row_into(out: &mut String, values: &[Value]) {
    out.push_str("ROW ");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push('\t');
        }
        encode_value_into(out, v);
    }
}

/// Encode a result schema as a `SCHEMA` data line.
pub fn encode_schema(names: &[&str]) -> String {
    format!("SCHEMA {}", names.join("\t"))
}

/// Parse one wire value literal (the inverse of [`encode_value`], except for
/// sets, which no command accepts).
pub fn parse_value(token: &str) -> Result<Value, MalformedRequest> {
    let token = token.trim();
    match token {
        "NULL" => return Ok(Value::Null),
        "TRUE" => return Ok(Value::Bool(true)),
        "FALSE" => return Ok(Value::Bool(false)),
        _ => {}
    }
    if let Some(inner) = token.strip_prefix('\'') {
        let inner = inner
            .strip_suffix('\'')
            .ok_or_else(|| malformed("unterminated string literal"))?;
        return parse_quoted_body(inner);
    }
    token
        .parse::<i64>()
        .map(Value::Int)
        .map_err(|_| malformed(format!("unparseable value literal `{token}`")))
}

fn parse_quoted_body(inner: &str) -> Result<Value, MalformedRequest> {
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '\\' => match chars.next() {
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    return Err(malformed(format!("unknown escape `\\{other}`")));
                }
                None => return Err(malformed("dangling escape at end of literal")),
            },
            '\'' => match chars.next() {
                Some('\'') => out.push('\''),
                Some(_) | None => {
                    return Err(malformed("stray quote inside string literal"));
                }
            },
            other => out.push(other),
        }
    }
    Ok(Value::from(out))
}

/// Token of the `EXECUTE` argument grammar.
enum Token {
    Word(String),
    Binding(String, Value),
}

/// A whitespace/comma tokenizer that keeps single-quoted literals (with
/// their escapes) intact.
struct Tokenizer<'a> {
    rest: &'a str,
}

impl<'a> Tokenizer<'a> {
    fn new(s: &'a str) -> Self {
        Tokenizer { rest: s }
    }

    /// The byte length of the literal starting at the front of `s` (which
    /// must start with `'`), including both quotes.
    ///
    /// The byte walk cannot hand a non-boundary length to `split_at`: the
    /// returned length always ends on a `'` byte (0x27), which in UTF-8
    /// only ever encodes the quote character itself — continuation bytes
    /// are ≥ 0x80. A `\` that skips into the middle of a multi-byte
    /// character merely lands on a continuation byte that matches neither
    /// arm, so the scan resynchronizes at the next quote.
    fn quoted_len(s: &str) -> Result<usize, MalformedRequest> {
        debug_assert!(s.starts_with('\''));
        let bytes = s.as_bytes();
        let mut i = 1;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'\'' => {
                    if bytes.get(i + 1) == Some(&b'\'') {
                        i += 2; // doubled quote stays inside the literal
                    } else {
                        return Ok(i + 1);
                    }
                }
                _ => i += 1,
            }
        }
        Err(malformed("unterminated string literal"))
    }

    /// Next whitespace-delimited token: a bare word or a `$name=value`
    /// binding (whose value may be a quoted literal containing spaces).
    fn next_token(&mut self) -> Result<Option<Token>, MalformedRequest> {
        self.rest = self.rest.trim_start();
        if self.rest.is_empty() {
            return Ok(None);
        }
        if let Some(binding) = self.rest.strip_prefix('$') {
            let (key, after) = binding
                .split_once('=')
                .ok_or_else(|| malformed("EXECUTE bindings must look like $name=value"))?;
            if key.is_empty() || key.contains(char::is_whitespace) {
                return Err(malformed("EXECUTE bindings must look like $name=value"));
            }
            let (raw, rest) = if after.starts_with('\'') {
                let len = Self::quoted_len(after)?;
                after.split_at(len)
            } else {
                match after.find(char::is_whitespace) {
                    Some(i) => after.split_at(i),
                    None => (after, ""),
                }
            };
            self.rest = rest;
            let value = parse_value(raw)?;
            return Ok(Some(Token::Binding(key.to_string(), value)));
        }
        let (word, rest) = match self.rest.find(char::is_whitespace) {
            Some(i) => self.rest.split_at(i),
            None => (self.rest, ""),
        };
        self.rest = rest;
        Ok(Some(Token::Word(word.to_string())))
    }

    /// Next comma-separated value in a row literal, or `None` at the end.
    fn next_value_in_list(&mut self) -> Result<Option<Value>, MalformedRequest> {
        self.rest = self.rest.trim_start();
        if self.rest.is_empty() {
            return Ok(None);
        }
        let (raw, rest) = if self.rest.starts_with('\'') {
            let len = Self::quoted_len(self.rest)?;
            self.rest.split_at(len)
        } else {
            match self.rest.find(',') {
                Some(i) => self.rest.split_at(i),
                None => (self.rest, ""),
            }
        };
        let value = parse_value(raw)?;
        let rest = rest.trim_start();
        self.rest = match rest.strip_prefix(',') {
            Some(tail) => tail,
            None if rest.is_empty() => rest,
            None => return Err(malformed("row values must be comma-separated")),
        };
        Ok(Some(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_codec_round_trips() {
        let values = [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-42),
            Value::from("plain"),
            Value::from("it's got 'quotes'"),
            Value::from("tabs\tnewlines\nreturns\rback\\slash"),
            Value::from(""),
        ];
        for v in values {
            let encoded = encode_value(&v);
            assert!(!encoded.contains('\n'), "framing-safe: {encoded:?}");
            assert_eq!(parse_value(&encoded).unwrap(), v, "via {encoded:?}");
        }
    }

    #[test]
    fn requests_parse() {
        assert_eq!(parse_request("PING").unwrap(), Request::Ping);
        assert_eq!(
            parse_request("QUERY SELECT a FROM t").unwrap(),
            Request::Query("SELECT a FROM t".into())
        );
        assert_eq!(
            parse_request("PREPARE q1 SELECT a FROM t WHERE b = $b").unwrap(),
            Request::Prepare {
                name: "q1".into(),
                sql: "SELECT a FROM t WHERE b = $b".into()
            }
        );
        assert_eq!(
            parse_request("EXECUTE q1 $b='it''s a test' $n=3").unwrap(),
            Request::Execute {
                name: "q1".into(),
                params: vec![
                    ("b".into(), Value::from("it's a test")),
                    ("n".into(), Value::Int(3)),
                ],
            }
        );
        assert_eq!(
            parse_request("EXPLAIN ANALYZE SELECT a FROM t").unwrap(),
            Request::Explain {
                sql: "SELECT a FROM t".into(),
                analyze: true
            }
        );
        assert_eq!(
            parse_request("MUTATE REGISTER t (a, b) VALUES (1, 'x; y'); (2, NULL)").unwrap(),
            Request::Register {
                table: "t".into(),
                columns: vec!["a".into(), "b".into()],
                rows: vec![
                    vec![Value::Int(1), Value::from("x; y")],
                    vec![Value::Int(2), Value::Null],
                ],
            }
        );
        assert_eq!(
            parse_request("MUTATE DROP t").unwrap(),
            Request::Drop("t".into())
        );
        assert_eq!(
            parse_request("MUTATE ATTACH big /tmp/spool/big.divcol").unwrap(),
            Request::Attach {
                table: "big".into(),
                path: "/tmp/spool/big.divcol".into(),
            }
        );
        assert_eq!(parse_request("SESSION").unwrap(), Request::Session);
        assert_eq!(parse_request("CANCEL 42").unwrap(), Request::Cancel(42));
        assert_eq!(parse_request("CLOSE").unwrap(), Request::Close);
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for line in [
            "",
            "   ",
            "NOSUCH",
            "QUERY",
            "PREPARE q1",
            "EXECUTE",
            "EXECUTE q1 color=blue",
            "EXECUTE q1 $color",
            "MUTATE",
            "MUTATE DROP",
            "MUTATE DROP two words",
            "MUTATE ATTACH",
            "MUTATE ATTACH lonely",
            "MUTATE ATTACH t /path with spaces",
            "MUTATE REGISTER t () VALUES (1)",
            "MUTATE REGISTER t (a) VALUES (1, 2)",
            "MUTATE REGISTER t (a) VALUES 1",
            "MUTATE REGISTER t (a) VALUES ('unterminated)",
            "PING extra",
            "METRICS now",
            "CANCEL",
            "CANCEL not-a-number",
            "CANCEL -3",
            "SESSION 5",
        ] {
            assert!(parse_request(line).is_err(), "should reject {line:?}");
        }
    }

    #[test]
    fn governance_errors_map_to_their_wire_codes() {
        assert_eq!(
            code_for(&div_sql::Error::Cancelled {
                operator: "Scan".into()
            }),
            ErrorCode::Cancelled
        );
        assert_eq!(
            code_for(&div_sql::Error::DeadlineExceeded {
                operator: "CrossProduct".into(),
                limit_ms: 50,
            }),
            ErrorCode::Deadline
        );
        assert_eq!(
            code_for(&div_sql::Error::MemoryBudget {
                operator: "HashJoin".into(),
                budget_rows: 10,
                resident_rows: 25,
            }),
            ErrorCode::Memory
        );
    }

    #[test]
    fn error_codes_round_trip_and_classify() {
        for code in [
            ErrorCode::Malformed,
            ErrorCode::TooLarge,
            ErrorCode::Parse,
            ErrorCode::Plan,
            ErrorCode::UnboundParameter,
            ErrorCode::UnknownParameter,
            ErrorCode::StalePlan,
            ErrorCode::UnknownStatement,
            ErrorCode::Busy,
            ErrorCode::Timeout,
            ErrorCode::Shutdown,
            ErrorCode::Cancelled,
            ErrorCode::Deadline,
            ErrorCode::Memory,
        ] {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
        assert!(ErrorCode::Busy.retryable());
        assert!(!ErrorCode::Parse.retryable());
        // Governance aborts are deliberate outcomes, not transient overload:
        // resending the same statement verbatim would just trip again.
        assert!(!ErrorCode::Cancelled.retryable());
        assert!(!ErrorCode::Deadline.retryable());
        assert!(!ErrorCode::Memory.retryable());
        assert_eq!(
            err_line(ErrorCode::Parse, "bad\nthing"),
            "ERR PARSE bad thing"
        );
    }
}
