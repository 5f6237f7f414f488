//! Minimal JSON helpers: string escaping, NaN-safe number formatting, and a
//! well-formedness lint.
//!
//! The workspace deliberately has no serde; trace exports and bench files are
//! rendered by hand. These helpers centralize the two classic failure modes
//! of hand-rendered JSON — unescaped strings and non-finite floats (which
//! have no JSON representation) — and give tests and CLI smoke paths a cheap
//! way to validate that an emitted document actually parses.

/// Escape a string for embedding inside JSON double quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format a float as a valid JSON number. NaN and infinities have no JSON
/// representation; they render as `0.0` so documents stay machine-parseable
/// (`null` would break numeric consumers, and bare `NaN` is invalid JSON).
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` on a whole f64 prints without a dot; keep numbers
        // unambiguously floating point for typed consumers.
        if s.contains('.') || s.contains('e') || s.contains("inf") {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".to_string()
    }
}

/// Like [`fmt_f64`] but with fixed precision.
pub fn fmt_f64_prec(v: f64, prec: usize) -> String {
    if v.is_finite() {
        format!("{v:.prec$}")
    } else {
        format!("{:.prec$}", 0.0)
    }
}

/// Validate that `s` is a single well-formed JSON document.
///
/// This is a structural lint, not a full parser: it checks value grammar,
/// string escapes, and number syntax, and that the whole input is consumed.
/// Good enough to catch truncated output, trailing commas, bare `NaN`, and
/// unescaped quotes in hand-rendered documents.
pub fn lint(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut pos = skip_ws(b, 0);
    pos = value(b, pos)?;
    pos = skip_ws(b, pos);
    if pos != b.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && matches!(b[i], b' ' | b'\t' | b'\n' | b'\r') {
        i += 1;
    }
    i
}

fn value(b: &[u8], i: usize) -> Result<usize, String> {
    let i = skip_ws(b, i);
    match b.get(i) {
        None => Err(format!("unexpected end of input at byte {i}")),
        Some(b'{') => object(b, i),
        Some(b'[') => array(b, i),
        Some(b'"') => string(b, i),
        Some(b't') => literal(b, i, "true"),
        Some(b'f') => literal(b, i, "false"),
        Some(b'n') => literal(b, i, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
        Some(c) => Err(format!("unexpected byte {:?} at {i}", *c as char)),
    }
}

fn literal(b: &[u8], i: usize, word: &str) -> Result<usize, String> {
    if b[i..].starts_with(word.as_bytes()) {
        Ok(i + word.len())
    } else {
        Err(format!("invalid literal at byte {i} (expected {word})"))
    }
}

fn object(b: &[u8], i: usize) -> Result<usize, String> {
    let mut i = skip_ws(b, i + 1);
    if b.get(i) == Some(&b'}') {
        return Ok(i + 1);
    }
    loop {
        i = skip_ws(b, i);
        if b.get(i) != Some(&b'"') {
            return Err(format!("expected object key at byte {i}"));
        }
        i = string(b, i)?;
        i = skip_ws(b, i);
        if b.get(i) != Some(&b':') {
            return Err(format!("expected ':' at byte {i}"));
        }
        i = value(b, i + 1)?;
        i = skip_ws(b, i);
        match b.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => return Ok(i + 1),
            _ => return Err(format!("expected ',' or '}}' at byte {i}")),
        }
    }
}

fn array(b: &[u8], i: usize) -> Result<usize, String> {
    let mut i = skip_ws(b, i + 1);
    if b.get(i) == Some(&b']') {
        return Ok(i + 1);
    }
    loop {
        i = value(b, i)?;
        i = skip_ws(b, i);
        match b.get(i) {
            Some(b',') => i += 1,
            Some(b']') => return Ok(i + 1),
            _ => return Err(format!("expected ',' or ']' at byte {i}")),
        }
    }
}

fn string(b: &[u8], i: usize) -> Result<usize, String> {
    // b[i] == '"'
    let mut i = i + 1;
    while let Some(&c) = b.get(i) {
        match c {
            b'"' => return Ok(i + 1),
            b'\\' => match b.get(i + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => i += 2,
                Some(b'u') => {
                    let hex = b
                        .get(i + 2..i + 6)
                        .ok_or_else(|| format!("truncated \\u escape at byte {i}"))?;
                    if !hex.iter().all(|c| c.is_ascii_hexdigit()) {
                        return Err(format!("invalid \\u escape at byte {i}"));
                    }
                    i += 6;
                }
                _ => return Err(format!("invalid escape at byte {i}")),
            },
            0x00..=0x1f => return Err(format!("unescaped control byte at {i}")),
            _ => i += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn number(b: &[u8], mut i: usize) -> Result<usize, String> {
    let start = i;
    if b.get(i) == Some(&b'-') {
        i += 1;
    }
    let int_digits = digits(b, &mut i);
    if int_digits == 0 {
        return Err(format!("invalid number at byte {start}"));
    }
    if b.get(i) == Some(&b'.') {
        i += 1;
        if digits(b, &mut i) == 0 {
            return Err(format!("invalid number fraction at byte {start}"));
        }
    }
    if matches!(b.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(b.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        if digits(b, &mut i) == 0 {
            return Err(format!("invalid number exponent at byte {start}"));
        }
    }
    Ok(i)
}

fn digits(b: &[u8], i: &mut usize) -> usize {
    let start = *i;
    while matches!(b.get(*i), Some(c) if c.is_ascii_digit()) {
        *i += 1;
    }
    *i - start
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lints_valid_documents() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "-1.5e-3",
            r#"{"a": [1, 2.0, {"b": "x\ny"}], "c": null}"#,
            "  {\n \"k\" : [ ] } \n",
        ] {
            assert!(lint(ok).is_ok(), "should accept: {ok}");
        }
    }

    #[test]
    fn rejects_invalid_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\": NaN}",
            "{\"a\": 1} extra",
            "\"unterminated",
            "{'single': 1}",
            "[1 2]",
            "01e",
        ] {
            assert!(lint(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn fmt_f64_never_emits_non_finite() {
        assert_eq!(fmt_f64(f64::NAN), "0.0");
        assert_eq!(fmt_f64(f64::INFINITY), "0.0");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "0.0");
        assert_eq!(fmt_f64(1.5), "1.5");
        assert_eq!(fmt_f64(2.0), "2.0");
        assert_eq!(fmt_f64(0.0), "0.0");
        assert_eq!(fmt_f64_prec(f64::NAN, 3), "0.000");
        assert_eq!(fmt_f64_prec(0.12345, 3), "0.123");
        // Everything fmt_f64 produces must itself lint as JSON.
        for v in [f64::NAN, f64::INFINITY, -0.0, 1e300, 1e-300, 42.0] {
            assert!(lint(&fmt_f64(v)).is_ok());
        }
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        let doc = format!("\"{}\"", escape("weird \"quoted\"\n\ttext\\"));
        assert!(lint(&doc).is_ok());
    }
}
