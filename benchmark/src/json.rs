//! The two JSON encoders the benchmark needs (the workspace carries no
//! serialization crate, and nothing here ever parses JSON).

/// `s` as a JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `v` with every digit it was measured with; JSON has no NaN or
/// infinity, so a non-finite value (a ratio over zero) reads as 0.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped_and_numbers_stay_finite() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
        assert_eq!(number(1.25), "1.25");
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(3.0), "3");
    }
}
