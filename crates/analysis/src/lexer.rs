//! A minimal Rust lexer that separates code from comments and blanks
//! string/char literal contents, so the line-oriented rules in
//! [`crate::rules`] never match inside a comment, a string, or a doc
//! example.
//!
//! This is deliberately not a full parser: the rules are token-shaped
//! (method calls, macro invocations, path segments), so per-line code
//! text with literal contents blanked is enough — and it keeps the driver
//! free of external dependencies like `syn`.

/// One source file, split line-by-line into code and comment channels.
#[derive(Debug)]
pub struct FileMap {
    /// Per-line code text. Comments are removed; string/char literal
    /// *contents* are blanked (the delimiting quotes remain so statement
    /// shape is preserved).
    pub code: Vec<String>,
    /// Per-line comment text (without the `//` / `/* */` delimiters
    /// beyond what the comment itself contains).
    pub comments: Vec<String>,
}

impl FileMap {
    /// Number of lines in the file.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True when the file has no lines.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Split `source` into per-line code and comment channels.
pub fn strip(source: &str) -> FileMap {
    let b = source.as_bytes();
    let mut code = Vec::new();
    let mut comments = Vec::new();
    let mut code_line = String::new();
    let mut comment_line = String::new();
    let mut i = 0;
    // The previous code byte, used to tell raw strings (`r"..."`) from
    // identifiers ending in `r` (`for`), and a lifetime from a char literal.
    let mut prev_code: u8 = b' ';

    macro_rules! newline {
        () => {
            code.push(std::mem::take(&mut code_line));
            comments.push(std::mem::take(&mut comment_line));
        };
    }

    while i < b.len() {
        let c = b[i];
        let next = b.get(i + 1).copied().unwrap_or(b' ');
        match c {
            b'\n' => {
                newline!();
                i += 1;
            }
            b'/' if next == b'/' => {
                // Line comment (incl. doc comments): to end of line.
                while i < b.len() && b[i] != b'\n' {
                    comment_line.push(b[i] as char);
                    i += 1;
                }
            }
            b'/' if next == b'*' => {
                // Block comment, possibly nested, possibly multi-line.
                let mut depth = 1usize;
                comment_line.push_str("/*");
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        newline!();
                        i += 1;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        comment_line.push_str("/*");
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        comment_line.push_str("*/");
                        i += 2;
                    } else {
                        comment_line.push(b[i] as char);
                        i += 1;
                    }
                }
            }
            b'"' => {
                i = consume_string(
                    b,
                    i,
                    &mut code,
                    &mut comments,
                    &mut code_line,
                    &mut comment_line,
                );
                prev_code = b'"';
            }
            b'r' | b'b' if !is_ident(prev_code) => {
                // Possible raw/byte string (r"", r#""#, b"", br#""#, b'').
                let mut j = i;
                let mut saw_b = false;
                if b[j] == b'b' {
                    saw_b = true;
                    j += 1;
                }
                let raw = b.get(j).copied() == Some(b'r');
                if raw {
                    j += 1;
                }
                let mut hashes = 0usize;
                while raw && b.get(j).copied() == Some(b'#') {
                    hashes += 1;
                    j += 1;
                }
                if raw && b.get(j).copied() == Some(b'"') {
                    // Raw string: no escapes; ends at `"` + `hashes` hashes.
                    code_line.push_str(if saw_b { "br\"" } else { "r\"" });
                    j += 1;
                    'raw: while j < b.len() {
                        if b[j] == b'\n' {
                            newline!();
                            j += 1;
                        } else if b[j] == b'"' {
                            let mut k = 0;
                            while k < hashes && b.get(j + 1 + k).copied() == Some(b'#') {
                                k += 1;
                            }
                            if k == hashes {
                                code_line.push('"');
                                j += 1 + hashes;
                                break 'raw;
                            }
                            j += 1;
                        } else {
                            j += 1;
                        }
                    }
                    i = j;
                    prev_code = b'"';
                } else if saw_b && !raw && b.get(i + 1).copied() == Some(b'"') {
                    // Byte string b"...": treat like a normal string.
                    code_line.push('b');
                    i = consume_string(
                        b,
                        i + 1,
                        &mut code,
                        &mut comments,
                        &mut code_line,
                        &mut comment_line,
                    );
                    prev_code = b'"';
                } else if saw_b && !raw && b.get(i + 1).copied() == Some(b'\'') {
                    // Byte char b'x'.
                    code_line.push_str("b''");
                    i = consume_char(b, i + 1);
                    prev_code = b'\'';
                } else {
                    code_line.push(c as char);
                    prev_code = c;
                    i += 1;
                }
            }
            b'\'' => {
                // Lifetime or char literal. A char literal is 'X' or an
                // escape; anything else ('a in `&'a str`) is a lifetime.
                let is_char = next == b'\\' || b.get(i + 2).copied() == Some(b'\'');
                if is_char {
                    code_line.push_str("''");
                    i = consume_char(b, i);
                } else {
                    code_line.push('\'');
                    i += 1;
                }
                prev_code = b'\'';
            }
            _ => {
                code_line.push(c as char);
                prev_code = c;
                i += 1;
            }
        }
    }
    if !code_line.is_empty() || !comment_line.is_empty() {
        newline!();
    }
    FileMap { code, comments }
}

/// Consume a `"`-delimited string starting at `i` (which points at the
/// opening quote), blanking its contents. Returns the index after the
/// closing quote. Multi-line strings emit their line breaks.
fn consume_string(
    b: &[u8],
    mut i: usize,
    code: &mut Vec<String>,
    comments: &mut Vec<String>,
    code_line: &mut String,
    comment_line: &mut String,
) -> usize {
    code_line.push('"');
    i += 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'\n' => {
                code.push(std::mem::take(code_line));
                comments.push(std::mem::take(comment_line));
                i += 1;
            }
            b'"' => {
                code_line.push('"');
                return i + 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Consume a `'`-delimited char literal starting at `i` (the opening
/// quote). Returns the index after the closing quote.
fn consume_char(b: &[u8], mut i: usize) -> usize {
    i += 1; // opening quote
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'\'' => return i + 1,
            b'\n' => return i, // malformed; bail at line end
            _ => i += 1,
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::strip;

    #[test]
    fn comments_and_strings_are_separated() {
        let m = strip("let x = \"panic!()\"; // real comment\nx.unwrap();\n");
        assert_eq!(m.code[0], "let x = \"\"; ");
        assert_eq!(m.comments[0], "// real comment");
        assert_eq!(m.code[1], "x.unwrap();");
        assert_eq!(m.comments[1], "");
    }

    #[test]
    fn raw_strings_and_lifetimes_survive() {
        let m = strip("fn f<'a>(s: &'a str) { let r = r#\"un\"wrap\"#; }\n");
        assert!(m.code[0].contains("fn f<'a>(s: &'a str)"));
        assert!(!m.code[0].contains("wrap"));
    }

    #[test]
    fn char_literal_does_not_open_a_string() {
        let m = strip("let q = '\"'; let n = '\\n'; y.expect(\"msg\");\n");
        assert!(m.code[0].contains(".expect(\"\")"), "code: {}", m.code[0]);
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let m = strip("a /* one /* two */ still */ b.unwrap()\n");
        assert!(m.code[0].contains("b.unwrap()"));
        assert!(!m.code[0].contains("still"));
        assert!(m.comments[0].contains("two"));
    }

    #[test]
    fn multiline_strings_blank_every_line() {
        let m = strip("let s = \"line one\nline .unwrap() two\";\nlet y = 1;\n");
        assert_eq!(m.len(), 3);
        assert!(!m.code[1].contains("unwrap"));
        assert_eq!(m.code[2], "let y = 1;");
    }
}
