//! SQL `LIKE` pattern matching (`%` = any run, `_` = any single char),
//! with `\` as the escape character.
//!
//! The matcher walks both strings by byte offset (advancing whole UTF-8
//! chars) — no per-call allocation, which matters because `LIKE` sits
//! on the row-filter hot path.

/// Decode the char at byte offset `i`.
fn char_at(s: &str, i: usize) -> char {
    // Offsets only ever advance by `len_utf8()` of decoded chars (or
    // past 1-byte ASCII metachars), so `i` is always a char boundary
    // inside the string and the default is never taken.
    s.get(i..)
        .and_then(|t| t.chars().next())
        .unwrap_or_default()
}

/// Match `text` against the SQL LIKE `pattern`.
///
/// Escape semantics: `\` makes the next pattern char literal (so `\%`
/// matches a percent sign, `\\` a backslash). A trailing `\` with
/// nothing to escape matches a literal backslash, mirroring Hive's
/// lenient treatment rather than erroring.
pub fn like_match(text: &str, pattern: &str) -> bool {
    // Iterative two-pointer algorithm with backtracking on the last '%'.
    let (mut ti, mut pi) = (0usize, 0usize); // byte offsets
    let mut star: Option<(usize, usize)> = None; // (pattern idx after %, text idx)
    while ti < text.len() {
        if pi < pattern.len() {
            match char_at(pattern, pi) {
                '%' => {
                    star = Some((pi + 1, ti));
                    pi += 1;
                    continue;
                }
                '_' => {
                    ti += char_at(text, ti).len_utf8();
                    pi += 1;
                    continue;
                }
                '\\' if pi + 1 < pattern.len() => {
                    let lit = char_at(pattern, pi + 1);
                    let tc = char_at(text, ti);
                    if tc == lit {
                        ti += tc.len_utf8();
                        pi += 1 + lit.len_utf8();
                        continue;
                    }
                }
                c => {
                    let tc = char_at(text, ti);
                    if tc == c {
                        ti += tc.len_utf8();
                        pi += c.len_utf8();
                        continue;
                    }
                }
            }
        }
        // Mismatch: backtrack to last '%' if any, consuming one more char.
        match star {
            Some((sp, st)) => {
                let adv = char_at(text, st).len_utf8();
                pi = sp;
                ti = st + adv;
                star = Some((sp, st + adv));
            }
            None => return false,
        }
    }
    // Remaining pattern must be all '%' ('%' is ASCII, so a byte scan
    // is exact; an escaped `\%` in the tail correctly fails it).
    pattern[pi..].bytes().all(|b| b == b'%')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_and_wildcards() {
        assert!(like_match("hello", "hello"));
        assert!(!like_match("hello", "help"));
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "%ell%"));
        assert!(like_match("hello", "h_llo"));
        assert!(!like_match("hello", "h_lo"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
    }

    #[test]
    fn multiple_percent_backtracking() {
        assert!(like_match("abcbcd", "a%bcd"));
        assert!(like_match("aaa", "%a%a%"));
        assert!(!like_match("ab", "%a%a%"));
        assert!(like_match("Sports & Fitness", "Sports%"));
    }

    #[test]
    fn escapes() {
        assert!(like_match("50%", "50\\%"));
        assert!(!like_match("50x", "50\\%"));
        assert!(like_match("a_b", "a\\_b"));
        assert!(!like_match("axb", "a\\_b"));
        assert!(like_match("a\\b", "a\\\\b")); // \\ escapes the backslash itself
        assert!(!like_match("ab", "a\\\\b"));
    }

    #[test]
    fn trailing_backslash_is_literal() {
        assert!(like_match("a\\", "a\\"));
        assert!(!like_match("ab", "a\\"));
        assert!(like_match("x\\", "%\\"));
        assert!(!like_match("x", "%\\"));
        assert!(!like_match("", "\\"));
    }

    #[test]
    fn escaped_metachars_after_backtrack_point() {
        // The escape pair sits after a '%', so it is re-tried at every
        // backtrack position.
        assert!(like_match("ab%", "%\\%"));
        assert!(!like_match("abx", "%\\%"));
        assert!(like_match("a_b", "%\\_%"));
        assert!(!like_match("axb", "%\\_%"));
        assert!(like_match("100% done", "%\\%%"));
        assert!(like_match("pct_50%", "%\\_%\\%"));
    }

    #[test]
    fn multibyte_chars_count_as_one() {
        assert!(like_match("héllo", "h_llo"));
        assert!(like_match("héllo", "h%o"));
        assert!(like_match("日本語", "__語"));
        assert!(!like_match("日本語", "_語"));
        assert!(like_match("日本語", "%語"));
    }
}
