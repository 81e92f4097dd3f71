//! Repo-invariant lint pass: `cargo xtask lint`.
//!
//! A hand-rolled (std-only, no deps) source walker that enforces the
//! invariants the compiler can't: panic discipline on the serving read
//! path, justification comments on every unsafe block and every atomic
//! ordering choice, and the fail-point site table staying in sync with
//! the code. CI runs this as a required gate; see ARCHITECTURE.md
//! §"Verification" for the rule rationale.
//!
//! Rules (waivable per-site with `// lint: allow(<rule>) — reason`):
//!
//! * `no_panic` — the read path: `crates/serve/src` and
//!   `crates/core/src/pipeline.rs`, where the S1→S2→S3 funnel lives
//!   (non-test): no `.unwrap()`, `.expect(`, `panic!`, `unreachable!`,
//!   `todo!`, `unimplemented!`. A panic on the serve read path would
//!   quarantine a healthy index (the catch_unwind supervisor can't tell a
//!   bug from corruption), so the read path must degrade, not assert.
//!   Write-path sites carry an explicit waiver naming why they're exempt.
//! * `safety_comment` — every `unsafe` occurrence (block, impl, fn) in
//!   any crate's `src` needs a `// SAFETY:` comment on the same line or
//!   in the contiguous comment/code block above it.
//! * `ordering_comment` — every atomic access naming an
//!   `Ordering::{Relaxed,Acquire,Release,AcqRel,SeqCst}` needs an
//!   `// ordering:` justification in the same contiguous block.
//! * `failpoint_documented` — every `fail_point!("name")` site must
//!   appear in ARCHITECTURE.md's fail-point table (§3.7), so the chaos
//!   surface is always documented.
//! * `obs_site_documented` — every af-obs instrumentation site
//!   (`span!("name")`, `observe!("name")`, `event!("name")`) must
//!   appear in ARCHITECTURE.md's observability site table (§8), so the
//!   telemetry surface is always documented. `crates/obs/src` is
//!   exempt: it defines the macros, and its docs/tests use sample
//!   names.
//!
//! The scanner is line-based: trailing `//` comments are stripped before
//! code matching, doc/comment-only lines are skipped, `#[cfg(test)]`
//! items are tracked by brace depth and exempted, and the "contiguous
//! block" for justification lookup runs upward to the nearest blank line
//! (capped at 16 lines) — so one comment can bless an adjacent run of
//! sites, e.g. a counters struct literal where every field is a Relaxed
//! load.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(),
        _ => {
            eprintln!("usage: cargo xtask lint");
            ExitCode::from(2)
        }
    }
}

// ------------------------------------------------------------ the pass

struct Violation {
    file: PathBuf,
    line: usize,
    rule: &'static str,
    message: String,
}

fn lint() -> ExitCode {
    let root = repo_root();
    let arch = std::fs::read_to_string(root.join("ARCHITECTURE.md")).unwrap_or_default();
    let mut violations = Vec::new();
    let mut files = Vec::new();
    collect_rs(&root.join("crates"), &mut files);
    files.sort();
    for file in &files {
        let src = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("xtask lint: cannot read {}: {e}", file.display());
                return ExitCode::FAILURE;
            }
        };
        lint_file(file, &src, &arch, &mut violations);
    }
    if violations.is_empty() {
        println!("xtask lint: {} files clean", files.len());
        return ExitCode::SUCCESS;
    }
    for v in &violations {
        let rel = v.file.strip_prefix(&root).unwrap_or(&v.file);
        eprintln!("{}:{}: [{}] {}", rel.display(), v.line, v.rule, v.message);
    }
    eprintln!("xtask lint: {} violation(s)", violations.len());
    ExitCode::FAILURE
}

/// `src/` `.rs` files of every crate under `dir` (recursive).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            // Only descend into `src` trees (skip `tests/`, `benches/`,
            // `target/`): integration tests are exempt from every rule.
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "src" {
                collect_rs_all(&path, out);
            } else if !name.starts_with('.') && name != "target" {
                collect_rs(&path, out);
            }
        }
    }
}

fn collect_rs_all(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_all(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn repo_root() -> PathBuf {
    // xtask runs via `cargo xtask` from anywhere in the workspace; the
    // manifest dir is <root>/xtask.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().map(Path::to_path_buf).unwrap_or(manifest)
}

// ------------------------------------------------------- per-file scan

/// Files under the `no_panic` rule: the serving crate and the module
/// holding the funnel every query runs.
fn on_read_path(path: &str) -> bool {
    path.contains("crates/serve/src") || path.ends_with("crates/core/src/pipeline.rs")
}

/// One source line, pre-split into its code part (trailing `//` comment
/// stripped, empty for comment-only lines) and raw text (for comment
/// content lookups).
struct Line<'a> {
    raw: &'a str,
    code: &'a str,
}

fn lint_file(file: &Path, src: &str, arch: &str, out: &mut Vec<Violation>) {
    let path_str = file.to_string_lossy().replace('\\', "/");
    let on_read_path = on_read_path(&path_str);
    let in_obs = path_str.contains("crates/obs/src");

    let mut lines: Vec<Line<'_>> = Vec::new();
    let mut in_block_comment = false;
    for raw in src.lines() {
        let code = code_part(raw, &mut in_block_comment);
        lines.push(Line { raw, code });
    }
    let test_mask = test_regions(&lines);

    for (i, line) in lines.iter().enumerate() {
        let lineno = i + 1;
        let code = line.code;
        if code.trim().is_empty() {
            continue;
        }
        let in_test = test_mask[i];

        // R1 no_panic: read path, non-test code only.
        if on_read_path && !in_test {
            const PANICKY: &[&str] =
                &[".unwrap()", ".expect(", "panic!(", "unreachable!(", "todo!(", "unimplemented!("];
            for pat in PANICKY {
                if code.contains(pat) && !waived(&lines, i, "no_panic") {
                    out.push(Violation {
                        file: file.to_path_buf(),
                        line: lineno,
                        rule: "no_panic",
                        message: format!(
                            "`{pat}` in serving code — the read path must degrade, not \
                             panic (waive write-path sites with `// lint: allow(no_panic)`)"
                        ),
                    });
                }
            }
        }

        // R2 safety_comment: every unsafe occurrence needs `// SAFETY:`.
        if !in_test && has_word(code, "unsafe") && !code.trim_start().starts_with('#') {
            let justified = line.raw.contains("SAFETY:")
                || block_above_contains(&lines, i, "SAFETY:")
                || waived(&lines, i, "safety_comment");
            if !justified {
                out.push(Violation {
                    file: file.to_path_buf(),
                    line: lineno,
                    rule: "safety_comment",
                    message: "`unsafe` without a `// SAFETY:` comment in the same block".into(),
                });
            }
        }

        // R3 ordering_comment: atomic ordering choices need justification.
        if !in_test && names_atomic_ordering(code) {
            let justified = comment_of(line.raw).contains("ordering:")
                || block_above_contains(&lines, i, "ordering:")
                || waived(&lines, i, "ordering_comment");
            if !justified {
                out.push(Violation {
                    file: file.to_path_buf(),
                    line: lineno,
                    rule: "ordering_comment",
                    message: "atomic access without an `// ordering:` justification".into(),
                });
            }
        }

        // R4 failpoint_documented: site names must be in ARCHITECTURE.md.
        if !in_test {
            if let Some(name) = failpoint_name(code) {
                let documented = arch.contains(&format!("`{name}`"))
                    || waived(&lines, i, "failpoint_documented");
                if !documented {
                    let mut message = String::new();
                    let _ = write!(
                        message,
                        "fail point `{name}` is not in ARCHITECTURE.md's fail-point table"
                    );
                    out.push(Violation {
                        file: file.to_path_buf(),
                        line: lineno,
                        rule: "failpoint_documented",
                        message,
                    });
                }
            }
        }

        // R5 obs_site_documented: instrumentation sites must be in
        // ARCHITECTURE.md's observability site table (§8).
        if !in_test && !in_obs {
            if let Some(name) = obs_site_name(code) {
                let documented =
                    arch.contains(&format!("`{name}`")) || waived(&lines, i, "obs_site_documented");
                if !documented {
                    let mut message = String::new();
                    let _ = write!(
                        message,
                        "obs site `{name}` is not in ARCHITECTURE.md's observability site table"
                    );
                    out.push(Violation {
                        file: file.to_path_buf(),
                        line: lineno,
                        rule: "obs_site_documented",
                        message,
                    });
                }
            }
        }
    }
}

// --------------------------------------------------------- line lexing

/// The code part of a line: block comments and the trailing `//` comment
/// removed, with just enough string-literal tracking that a `//` inside
/// a string doesn't truncate the line. Returns a slice of `raw`.
fn code_part<'a>(raw: &'a str, in_block_comment: &mut bool) -> &'a str {
    let bytes = raw.as_bytes();
    let mut in_string = false;
    let mut i = 0;
    while i < bytes.len() {
        if *in_block_comment {
            if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                *in_block_comment = false;
                i += 2;
                continue;
            }
            i += 1;
            continue;
        }
        match bytes[i] {
            b'\\' if in_string => i += 1, // skip the escaped byte
            b'"' => in_string = !in_string,
            b'/' if !in_string && bytes.get(i + 1) == Some(&b'/') => {
                return &raw[..i];
            }
            b'/' if !in_string && bytes.get(i + 1) == Some(&b'*') => {
                // Treat the rest of the line as comment; multi-segment
                // lines (`/* a */ code`) are rare enough to ignore.
                *in_block_comment = true;
                return &raw[..i];
            }
            _ => {}
        }
        i += 1;
    }
    if *in_block_comment {
        ""
    } else {
        raw
    }
}

/// The trailing `//` comment of a line (empty if none).
fn comment_of(raw: &str) -> &str {
    let mut ignore = false;
    let code = code_part(raw, &mut ignore);
    &raw[code.len()..]
}

/// `needle` as a whole word (not a fragment of a longer identifier).
fn has_word(code: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(needle) {
        let at = start + pos;
        let before = code[..at].chars().next_back();
        let after = code[at + needle.len()..].chars().next();
        let is_ident = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if !is_ident(before) && !is_ident(after) {
            return true;
        }
        start = at + needle.len();
    }
    false
}

/// Does the code name one of the five atomic memory orderings?
/// (`cmp::Ordering`'s variants are `Less`/`Equal`/`Greater`, so matching
/// the variant names distinguishes the two enums without type info.)
fn names_atomic_ordering(code: &str) -> bool {
    [
        "Ordering::Relaxed",
        "Ordering::Acquire",
        "Ordering::Release",
        "Ordering::AcqRel",
        "Ordering::SeqCst",
    ]
    .iter()
    .any(|p| code.contains(p))
}

/// The string literal of a `fail_point!("...")` invocation, skipping the
/// macro's own definition (`macro_rules!`).
fn failpoint_name(code: &str) -> Option<&str> {
    let at = code.find("fail_point!")?;
    if code.contains("macro_rules!") {
        return None;
    }
    let rest = &code[at..];
    let open = rest.find('"')? + 1;
    let close = open + rest[open..].find('"')?;
    Some(&rest[open..close])
}

/// The site literal of an af-obs instrumentation macro invocation
/// (`span!("name", ...)`, `observe!("name", ...)`, `event!("name", ...)`),
/// skipping macro definitions. The literal is the macro's first argument,
/// so the first `"..."` after the earliest matching macro is the site.
fn obs_site_name(code: &str) -> Option<&str> {
    if code.contains("macro_rules!") {
        return None;
    }
    let at = ["span!(", "observe!(", "event!("]
        .iter()
        .filter_map(|m| code.find(m).map(|i| i + m.len()))
        .min()?;
    let rest = &code[at..];
    let open = rest.find('"')? + 1;
    let close = open + rest[open..].find('"')?;
    Some(&rest[open..close])
}

// ---------------------------------------------------- block-level scans

/// Walk upward through the contiguous block (to the nearest blank line,
/// capped at 16 lines) looking for `needle` anywhere — comments included.
fn block_above_contains(lines: &[Line<'_>], from: usize, needle: &str) -> bool {
    let lo = from.saturating_sub(16);
    for i in (lo..from).rev() {
        let raw = lines[i].raw;
        if raw.trim().is_empty() {
            return false;
        }
        if raw.contains(needle) {
            return true;
        }
    }
    false
}

/// A `// lint: allow(rule)` waiver on the line itself or in the block
/// above it.
fn waived(lines: &[Line<'_>], at: usize, rule: &str) -> bool {
    let marker = format!("lint: allow({rule})");
    lines[at].raw.contains(&marker) || block_above_contains(lines, at, &marker)
}

/// Per-line mask: true where the line belongs to a `#[cfg(test)]` item,
/// tracked by brace depth from the attribute's item.
fn test_regions(lines: &[Line<'_>]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut depth = 0i64;
    let mut pending_attr = false;
    // Depth at entry of the active test region (regions don't nest in
    // practice — an inner `#[cfg(test)]` is already masked).
    let mut test_entry: Option<i64> = None;
    for (i, line) in lines.iter().enumerate() {
        let code = line.code;
        let trimmed = code.trim();
        if test_entry.is_none()
            && trimmed.starts_with("#[")
            && trimmed.contains("cfg(")
            && has_word(trimmed, "test")
        {
            pending_attr = true;
        }
        let opens = code.bytes().filter(|&b| b == b'{').count() as i64;
        let closes = code.bytes().filter(|&b| b == b'}').count() as i64;
        if let Some(entry) = test_entry {
            mask[i] = true;
            depth += opens - closes;
            if depth <= entry {
                test_entry = None;
            }
            continue;
        }
        if pending_attr {
            mask[i] = true;
            if opens > 0 {
                test_entry = Some(depth);
                depth += opens - closes;
                if depth <= test_entry.unwrap() {
                    // Single-line item: `#[cfg(test)] fn f() {}`.
                    test_entry = None;
                }
                pending_attr = false;
                continue;
            } else if trimmed.ends_with(';') {
                // `#[cfg(test)] use ...;` — single-item attribute.
                pending_attr = false;
            }
        }
        depth += opens - closes;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(src: &str) -> (Vec<String>, Vec<String>) {
        // Returns (code parts, raw lines) for assertion convenience.
        let mut in_block = false;
        let mut codes = Vec::new();
        for raw in src.lines() {
            codes.push(code_part(raw, &mut in_block).to_string());
        }
        (codes, src.lines().map(str::to_string).collect())
    }

    #[test]
    fn code_part_strips_comments_not_strings() {
        let (codes, _) =
            mk("let x = 1; // trailing\nlet y = \"a // b\";\n/* open\nstill\n*/ after");
        assert_eq!(codes[0], "let x = 1; ");
        assert_eq!(codes[1], "let y = \"a // b\";");
        assert_eq!(codes[2], "");
        assert_eq!(codes[3], "");
        // After a mid-line `*/` the whole line counts as code again
        // (the stray `*/` prefix is harmless to every matcher).
        assert_eq!(codes[4], "*/ after");
    }

    #[test]
    fn test_regions_mask_cfg_test_items() {
        let src = "fn a() {\n    x();\n}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn b() {}\n";
        let mut in_block = false;
        let lines: Vec<Line<'_>> =
            src.lines().map(|raw| Line { raw, code: code_part(raw, &mut in_block) }).collect();
        let mask = test_regions(&lines);
        assert_eq!(mask, [false, false, false, true, true, true, true, false]);
    }

    #[test]
    fn failpoint_name_extracts_site_not_macro_def() {
        assert_eq!(
            failpoint_name("    fail_point!(\"serve::compact\", Err);"),
            Some("serve::compact")
        );
        assert_eq!(failpoint_name("macro_rules! fail_point {"), None);
        assert_eq!(failpoint_name("let x = 1;"), None);
    }

    #[test]
    fn obs_site_name_extracts_site_not_macro_def() {
        assert_eq!(
            obs_site_name("    let s1 = af_obs::span!(\"serve::s1_scan\");"),
            Some("serve::s1_scan")
        );
        assert_eq!(
            obs_site_name("af_obs::observe!(\"serve::compact_backlog\", n);"),
            Some("serve::compact_backlog")
        );
        assert_eq!(
            obs_site_name("af_obs::event!(\"serve::quarantine\", \"imposed\", epoch);"),
            Some("serve::quarantine")
        );
        assert_eq!(obs_site_name("macro_rules! span {"), None);
        assert_eq!(obs_site_name("let x = 1;"), None);
    }

    #[test]
    fn no_panic_covers_the_serving_crate_and_the_funnel() {
        assert!(on_read_path("/repo/crates/serve/src/lib.rs"));
        assert!(on_read_path("/repo/crates/core/src/pipeline.rs"));
        assert!(!on_read_path("/repo/crates/core/src/artifact.rs"));
        assert!(!on_read_path("/repo/crates/core/src/pipeline.rs.bak"));
    }

    #[test]
    fn word_matching_ignores_identifier_fragments() {
        assert!(has_word("unsafe {", "unsafe"));
        assert!(!has_word("deny(unsafe_op_in_unsafe_fn)", "unsafe"));
    }
}
