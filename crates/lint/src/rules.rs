//! The rule engine: token-pattern checks over a lexed file, with
//! per-file rule sets (tiers), `#[cfg(test)]` exclusion, and waiver
//! suppression.
//!
//! Every rule guards an invariant the workspace's tests and services
//! rely on but the compiler cannot see:
//!
//! * the **sim-deterministic** rules reject anything that could break
//!   bit-for-bit replay of a simulation (wall clocks, environment
//!   reads, randomized-iteration collections, ambient entropy);
//! * **counter-safety** rejects `wrapping_add`/`wrapping_sub`/
//!   `wrapping_mul` outside designated hash/RNG sites — the class of
//!   bug behind the fio double-reap, where a wrapped occupancy counter
//!   silently halted an engine;
//! * the **service** rules reject `unwrap()`/`expect()` and silent
//!   `let _ =` on I/O in fleet-worker paths, where a panic kills a
//!   worker and a swallowed error hides a dying store.

use crate::lexer::{lex, Token, TokenKind};
use crate::waiver::{parse_waivers, target_line, Scope};
use std::fmt;

/// Every rule the engine knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleId {
    /// `SystemTime` / `Instant` in simulation code.
    WallClock,
    /// `std::env` reads in simulation code.
    EnvRead,
    /// `HashMap` / `HashSet` in simulation code.
    HashCollections,
    /// Ambient entropy (`thread_rng`, `OsRng`, `from_entropy`).
    Entropy,
    /// `wrapping_add` / `wrapping_sub` / `wrapping_mul` outside
    /// designated hash/RNG sites.
    CounterSafety,
    /// `.unwrap()` / `.expect(..)` in service paths.
    PanicUnwrap,
    /// `let _ =` discarding a fallible I/O result in service paths.
    SilentIo,
    /// Bare `std::fs` access in store/queue paths that must route
    /// filesystem mutations through the `Fs` seam for fault injection.
    FsSeam,
    /// A malformed waiver comment (unknown rule, missing reason).
    WaiverSyntax,
    /// A waiver that suppressed nothing.
    UnusedWaiver,
}

impl RuleId {
    /// The rule's name as used in waivers and reports.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::WallClock => "wall-clock",
            RuleId::EnvRead => "env-read",
            RuleId::HashCollections => "hash-collections",
            RuleId::Entropy => "entropy",
            RuleId::CounterSafety => "counter-safety",
            RuleId::PanicUnwrap => "panic-unwrap",
            RuleId::SilentIo => "silent-io",
            RuleId::FsSeam => "fs-seam",
            RuleId::WaiverSyntax => "waiver-syntax",
            RuleId::UnusedWaiver => "unused-waiver",
        }
    }

    /// Parses a rule name (waivers may only name waivable rules).
    pub fn parse(name: &str) -> Option<RuleId> {
        RuleId::WAIVABLE.iter().copied().find(|r| r.name() == name)
    }

    /// One-line description for `--list-rules`.
    pub fn describe(self) -> &'static str {
        match self {
            RuleId::WallClock => "forbids SystemTime/Instant: sim time must come from SimTime",
            RuleId::EnvRead => "forbids std::env reads: behaviour must be a function of the spec",
            RuleId::HashCollections => {
                "forbids HashMap/HashSet: iteration order breaks bit-for-bit replay"
            }
            RuleId::Entropy => "forbids thread_rng/OsRng/from_entropy: RNGs must be seeded",
            RuleId::CounterSafety => {
                "forbids wrapping_add/sub/mul outside designated hash/RNG sites"
            }
            RuleId::PanicUnwrap => "forbids unwrap()/expect(): a panic kills a fleet worker",
            RuleId::SilentIo => "forbids `let _ =` on fallible I/O: propagate or warn",
            RuleId::FsSeam => {
                "forbids bare std::fs in store/queue paths: route through the Fs seam \
                 so fault injection and crash tests cover the operation"
            }
            RuleId::WaiverSyntax => "waivers must name a known rule and carry a `-- <reason>`",
            RuleId::UnusedWaiver => "waivers that suppress nothing must be removed",
        }
    }

    /// The rules a waiver may name (the meta rules are not waivable).
    pub const WAIVABLE: &'static [RuleId] = &[
        RuleId::WallClock,
        RuleId::EnvRead,
        RuleId::HashCollections,
        RuleId::Entropy,
        RuleId::CounterSafety,
        RuleId::PanicUnwrap,
        RuleId::SilentIo,
        RuleId::FsSeam,
    ];

    /// Every rule, for `--list-rules`.
    pub const ALL: &'static [RuleId] = &[
        RuleId::WallClock,
        RuleId::EnvRead,
        RuleId::HashCollections,
        RuleId::Entropy,
        RuleId::CounterSafety,
        RuleId::PanicUnwrap,
        RuleId::SilentIo,
        RuleId::FsSeam,
        RuleId::WaiverSyntax,
        RuleId::UnusedWaiver,
    ];
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The file the finding is in (as passed to [`lint_source`]).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Which rule fired.
    pub rule: RuleId,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

const WRAPPING: &[&str] = &["wrapping_add", "wrapping_sub", "wrapping_mul"];
const ENTROPY: &[&str] = &["thread_rng", "OsRng", "from_entropy"];
const ENV_READS: &[&str] = &[
    "var",
    "var_os",
    "vars",
    "vars_os",
    "args",
    "args_os",
    "current_dir",
    "temp_dir",
];
/// Identifiers that mark a discarded expression as fallible I/O. A
/// heuristic by design: it trades a few theoretical misses for zero
/// dependencies, and every workspace I/O helper funnels through these.
const IO_MARKERS: &[&str] = &[
    "fs",
    "File",
    "io",
    "write",
    "write_all",
    "flush",
    "rename",
    "remove_file",
    "remove_dir_all",
    "create_dir_all",
    "read_dir",
    "read_to_string",
    "set_modified",
    "set_len",
    "sync_all",
    "copy",
    "heartbeat",
];

/// Lints `src` (labelled `file` in findings) against `rules`. Test-only
/// items (`#[cfg(test)]`, `#[test]`) are exempt: they do not ship in
/// the replayed simulation or the fleet worker.
pub fn lint_source(file: &str, src: &str, rules: &[RuleId]) -> Vec<Finding> {
    if rules.is_empty() {
        return Vec::new();
    }
    let lexed = lex(src);
    let tokens = &lexed.tokens;
    let mut findings = Vec::new();

    let (waivers, waiver_errors) = parse_waivers(&lexed.comments);
    for e in &waiver_errors {
        findings.push(Finding {
            file: file.to_string(),
            line: e.line,
            rule: RuleId::WaiverSyntax,
            message: e.message.clone(),
        });
    }
    let fn_ranges: Vec<Option<(u32, u32)>> = waivers
        .iter()
        .map(|w| match w.scope {
            Scope::Fn => fn_body_lines(tokens, w.line),
            _ => None,
        })
        .collect();
    let line_targets: Vec<u32> = waivers
        .iter()
        .map(|w| match w.scope {
            Scope::Line => target_line(w.line, tokens),
            _ => 0,
        })
        .collect();
    let mut used = vec![false; waivers.len()];

    let skip = test_item_ranges(tokens);
    let mut raw: Vec<(u32, RuleId, String)> = Vec::new();
    let mut i = 0usize;
    let mut skip_iter = skip.iter().peekable();
    while i < tokens.len() {
        if let Some(&&(lo, hi)) = skip_iter.peek() {
            if i >= lo {
                i = hi + 1;
                skip_iter.next();
                continue;
            }
        }
        check_token(tokens, i, rules, &mut raw);
        i += 1;
    }

    for (line, rule, message) in raw {
        let waived = waivers.iter().enumerate().find(|(wi, w)| {
            w.rule == rule
                && match w.scope {
                    Scope::File => true,
                    Scope::Fn => fn_ranges[*wi].is_some_and(|(lo, hi)| (lo..=hi).contains(&line)),
                    Scope::Line => line_targets[*wi] == line,
                }
        });
        match waived {
            Some((wi, _)) => used[wi] = true,
            None => findings.push(Finding {
                file: file.to_string(),
                line,
                rule,
                message,
            }),
        }
    }

    for (wi, w) in waivers.iter().enumerate() {
        if !used[wi] {
            findings.push(Finding {
                file: file.to_string(),
                line: w.line,
                rule: RuleId::UnusedWaiver,
                message: format!(
                    "waiver for `{}` suppressed nothing — remove it (or the rule is not \
                     enabled for this file)",
                    w.rule
                ),
            });
        }
    }

    findings.sort_by_key(|f| f.line);
    findings
}

fn check_token(tokens: &[Token], i: usize, rules: &[RuleId], out: &mut Vec<(u32, RuleId, String)>) {
    let t = &tokens[i];
    if t.kind != TokenKind::Ident {
        return;
    }
    let has = |r: RuleId| rules.contains(&r);
    let prev = i.checked_sub(1).map(|p| &tokens[p]);
    let next = tokens.get(i + 1);
    let next2 = tokens.get(i + 2);

    if has(RuleId::CounterSafety) && WRAPPING.contains(&t.text.as_str()) {
        out.push((
            t.line,
            RuleId::CounterSafety,
            format!(
                "`{}` can walk a counter through zero and corrupt occupancy tracking \
                 (the fio double-reap bug class); use checked/saturating arithmetic, or \
                 waive a designated hash/RNG site with a reason",
                t.text
            ),
        ));
    }
    if has(RuleId::WallClock) && (t.text == "SystemTime" || t.text == "Instant") {
        out.push((
            t.line,
            RuleId::WallClock,
            format!(
                "`{}` reads the wall clock; simulation behaviour must be a pure function \
                 of the spec (use SimTime)",
                t.text
            ),
        ));
    }
    if has(RuleId::EnvRead)
        && t.text == "env"
        && next.is_some_and(|n| n.is_punct(':'))
        && next2.is_some_and(|n| n.is_punct(':'))
        && tokens
            .get(i + 3)
            .is_some_and(|n| ENV_READS.contains(&n.text.as_str()))
    {
        out.push((
            t.line,
            RuleId::EnvRead,
            format!(
                "`env::{}` makes behaviour depend on the process environment; thread \
                 configuration through the spec instead",
                tokens[i + 3].text
            ),
        ));
    }
    if has(RuleId::HashCollections) && (t.text == "HashMap" || t.text == "HashSet") {
        out.push((
            t.line,
            RuleId::HashCollections,
            format!(
                "`{}` iterates in randomized order and breaks bit-for-bit replay; use \
                 BTreeMap/BTreeSet, a Vec, or an index table",
                t.text
            ),
        ));
    }
    if has(RuleId::Entropy) && ENTROPY.contains(&t.text.as_str()) {
        out.push((
            t.line,
            RuleId::Entropy,
            format!(
                "`{}` draws ambient entropy; every RNG must be seeded from the spec",
                t.text
            ),
        ));
    }
    if has(RuleId::PanicUnwrap)
        && (t.text == "unwrap" || t.text == "expect")
        && prev.is_some_and(|p| p.is_punct('.'))
        && next.is_some_and(|n| n.is_punct('('))
    {
        out.push((
            t.line,
            RuleId::PanicUnwrap,
            format!(
                "`.{}()` panics in a fleet-worker path; propagate a typed error (a bad \
                 task file must never kill a worker)",
                t.text
            ),
        ));
    }
    if has(RuleId::FsSeam)
        && t.text == "fs"
        && next.is_some_and(|n| n.is_punct(':'))
        && next2.is_some_and(|n| n.is_punct(':'))
    {
        out.push((
            t.line,
            RuleId::FsSeam,
            "bare `fs::` access in a store/queue path bypasses the `Fs` seam; go \
             through the injected filesystem handle so fault injection and crash \
             tests cover this operation"
                .to_string(),
        ));
    }
    if has(RuleId::SilentIo)
        && t.text == "let"
        && next.is_some_and(|n| n.is_ident("_"))
        && next2.is_some_and(|n| n.is_punct('='))
    {
        if let Some(marker) = discarded_io_marker(tokens, i + 3) {
            out.push((
                t.line,
                RuleId::SilentIo,
                format!(
                    "`let _ =` discards a fallible I/O result (`{marker}`); propagate \
                     the error or log a warning"
                ),
            ));
        }
    }
}

/// Scans the discarded expression (tokens from `start` to the `;` at
/// the same nesting depth) for an identifier marking fallible I/O.
fn discarded_io_marker(tokens: &[Token], start: usize) -> Option<String> {
    let mut depth = 0i32;
    for t in &tokens[start.min(tokens.len())..] {
        match t.kind {
            TokenKind::Punct => match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if depth == 0 => return None,
                _ => {}
            },
            TokenKind::Ident if IO_MARKERS.contains(&t.text.as_str()) => {
                return Some(t.text.clone())
            }
            _ => {}
        }
    }
    None
}

/// Token-index ranges (inclusive) of items behind `#[cfg(test)]` /
/// `#[test]` attributes: the attribute itself through the end of the
/// annotated item (`;`-terminated, or its matching `}`).
fn test_item_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if ranges.last().is_some_and(|&(_, hi)| i <= hi) {
            i += 1;
            continue;
        }
        if !tokens[i].is_punct('#') || !tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            i += 1;
            continue;
        }
        let attr_start = i;
        // Find the attribute's closing bracket.
        let mut j = i + 1;
        let mut bdepth = 0i32;
        let mut idents: Vec<&str> = Vec::new();
        while j < tokens.len() {
            match tokens[j].kind {
                TokenKind::Punct if tokens[j].text == "[" => bdepth += 1,
                TokenKind::Punct if tokens[j].text == "]" => {
                    bdepth -= 1;
                    if bdepth == 0 {
                        break;
                    }
                }
                TokenKind::Ident => idents.push(&tokens[j].text),
                _ => {}
            }
            j += 1;
        }
        let is_test_attr =
            idents.contains(&"test") && (idents.contains(&"cfg") || idents.len() == 1);
        if !is_test_attr {
            i = j + 1;
            continue;
        }
        // Skip any further attributes, then the item itself.
        let mut k = j + 1;
        while tokens.get(k).is_some_and(|t| t.is_punct('#'))
            && tokens.get(k + 1).is_some_and(|t| t.is_punct('['))
        {
            let mut d = 0i32;
            k += 1;
            while k < tokens.len() {
                if tokens[k].is_punct('[') {
                    d += 1;
                } else if tokens[k].is_punct(']') {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                k += 1;
            }
            k += 1;
        }
        // The item ends at a top-level `;` or its body's matching `}`.
        let mut d = 0i32;
        while k < tokens.len() {
            let t = &tokens[k];
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => d += 1,
                    ")" | "]" => d -= 1,
                    ";" if d == 0 => break,
                    "{" if d == 0 => {
                        k = match_brace(tokens, k);
                        break;
                    }
                    _ => {}
                }
            }
            k += 1;
        }
        ranges.push((attr_start, k.min(tokens.len().saturating_sub(1))));
        i = k + 1;
    }
    ranges
}

/// Index of the `}` matching the `{` at `open` (or the last token).
fn match_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// The `(first, last)` source lines of the body of the first `fn`
/// declared at or after `after_line` — the reach of an `allow-fn`
/// waiver placed above that function.
fn fn_body_lines(tokens: &[Token], after_line: u32) -> Option<(u32, u32)> {
    let fn_idx = tokens
        .iter()
        .position(|t| t.line > after_line && t.is_ident("fn"))?;
    let open = (fn_idx..tokens.len()).find(|&k| tokens[k].is_punct('{'))?;
    let close = match_brace(tokens, open);
    Some((tokens[fn_idx].line, tokens[close].line))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIM: &[RuleId] = &[
        RuleId::WallClock,
        RuleId::EnvRead,
        RuleId::HashCollections,
        RuleId::Entropy,
        RuleId::CounterSafety,
    ];

    #[test]
    fn cfg_test_items_are_exempt() {
        let src = r#"
            #[cfg(test)]
            mod tests {
                use std::collections::HashMap;
                fn helper() { let t = std::time::Instant::now(); }
            }
            fn real() {}
        "#;
        assert!(lint_source("f.rs", src, SIM).is_empty());
    }

    #[test]
    fn cfg_test_use_item_is_exempt_but_following_code_is_not() {
        let src = "
            #[cfg(test)]
            use std::collections::HashSet;
            fn live() { let m: HashMap<u32, u32> = HashMap::new(); }
        ";
        let f = lint_source("f.rs", src, SIM);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == RuleId::HashCollections));
    }

    #[test]
    fn fn_waiver_covers_only_that_fn() {
        let src = "
            // a4-lint: allow-fn(counter-safety) -- SWAR mixer
            fn mix(x: u64) -> u64 { x.wrapping_mul(3) }
            fn counter(x: u64) -> u64 { x.wrapping_sub(1) }
        ";
        let f = lint_source("f.rs", src, SIM);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RuleId::CounterSafety);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn unused_waiver_is_reported() {
        let src = "// a4-lint: allow(wall-clock) -- stale excuse\nfn f() {}\n";
        let f = lint_source("f.rs", src, SIM);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::UnusedWaiver);
    }

    #[test]
    fn empty_rule_set_lints_nothing() {
        assert!(lint_source("f.rs", "fn f() { x.wrapping_add(1); }", &[]).is_empty());
    }
}
