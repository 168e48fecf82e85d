//! Verdict codes and the committed problem pool of the serve workload.
//!
//! `data/serve_pool.txt` lists (δ=2) problems by configuration mask — 3-label
//! ones the warm memo answers, and 4-label ones that are misses until first
//! classified — each with the verdict `perfbench-expected` computed on the
//! report path and cross-checked on the bit-sliced lanes when it wrote the
//! file. A line is `<labels> <mask> <verdict code>`.

use std::path::{Path, PathBuf};

use lcl_core::Complexity;
use lcl_problems::canonical::CanonicalFamily;

/// Short code of a verdict: `c`, `s` (log*), `l`, `p<k>`, `u`.
pub fn code(c: Complexity) -> String {
    match c {
        Complexity::Constant => "c".into(),
        Complexity::LogStar => "s".into(),
        Complexity::Log => "l".into(),
        Complexity::Polynomial { exponent } => format!("p{exponent}"),
        Complexity::Unsolvable => "u".into(),
    }
}

/// Parses [`code`]'s output.
pub fn parse_code(s: &str) -> Option<Complexity> {
    Some(match s {
        "c" => Complexity::Constant,
        "s" => Complexity::LogStar,
        "l" => Complexity::Log,
        "u" => Complexity::Unsolvable,
        _ => Complexity::Polynomial {
            exponent: s.strip_prefix('p')?.parse().ok()?,
        },
    })
}

/// The committed pool: `(mask, verdict)` per label count.
#[derive(Debug, Default)]
pub struct Pool {
    /// (δ=2, 3-label) problems.
    pub three: Vec<(u64, Complexity)>,
    /// (δ=2, 4-label) problems, pairwise renaming-inequivalent.
    pub four: Vec<(u64, Complexity)>,
}

/// Path of the committed pool.
pub fn pool_path() -> PathBuf {
    crate::report::bench_dir().join("data/serve_pool.txt")
}

/// Reads the committed pool.
pub fn load_pool(path: &Path) -> Result<Pool, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut pool = Pool::default();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let bad = || format!("malformed pool line: {line}");
        let t: Vec<&str> = line.split_whitespace().collect();
        if t.len() != 3 {
            return Err(bad());
        }
        let mask: u64 = t[1].parse().map_err(|_| bad())?;
        let verdict = parse_code(t[2]).ok_or_else(bad)?;
        match t[0] {
            "3" => pool.three.push((mask, verdict)),
            "4" => pool.four.push((mask, verdict)),
            _ => return Err(bad()),
        }
    }
    if pool.three.is_empty() || pool.four.is_empty() {
        return Err(format!(
            "{} lists no problems of some label count",
            path.display()
        ));
    }
    Ok(pool)
}

/// The problem text of `mask` in `family`, with label `i` written as
/// `names[i]` and configurations listed in `order` (a permutation of the
/// mask's configurations, by position). Renaming labels and reordering lines
/// leaves the problem's canonical form unchanged.
pub fn problem_text(
    family: &CanonicalFamily,
    mask: u64,
    names: &[&str],
    order: &[usize],
) -> String {
    let problem = family.problem_at(mask);
    let configs = problem.configurations();
    let mut out = String::new();
    for &i in order {
        let c = &configs[i];
        out.push_str(names[c.parent().index()]);
        out.push_str(" :");
        for child in c.children() {
            out.push(' ');
            out.push_str(names[child.index()]);
        }
        out.push('\n');
    }
    out
}

/// Whether every one of `labels` labels occurs in the mask's configurations.
pub fn uses_every_label(family: &CanonicalFamily, mask: u64, labels: usize) -> bool {
    let problem = family.problem_at(mask);
    let mut seen = 0u32;
    for c in problem.configurations() {
        seen |= 1 << c.parent().index();
        for child in c.children() {
            seen |= 1 << child.index();
        }
    }
    seen == (1u32 << labels) - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_codes_round_trip() {
        for c in [
            Complexity::Constant,
            Complexity::LogStar,
            Complexity::Log,
            Complexity::Polynomial { exponent: 3 },
            Complexity::Unsolvable,
        ] {
            assert_eq!(parse_code(&code(c)), Some(c));
        }
        assert_eq!(parse_code("x"), None);
    }
}
