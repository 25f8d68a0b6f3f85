//! Seeded inputs and run bookkeeping: the workloads' generated corpora,
//! the posts files the program reads, and the identity of the code under
//! test.

use forum_corpus::{Corpus, Domain, GenConfig};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

/// SplitMix64: a tiny deterministic generator for query draws and samples.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// `count` distinct-ish document ids drawn uniformly from `0..n`, sorted
/// and deduplicated: the correctness-check sample.
pub fn sample_docs(seed: u64, n: usize, count: usize) -> Vec<usize> {
    let mut rng = SplitMix::new(seed ^ 0x5a5a_5a5a);
    let mut docs: Vec<usize> = (0..count).map(|_| rng.below(n)).collect();
    docs.sort_unstable();
    docs.dedup();
    docs
}

/// Generates `n` posts of `domain` from `seed`, one line each.
pub fn generate_posts(domain: Domain, n: usize, seed: u64) -> Vec<String> {
    Corpus::generate(&GenConfig {
        domain,
        num_posts: n,
        seed,
    })
    .posts
    .into_iter()
    .map(|p| p.text.replace(['\n', '\r'], " "))
    .collect()
}

/// Writes posts one per line, the format `intentmatch index` reads.
pub fn write_posts(path: &Path, posts: &[String]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for p in posts {
        writeln!(out, "{p}")?;
    }
    out.flush()
}

/// Reads a posts file exactly as `intentmatch index` does: one post per
/// line, blank lines skipped.
pub fn read_posts(path: &Path) -> std::io::Result<Vec<String>> {
    let mut posts = Vec::new();
    for line in BufReader::new(std::fs::File::open(path)?).lines() {
        let line = line?;
        if !line.trim().is_empty() {
            posts.push(line);
        }
    }
    Ok(posts)
}

/// The checkout's git revision when it is a git work tree (read from
/// `.git` without running git), else `"none"`.
pub fn git_rev(root: &Path) -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&root.join(".git/HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&root.join(".git").join(reference)) {
        return rev.trim().to_string();
    }
    read(&root.join(".git/packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "none".into())
}

/// FNV-1a over the program's sources (`crates/`, `compat/` and the root
/// manifests), so a run names the code it measured even in a checkout
/// that is not a git repository.
pub fn source_hash(root: &Path) -> String {
    let mut files = Vec::new();
    for dir in ["crates", "compat"] {
        collect_files(&root.join(dir), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in files
        .iter()
        .chain([root.join("Cargo.toml"), root.join("Cargo.lock")].iter())
    {
        if let Ok(bytes) = std::fs::read(f) {
            feed(
                f.strip_prefix(root)
                    .unwrap_or(f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            feed(&bytes);
        }
    }
    format!("{h:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let path = e.path();
        match e.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_bounded() {
        let a: Vec<usize> = {
            let mut r = SplitMix::new(9);
            (0..100).map(|_| r.below(7)).collect()
        };
        let b: Vec<usize> = {
            let mut r = SplitMix::new(9);
            (0..100).map(|_| r.below(7)).collect()
        };
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| x < 7));
        assert!(a.iter().any(|&x| x != a[0]));
    }

    #[test]
    fn same_seed_same_posts() {
        let a = generate_posts(Domain::Travel, 20, 5);
        assert_eq!(a, generate_posts(Domain::Travel, 20, 5));
        assert_ne!(a, generate_posts(Domain::Travel, 20, 6));
        assert!(a.iter().all(|p| !p.contains('\n')));
    }
}
