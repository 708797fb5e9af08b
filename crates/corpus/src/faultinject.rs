//! Deterministic corpus corruption for fault-injection testing.
//!
//! The assessment pipeline claims it never aborts on malformed input.
//! This module manufactures the malformed input: seeded, reproducible
//! corruptions of generated corpus files — truncation mid-token, brace
//! deletion, random byte flips, and non-UTF-8 noise. Every corruption
//! is a pure function of `(seed, kind, file text)`, so a failing
//! scenario replays exactly from its seed.

use crate::apollo::GeneratedFile;
use crate::generator::rng_for;
use rand::Rng;

/// A corruption applied to one file's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Corruption {
    /// Cut the file at a random interior byte (mid-token, mid-brace).
    Truncate,
    /// Delete a fraction of the `{` / `}` bytes, unbalancing blocks.
    DeleteBraces,
    /// Flip random bits in random bytes.
    ByteFlips,
    /// Splice invalid UTF-8 byte sequences into the text.
    NonUtf8Noise,
}

impl Corruption {
    /// All corruption kinds, in a stable order.
    pub const ALL: [Corruption; 4] = [
        Corruption::Truncate,
        Corruption::DeleteBraces,
        Corruption::ByteFlips,
        Corruption::NonUtf8Noise,
    ];

    /// Stable name, used both for display and seed derivation.
    pub fn name(self) -> &'static str {
        match self {
            Corruption::Truncate => "truncate",
            Corruption::DeleteBraces => "delete-braces",
            Corruption::ByteFlips => "byte-flips",
            Corruption::NonUtf8Noise => "non-utf8-noise",
        }
    }
}

/// Applies `kind` to `text`, seeded by `(seed, kind, path)`. Returns
/// raw bytes: some corruptions intentionally leave valid UTF-8 behind
/// and some do not.
pub fn corrupt(seed: u64, kind: Corruption, path: &str, text: &str) -> Vec<u8> {
    let mut rng = rng_for(seed, &format!("faultinject::{}::{path}", kind.name()));
    let mut bytes = text.as_bytes().to_vec();
    match kind {
        Corruption::Truncate => {
            if bytes.len() > 2 {
                // Prefer cutting inside an open `(` (then `{`) region:
                // a cut at a clean declaration boundary would not be
                // much of a corruption.
                let mut paren = 0i32;
                let mut brace = 0i32;
                let mut in_paren = Vec::new();
                let mut in_brace = Vec::new();
                for (i, &b) in bytes.iter().enumerate() {
                    match b {
                        b'(' => paren += 1,
                        b')' => paren -= 1,
                        b'{' => brace += 1,
                        b'}' => brace -= 1,
                        _ => {}
                    }
                    if i + 1 < bytes.len() {
                        if paren > 0 {
                            in_paren.push(i + 1);
                        } else if brace > 0 {
                            in_brace.push(i + 1);
                        }
                    }
                }
                let pool = if !in_paren.is_empty() {
                    in_paren
                } else {
                    in_brace
                };
                let cut = if pool.is_empty() {
                    rng.gen_range(1..bytes.len())
                } else {
                    pool[rng.gen_range(0..pool.len())]
                };
                bytes.truncate(cut);
            }
        }
        Corruption::DeleteBraces => {
            // Drop ~60% of braces; guaranteed at least one deletion if
            // any brace exists, so the corruption is never a no-op.
            let brace_positions: Vec<usize> = bytes
                .iter()
                .enumerate()
                .filter(|(_, &b)| b == b'{' || b == b'}')
                .map(|(i, _)| i)
                .collect();
            let mut doomed: Vec<usize> = brace_positions
                .iter()
                .copied()
                .filter(|_| rng.gen_range(0..10u32) < 6)
                .collect();
            if doomed.is_empty() {
                if let Some(&first) = brace_positions.first() {
                    doomed.push(first);
                }
            }
            for &i in doomed.iter().rev() {
                bytes.remove(i);
            }
        }
        Corruption::ByteFlips => {
            if !bytes.is_empty() {
                let flips = (bytes.len() / 40).max(8);
                for _ in 0..flips {
                    let i = rng.gen_range(0..bytes.len());
                    let bit = rng.gen_range(0..8u32);
                    bytes[i] ^= 1 << bit;
                }
            }
        }
        Corruption::NonUtf8Noise => {
            // Invalid sequences: lone continuation bytes, truncated
            // multi-byte heads, and 0xFF which is never valid UTF-8.
            let noise: [&[u8]; 3] = [b"\xff\xfe", b"\x80\x80\x80", b"\xc3"];
            let splices = 4 + rng.gen_range(0..4u32) as usize;
            for _ in 0..splices {
                let i = rng.gen_range(0..=bytes.len());
                let chunk = noise[rng.gen_range(0..noise.len())];
                for (k, &b) in chunk.iter().enumerate() {
                    bytes.insert(i + k, b);
                }
            }
        }
    }
    bytes
}

/// A corrupted corpus file, ready to feed to the pipeline.
#[derive(Debug, Clone)]
pub struct CorruptedFile {
    /// Module of the original file.
    pub module: String,
    /// Path of the original file.
    pub path: String,
    /// Which corruption was applied.
    pub kind: Corruption,
    /// The corrupted bytes.
    pub bytes: Vec<u8>,
}

/// Corrupts one generated file with every corruption kind.
pub fn corrupt_all(seed: u64, file: &GeneratedFile) -> Vec<CorruptedFile> {
    Corruption::ALL
        .iter()
        .map(|&kind| CorruptedFile {
            module: file.module.clone(),
            path: file.path.clone(),
            kind,
            bytes: corrupt(seed, kind, &file.path, &file.text),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GeneratedFile {
        GeneratedFile {
            module: "perception".into(),
            path: "perception/track.cc".into(),
            text: "int f(int x) {\n  if (x > 0) { return 1; }\n  return 0;\n}\n".into(),
        }
    }

    #[test]
    fn corruption_is_deterministic() {
        let f = sample();
        for kind in Corruption::ALL {
            let a = corrupt(7, kind, &f.path, &f.text);
            let b = corrupt(7, kind, &f.path, &f.text);
            assert_eq!(a, b, "{kind:?} must be reproducible");
            let c = corrupt(8, kind, &f.path, &f.text);
            assert_ne!(a, c, "{kind:?} must vary with the seed");
        }
    }

    #[test]
    fn every_corruption_changes_the_bytes() {
        let f = sample();
        for kind in Corruption::ALL {
            let out = corrupt(3, kind, &f.path, &f.text);
            assert_ne!(out, f.text.as_bytes(), "{kind:?} was a no-op");
            assert!(!out.is_empty());
        }
    }

    #[test]
    fn truncate_shortens_and_braces_unbalance() {
        let f = sample();
        let t = corrupt(1, Corruption::Truncate, &f.path, &f.text);
        assert!(t.len() < f.text.len());
        let b = corrupt(1, Corruption::DeleteBraces, &f.path, &f.text);
        let opens = b.iter().filter(|&&c| c == b'{').count();
        let closes = b.iter().filter(|&&c| c == b'}').count();
        let orig = f.text.bytes().filter(|&c| c == b'{' || c == b'}').count();
        assert!(opens + closes < orig, "at least one brace deleted");
    }

    #[test]
    fn non_utf8_noise_is_invalid_utf8() {
        let f = sample();
        let n = corrupt(5, Corruption::NonUtf8Noise, &f.path, &f.text);
        assert!(String::from_utf8(n).is_err());
    }

    #[test]
    fn corrupt_all_covers_every_kind() {
        let out = corrupt_all(9, &sample());
        assert_eq!(out.len(), Corruption::ALL.len());
        let kinds: Vec<_> = out.iter().map(|c| c.kind).collect();
        assert_eq!(kinds.as_slice(), Corruption::ALL.as_slice());
    }
}
