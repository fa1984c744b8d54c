//! Output digests: every op's simulated outputs hash to one FNV-1a value
//! that must match its pinned value (default seed) and every earlier
//! repeat of the same op (any seed).

use std::collections::HashMap;

/// Seed whose digests are pinned in `pinned.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Streaming 64-bit FNV-1a.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) -> &mut Digest {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Digest {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f64(&mut self, v: f64) -> &mut Digest {
        self.u64(v.to_bits())
    }

    pub fn f64s(&mut self, vs: &[f64]) -> &mut Digest {
        for &v in vs {
            self.f64(v);
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Checks op digests against the pinned table and against repeats.
pub struct Checker {
    pinned: HashMap<String, u64>,
    /// Missing pins are failures (off only while printing new pins).
    strict: bool,
    seen: HashMap<String, u64>,
}

impl Checker {
    /// Pins for `workload` at `seed`: lines `<workload> <seed|*> <key> <hex>`.
    pub fn new(workload: &str, seed: u64, strict: bool) -> Checker {
        let mut pinned = HashMap::new();
        for line in include_str!("../pinned.txt").lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.len() != 4 || f[0] != workload {
                continue;
            }
            let applies = f[1] == "*" || f[1].parse::<u64>() == Ok(seed);
            if applies {
                let v = u64::from_str_radix(f[3], 16).expect("pinned digests are hex");
                pinned.insert(f[2].to_string(), v);
            }
        }
        let pins_expected = strict && (seed == DEFAULT_SEED || !pinned.is_empty());
        Checker {
            pinned,
            strict: pins_expected,
            seen: HashMap::new(),
        }
    }

    /// Whether `digest` is the right output of op `key`.
    pub fn check(&mut self, key: &str, digest: u64) -> bool {
        let pin_ok = match self.pinned.get(key) {
            Some(&p) => p == digest,
            None => !self.strict,
        };
        let repeat_ok = *self.seen.entry(key.to_string()).or_insert(digest) == digest;
        pin_ok && repeat_ok
    }

    /// Every digest seen, as `pinned.txt` lines.
    pub fn pin_lines(&self, workload: &str, seed_field: &str) -> Vec<String> {
        let mut lines: Vec<String> = self
            .seen
            .iter()
            .map(|(k, v)| format!("{workload} {seed_field} {k} {v:016x}"))
            .collect();
        lines.sort();
        lines
    }
}
