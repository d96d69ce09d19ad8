//! The two-level content-addressed result store.
//!
//! Completed compilation responses are stored under their content key (the
//! 32-hex-character digest computed by [`crate::server`] over the canonical
//! FPCore text, target fingerprint, seed, and config fingerprint — see
//! `docs/SERVICE.md`). Lookups go through:
//!
//! 1. an **in-memory LRU** bounded by entry count — the warm path, lock-held
//!    map probe only;
//! 2. an optional **on-disk store** shared across daemon restarts — entries
//!    are checksummed, written atomically (temp file + rename), and a corrupt
//!    or truncated entry is deleted and treated as a miss rather than served.
//!
//! A disk hit is promoted into the memory level. Only *successful* responses
//! are ever stored: errors are cheap to recompute, and the interesting ones
//! (panics, resource exhaustion) are not deterministic facts about the key.
//!
//! The fault points `store.read` and `store.write` (see [`fault::SITES`])
//! inject the two interesting disk failures: a read fault behaves as a
//! corrupt entry (miss), a write fault as a failed persist (entry stays
//! memory-only). Both must leave the daemon fully functional.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// On-disk entry header magic + format version. Bump the version whenever the
/// body format, the checksum, or the key digest algorithm changes: old
/// entries then read as unknown-format and are recovered as misses. The key
/// digest covers `Config::fingerprint`, so a change to the fields it hashes
/// counts (docs/SERVICE.md).
const DISK_MAGIC: &str = "chassis-store 2";

/// Configuration for a [`ResultStore`].
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Maximum entries held in memory before LRU eviction.
    pub memory_capacity: usize,
    /// Directory for the persistent level (`None`: memory only).
    pub disk_dir: Option<PathBuf>,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            memory_capacity: 1024,
            disk_dir: None,
        }
    }
}

/// Which level answered a [`ResultStore::get`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreHit {
    /// Served from the in-memory LRU.
    Memory,
    /// Served from disk (and promoted into memory).
    Disk,
}

/// Point-in-time counters for `/stats` and the tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered from memory.
    pub hits_memory: u64,
    /// Lookups answered from disk.
    pub hits_disk: u64,
    /// Lookups answered by neither level.
    pub misses: u64,
    /// Entries evicted from the memory level.
    pub evictions: u64,
    /// Corrupt/truncated disk entries deleted during reads.
    pub corrupt_recovered: u64,
    /// Writes skipped or failed (fault injection or real I/O errors).
    pub writes_skipped: u64,
}

/// Outcome of one disk-level read attempt (internal).
enum DiskRead {
    Found(String),
    Absent,
    Corrupt,
}

struct MemoryLevel {
    /// key → (last-use tick, body). Recency is a monotone tick; eviction
    /// scans for the minimum. O(capacity) per eviction, which is fine at the
    /// capacities the daemon uses and keeps the structure trivially correct.
    entries: HashMap<String, (u64, String)>,
    tick: u64,
}

/// The two-level store. All methods take `&self`; the memory level is behind
/// one mutex, disk I/O happens outside it.
pub struct ResultStore {
    memory: Mutex<MemoryLevel>,
    capacity: usize,
    disk_dir: Option<PathBuf>,
    hits_memory: AtomicU64,
    hits_disk: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    corrupt_recovered: AtomicU64,
    writes_skipped: AtomicU64,
}

fn lock(m: &Mutex<MemoryLevel>) -> MutexGuard<'_, MemoryLevel> {
    // A poisoned store mutex means a panic mid-insert; the map itself is
    // always structurally valid, so recover rather than propagate.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ResultStore {
    /// Opens a store. The disk directory is created if missing.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the disk directory cannot be created.
    pub fn open(config: &StoreConfig) -> io::Result<ResultStore> {
        if let Some(dir) = &config.disk_dir {
            fs::create_dir_all(dir)?;
        }
        Ok(ResultStore {
            memory: Mutex::new(MemoryLevel {
                entries: HashMap::new(),
                tick: 0,
            }),
            capacity: config.memory_capacity.max(1),
            disk_dir: config.disk_dir.clone(),
            hits_memory: AtomicU64::new(0),
            hits_disk: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            corrupt_recovered: AtomicU64::new(0),
            writes_skipped: AtomicU64::new(0),
        })
    }

    /// Looks up a key, trying memory then disk. A disk hit is promoted into
    /// the memory level.
    pub fn get(&self, key: &str) -> Option<(String, StoreHit)> {
        {
            let mut mem = lock(&self.memory);
            mem.tick += 1;
            let tick = mem.tick;
            if let Some((last_use, body)) = mem.entries.get_mut(key) {
                *last_use = tick;
                let body = body.clone();
                drop(mem);
                self.hits_memory.fetch_add(1, Ordering::Relaxed);
                return Some((body, StoreHit::Memory));
            }
        }
        if let Some(body) = self.disk_read(key) {
            self.insert_memory(key, &body);
            self.hits_disk.fetch_add(1, Ordering::Relaxed);
            return Some((body, StoreHit::Disk));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Stores a response body under its key, in memory and (if configured)
    /// on disk. Overwrites are idempotent: the body for a key is a pure
    /// function of the key's content, so last-write-wins is safe.
    pub fn put(&self, key: &str, body: &str) {
        self.insert_memory(key, body);
        self.disk_write(key, body);
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits_memory: self.hits_memory.load(Ordering::Relaxed),
            hits_disk: self.hits_disk.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            corrupt_recovered: self.corrupt_recovered.load(Ordering::Relaxed),
            writes_skipped: self.writes_skipped.load(Ordering::Relaxed),
        }
    }

    /// Number of entries currently in the memory level.
    pub fn memory_len(&self) -> usize {
        lock(&self.memory).entries.len()
    }

    fn insert_memory(&self, key: &str, body: &str) {
        let mut mem = lock(&self.memory);
        mem.tick += 1;
        let tick = mem.tick;
        mem.entries.insert(key.to_owned(), (tick, body.to_owned()));
        let mut evicted = 0;
        while mem.entries.len() > self.capacity {
            let Some(oldest) = mem
                .entries
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            mem.entries.remove(&oldest);
            evicted += 1;
        }
        drop(mem);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// `dir/<first two hex chars>/<key>` — sharded so a big store does not
    /// put every entry in one directory.
    ///
    /// This is `pub(crate)`-visible via the entry layout documented in
    /// `docs/SERVICE.md`; the recovery tests poke entries directly.
    fn entry_path(dir: &Path, key: &str) -> PathBuf {
        let shard = key.get(0..2).unwrap_or("xx");
        dir.join(shard).join(key)
    }

    /// Reads the disk level. The disk level is fallible *by design*: any
    /// failure — injected abort, injected panic, real I/O surprise, corrupt
    /// entry — may only cost a cache hit, never serving. Panics (the
    /// `store.read` point can be armed with one) are caught at this boundary
    /// so a persistence bug cannot unwind into a connection handler.
    fn disk_read(&self, key: &str) -> Option<String> {
        let dir = self.disk_dir.as_ref()?;
        let path = Self::entry_path(dir, key);
        let outcome = std::panic::catch_unwind(|| {
            if fault::point("store.read") {
                // Injected read fault: behaves exactly like a corrupt entry.
                return DiskRead::Corrupt;
            }
            let Ok(raw) = fs::read(&path) else {
                return DiskRead::Absent;
            };
            match decode_entry(&raw) {
                Some(body) => DiskRead::Found(body),
                None => {
                    // Corrupt, truncated, or unknown-format entry: delete it
                    // so the slot can be refilled, and report a miss.
                    let _ = fs::remove_file(&path);
                    DiskRead::Corrupt
                }
            }
        });
        match outcome {
            Ok(DiskRead::Found(body)) => Some(body),
            Ok(DiskRead::Absent) => None,
            Ok(DiskRead::Corrupt) | Err(_) => {
                self.corrupt_recovered.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Writes the disk level; same boundary rules as [`ResultStore::disk_read`]
    /// (a failed persist leaves the entry memory-only and counts
    /// `writes_skipped`).
    fn disk_write(&self, key: &str, body: &str) {
        let Some(dir) = self.disk_dir.as_ref() else {
            return;
        };
        let outcome = std::panic::catch_unwind(|| {
            if fault::point("store.write") {
                return None;
            }
            Self::try_disk_write(dir, key, body)
        });
        if !matches!(outcome, Ok(Some(()))) {
            self.writes_skipped.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn try_disk_write(dir: &Path, key: &str, body: &str) -> Option<()> {
        let path = Self::entry_path(dir, key);
        let shard_dir = path.parent()?;
        fs::create_dir_all(shard_dir).ok()?;
        // Unique temp name: pid + a process-wide counter (two daemons sharing
        // a directory must not clobber each other's in-progress writes).
        static TMP_NONCE: AtomicU64 = AtomicU64::new(0);
        let nonce = TMP_NONCE.fetch_add(1, Ordering::Relaxed);
        let tmp = shard_dir.join(format!(".tmp-{}-{nonce:x}-{key}", std::process::id()));
        let mut file = fs::File::create(&tmp).ok()?;
        let written = file
            .write_all(encode_entry(body).as_bytes())
            .and_then(|()| file.sync_all());
        drop(file);
        if written.is_err() || fs::rename(&tmp, &path).is_err() {
            let _ = fs::remove_file(&tmp);
            return None;
        }
        Some(())
    }
}

/// FNV-1a 64 over the body: the disk entry checksum. Stability across builds
/// matters (entries outlive binaries); cryptographic strength does not
/// (the store directory is as trusted as the daemon binary itself).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `chassis-store 2 <len> <fnv64 hex>\n<body>`.
fn encode_entry(body: &str) -> String {
    format!(
        "{DISK_MAGIC} {} {:016x}\n{body}",
        body.len(),
        fnv64(body.as_bytes())
    )
}

fn decode_entry(raw: &[u8]) -> Option<String> {
    let text = std::str::from_utf8(raw).ok()?;
    let (header, body) = text.split_once('\n')?;
    let rest = header.strip_prefix(DISK_MAGIC)?;
    let mut fields = rest.split_whitespace();
    let len: usize = fields.next()?.parse().ok()?;
    let checksum = u64::from_str_radix(fields.next()?, 16).ok()?;
    if fields.next().is_some() || body.len() != len || fnv64(body.as_bytes()) != checksum {
        return None;
    }
    Some(body.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memory_store(capacity: usize) -> ResultStore {
        ResultStore::open(&StoreConfig {
            memory_capacity: capacity,
            disk_dir: None,
        })
        .unwrap()
    }

    #[test]
    fn memory_level_hits_and_misses() {
        let store = memory_store(8);
        assert!(store.get("k1").is_none());
        store.put("k1", "body1");
        assert_eq!(
            store.get("k1"),
            Some(("body1".to_owned(), StoreHit::Memory))
        );
        let stats = store.stats();
        assert_eq!((stats.hits_memory, stats.misses), (1, 1));
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let store = memory_store(2);
        store.put("a", "A");
        store.put("b", "B");
        // Touch `a` so `b` is now the least recently used.
        assert!(store.get("a").is_some());
        store.put("c", "C");
        assert_eq!(store.memory_len(), 2);
        assert!(store.get("a").is_some(), "recently used entry survives");
        assert!(store.get("c").is_some(), "new entry survives");
        assert!(store.get("b").is_none(), "LRU entry was evicted");
        assert_eq!(store.stats().evictions, 1);
    }

    #[test]
    fn entry_encoding_round_trips_and_rejects_tampering() {
        let body = "{\"key\":\"abc\",\"cost\":1.5}";
        let encoded = encode_entry(body);
        assert_eq!(decode_entry(encoded.as_bytes()).as_deref(), Some(body));
        // Flip one body byte: checksum mismatch.
        let mut tampered = encoded.clone().into_bytes();
        let last = tampered.len() - 1;
        tampered[last] ^= 1;
        assert_eq!(decode_entry(&tampered), None);
        // Truncate: length mismatch.
        assert_eq!(decode_entry(&encoded.as_bytes()[..encoded.len() - 2]), None);
        // Unknown version: recovered as miss.
        assert_eq!(decode_entry(b"chassis-store 9 1 00\nx"), None);
        // So is an intact version-1 entry: its key hashed a configuration
        // fingerprint over other fields.
        let previous = format!("chassis-store 1 1 {:016x}\nx", fnv64(b"x"));
        assert_eq!(decode_entry(previous.as_bytes()), None);
    }
}
