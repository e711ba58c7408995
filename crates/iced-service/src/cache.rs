//! Content-addressed result cache with an LRU byte budget and optional
//! disk spill.
//!
//! Keys are 128-bit digests derived from the canonical hashes of the
//! request's semantic inputs (DFG, `CgraConfig`, `MapperOptions`, verb
//! extras) via two independently seeded [`StableHasher`] passes. Values
//! are the *rendered result JSON bytes*: a warm hit replays exactly the
//! bytes the cold request produced, which is what the byte-identical
//! warm/cold guarantee rests on.
//!
//! Eviction is least-recently-used under a byte budget. When a spill
//! directory is configured, evicted and flushed entries are written to
//! disk — keyed by their digest, so a stale entry can never be returned
//! for a different request — and promoted back into memory on a hit.
//!
//! Spill files carry an integrity header (`iced-cache-v1 <checksum>`) over
//! the payload. A file that fails verification — truncated, bit-flipped,
//! or written by an older format — is deleted and the lookup reported as
//! a miss, so disk corruption degrades to a recompute, never to serving
//! corrupt bytes.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::sync::Mutex;

use iced_hash::StableHasher;

/// Spill-file format tag; bumping it invalidates all on-disk entries.
const SPILL_MAGIC: &str = "iced-cache-v1";

/// Checksum of a spill payload (seed distinct from the key-derivation
/// seeds, so a payload can never collide with its own key material).
fn payload_digest(bytes: &str) -> u64 {
    let mut h = StableHasher::with_seed(0x1ced_0003);
    h.write_bytes(bytes.as_bytes());
    h.finish()
}

/// Parses a spill file and returns the payload iff the header checks out:
/// correct magic, well-formed checksum, and a digest that matches the
/// payload bytes. Anything else — truncation, bit flips, a legacy
/// headerless file — returns `None`.
fn verify_spill(raw: &str) -> Option<&str> {
    let (header, payload) = raw.split_once('\n')?;
    let (magic, digest_hex) = header.split_once(' ')?;
    if magic != SPILL_MAGIC || digest_hex.len() != 16 {
        return None;
    }
    let digest = u64::from_str_radix(digest_hex, 16).ok()?;
    (digest == payload_digest(payload)).then_some(payload)
}

/// A 128-bit content digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(pub u64, pub u64);

impl CacheKey {
    /// Derives a key from pre-hashed parts with two independent seeds.
    pub fn derive(parts: &[u64]) -> CacheKey {
        let mut a = StableHasher::with_seed(0x1ced_0001);
        let mut b = StableHasher::with_seed(0x1ced_0002);
        for &p in parts {
            a.write_u64(p);
            b.write_u64(p);
        }
        CacheKey(a.finish(), b.finish())
    }

    /// Hex form used for spill file names and response metadata.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.0, self.1)
    }

    /// Parses the [`CacheKey::hex`] form back into a key (used by the
    /// cluster `cache_put` verb). Returns `None` for anything that is
    /// not exactly 32 hex characters.
    pub fn from_hex(s: &str) -> Option<CacheKey> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(CacheKey(hi, lo))
    }
}

#[derive(Debug)]
struct Entry {
    bytes: Arc<String>,
    tick: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<CacheKey, Entry>,
    bytes: u64,
    tick: u64,
}

/// The shared result cache.
#[derive(Debug)]
pub struct ResultCache {
    inner: Mutex<Inner>,
    budget: u64,
    spill_dir: Option<PathBuf>,
}

impl ResultCache {
    /// Creates a cache with `budget` bytes of in-memory capacity and an
    /// optional spill directory (created eagerly; spill is disabled if
    /// creation fails — the service keeps running without it).
    pub fn new(budget: u64, spill_dir: Option<PathBuf>) -> Self {
        let spill_dir = spill_dir.filter(|d| std::fs::create_dir_all(d).is_ok());
        ResultCache {
            inner: Mutex::new(Inner::default()),
            budget: budget.max(1),
            spill_dir,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned mutex means a panic while holding the lock; the
        // cache's state is a plain map + counters, still structurally
        // sound, so recover rather than wedging the whole daemon.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn spill_path(&self, key: CacheKey) -> Option<PathBuf> {
        self.spill_dir
            .as_ref()
            .map(|d| d.join(format!("{}.json", key.hex())))
    }

    /// Looks up `key` in memory only, refreshing recency. Never touches
    /// the spill directory, so it is safe on the reactor thread: a miss
    /// here may still be a disk hit for [`get`](Self::get).
    pub fn get_resident(&self, key: CacheKey) -> Option<Arc<String>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let e = inner.map.get_mut(&key)?;
        e.tick = tick;
        Some(Arc::clone(&e.bytes))
    }

    /// Looks up `key`, refreshing recency. Falls back to the spill
    /// directory and promotes disk hits back into memory.
    pub fn get(&self, key: CacheKey) -> Option<Arc<String>> {
        if let Some(hit) = self.get_resident(key) {
            return Some(hit);
        }
        let path = self.spill_path(key)?;
        let raw = std::fs::read_to_string(&path).ok()?;
        let Some(payload) = verify_spill(&raw) else {
            // Corrupt, truncated, or stale-format entry: delete it and
            // report a miss so the caller recomputes from scratch.
            let _ = std::fs::remove_file(&path);
            return None;
        };
        let bytes = Arc::new(payload.to_owned());
        self.insert(key, Arc::clone(&bytes));
        Some(bytes)
    }

    /// Inserts `bytes` under `key`, evicting least-recently-used entries
    /// until the byte budget holds. Returns how many entries were
    /// evicted. An entry bigger than the whole budget is spilled (when
    /// configured) but not kept in memory.
    pub fn put(&self, key: CacheKey, bytes: String) -> u64 {
        self.insert(key, Arc::new(bytes))
    }

    /// [`put`](Self::put) for payloads the caller also keeps a handle to.
    pub fn put_shared(&self, key: CacheKey, bytes: Arc<String>) -> u64 {
        self.insert(key, bytes)
    }

    fn insert(&self, key: CacheKey, bytes: Arc<String>) -> u64 {
        let len = bytes.len() as u64;
        if len > self.budget {
            self.spill(key, &bytes);
            return 0;
        }
        let mut evicted = 0;
        let mut spill_out: Vec<(CacheKey, Arc<String>)> = Vec::new();
        {
            let mut inner = self.lock();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(old) = inner.map.insert(key, Entry { bytes, tick }) {
                inner.bytes -= old.bytes.len() as u64;
            }
            inner.bytes += len;
            while inner.bytes > self.budget {
                // Linear LRU scan: the cache holds large-ish rendered
                // results, so entry counts stay small compared to the
                // cost of one compile; no ordered index needed.
                let Some((&victim, _)) = inner.map.iter().min_by_key(|(_, e)| e.tick) else {
                    break;
                };
                if victim == key {
                    // Never evict what we just inserted.
                    break;
                }
                let e = inner.map.remove(&victim).expect("victim present");
                inner.bytes -= e.bytes.len() as u64;
                spill_out.push((victim, e.bytes));
                evicted += 1;
            }
        }
        for (k, b) in spill_out {
            self.spill(k, &b);
        }
        evicted
    }

    fn spill(&self, key: CacheKey, bytes: &str) {
        if let Some(path) = self.spill_path(key) {
            // Write-then-rename so a crashed writer never leaves a torn
            // entry that a later get() could replay; the checksum header
            // catches everything rename atomicity cannot (bit rot, manual
            // edits, partial writes on non-atomic filesystems).
            let tmp = path.with_extension("tmp");
            let framed = format!("{SPILL_MAGIC} {:016x}\n{bytes}", payload_digest(bytes));
            if std::fs::write(&tmp, framed).is_ok() {
                let _ = std::fs::rename(&tmp, &path);
            }
        }
    }

    /// Chaos hook: writes `key`'s spill file with one payload byte
    /// flipped (the header keeps the digest of the *intact* payload, so
    /// verification is guaranteed to fail) and drops the in-memory copy.
    /// The next lookup must take the disk path, detect the corruption,
    /// delete the file, and recompute. Returns `true` when a corrupt file
    /// was written — requires a spill dir and a resident entry.
    pub fn corrupt_for_chaos(&self, key: CacheKey) -> bool {
        let Some(path) = self.spill_path(key) else {
            return false;
        };
        let bytes = {
            let mut inner = self.lock();
            let Some(e) = inner.map.remove(&key) else {
                return false;
            };
            inner.bytes -= e.bytes.len() as u64;
            e.bytes
        };
        let mut corrupt = bytes.as_bytes().to_vec();
        if let Some(b) = corrupt.last_mut() {
            *b ^= 0x01;
        }
        let framed = format!(
            "{SPILL_MAGIC} {:016x}\n{}",
            payload_digest(&bytes),
            String::from_utf8_lossy(&corrupt)
        );
        std::fs::write(&path, framed).is_ok()
    }

    /// Spills every in-memory entry to disk (no-op without a spill dir).
    /// Called on graceful shutdown. Returns the number of files written.
    pub fn flush(&self) -> usize {
        if self.spill_dir.is_none() {
            return 0;
        }
        let entries: Vec<(CacheKey, Arc<String>)> = {
            let inner = self.lock();
            inner
                .map
                .iter()
                .map(|(&k, e)| (k, Arc::clone(&e.bytes)))
                .collect()
        };
        let n = entries.len();
        for (k, b) in entries {
            self.spill(k, &b);
        }
        n
    }

    /// Current in-memory payload bytes.
    pub fn bytes(&self) -> u64 {
        self.lock().bytes
    }

    /// Current in-memory entry count.
    pub fn entries(&self) -> usize {
        self.lock().map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(n: u64) -> CacheKey {
        CacheKey::derive(&[n])
    }

    #[test]
    fn derive_is_stable_and_injective_on_parts() {
        assert_eq!(CacheKey::derive(&[1, 2]), CacheKey::derive(&[1, 2]));
        assert_ne!(CacheKey::derive(&[1, 2]), CacheKey::derive(&[2, 1]));
        assert_ne!(CacheKey::derive(&[1]), CacheKey::derive(&[1, 0]));
        // The two halves come from different seeds.
        let key = CacheKey::derive(&[42]);
        assert_ne!(key.0, key.1);
        assert_eq!(key.hex().len(), 32);
    }

    #[test]
    fn get_returns_exactly_what_put_stored() {
        let c = ResultCache::new(1 << 20, None);
        assert!(c.get(k(1)).is_none());
        c.put(k(1), "{\"ii\":3}".into());
        assert_eq!(c.get(k(1)).unwrap().as_str(), "{\"ii\":3}");
        assert_eq!(c.entries(), 1);
        assert_eq!(c.bytes(), 8);
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        let c = ResultCache::new(30, None);
        c.put(k(1), "a".repeat(12)); // 12 bytes
        c.put(k(2), "b".repeat(12)); // 24 bytes
        assert!(c.get(k(1)).is_some()); // refresh 1 → 2 is now LRU
        let evicted = c.put(k(3), "c".repeat(12)); // 36 > 30 → evict 2
        assert_eq!(evicted, 1);
        assert!(c.get(k(2)).is_none());
        assert!(c.get(k(1)).is_some());
        assert!(c.get(k(3)).is_some());
        assert!(c.bytes() <= 30);
    }

    #[test]
    fn oversized_entries_are_not_admitted() {
        let c = ResultCache::new(8, None);
        assert_eq!(c.put(k(1), "x".repeat(64)), 0);
        assert_eq!(c.entries(), 0);
        assert!(c.get(k(1)).is_none());
    }

    #[test]
    fn spill_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("iced-svc-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let c = ResultCache::new(1 << 20, Some(dir.clone()));
            c.put(k(9), "{\"cycles\":99}".into());
            assert_eq!(c.flush(), 1);
        }
        // A fresh cache instance (new process, conceptually) hits disk.
        let c2 = ResultCache::new(1 << 20, Some(dir.clone()));
        // The memory-only probe never reads the spill file…
        assert!(c2.get_resident(k(9)).is_none());
        assert_eq!(c2.get(k(9)).unwrap().as_str(), "{\"cycles\":99}");
        // …and the hit was promoted into memory, where it now answers.
        assert_eq!(c2.entries(), 1);
        assert_eq!(c2.get_resident(k(9)).unwrap().as_str(), "{\"cycles\":99}");
        assert!(c2.get(k(10)).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_spill_file_is_a_miss_and_gets_deleted() {
        let dir =
            std::env::temp_dir().join(format!("iced-svc-corrupt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = ResultCache::new(1 << 20, Some(dir.clone()));
        c.put(k(5), "{\"ops\":12345}".into());
        assert_eq!(c.flush(), 1);
        let path = dir.join(format!("{}.json", k(5).hex()));
        // Flip one payload byte on disk, as a failing sector would.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, bytes).unwrap();
        // A fresh cache must refuse the corrupt entry (miss, not bad data)
        // and remove it so it is never re-read.
        let c2 = ResultCache::new(1 << 20, Some(dir.clone()));
        assert!(c2.get(k(5)).is_none());
        assert!(!path.exists(), "corrupt spill file must be deleted");
        // The entry recomputes cold and round-trips cleanly again.
        c2.put(k(5), "{\"ops\":12345}".into());
        assert_eq!(c2.flush(), 1);
        assert_eq!(
            ResultCache::new(1 << 20, Some(dir.clone()))
                .get(k(5))
                .unwrap()
                .as_str(),
            "{\"ops\":12345}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_and_headerless_spill_files_are_misses() {
        let dir = std::env::temp_dir().join(format!("iced-svc-trunc-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let c = ResultCache::new(1 << 20, Some(dir.clone()));
        // Headerless (legacy / hand-written) file.
        let p1 = dir.join(format!("{}.json", k(1).hex()));
        std::fs::write(&p1, "{\"ii\":3}").unwrap();
        assert!(c.get(k(1)).is_none());
        assert!(!p1.exists());
        // Header present but payload cut short mid-write.
        c.put(k(2), "x".repeat(64));
        assert_eq!(c.flush(), 1);
        let p2 = dir.join(format!("{}.json", k(2).hex()));
        let full = std::fs::read_to_string(&p2).unwrap();
        std::fs::write(&p2, &full[..full.len() - 7]).unwrap();
        let c2 = ResultCache::new(1 << 20, Some(dir.clone()));
        assert!(c2.get(k(2)).is_none());
        assert!(!p2.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_corruption_forces_the_recovery_path() {
        let dir = std::env::temp_dir().join(format!("iced-svc-chaos-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = ResultCache::new(1 << 20, Some(dir.clone()));
        // No spill dir → no-op.
        assert!(!ResultCache::new(1 << 20, None).corrupt_for_chaos(k(3)));
        // Entry not resident → no-op.
        assert!(!c.corrupt_for_chaos(k(3)));
        c.put(k(3), "{\"ii\":4}".into());
        assert!(c.corrupt_for_chaos(k(3)));
        assert_eq!(c.entries(), 0, "in-memory copy dropped");
        // The poisoned disk copy is detected, deleted, and missed.
        assert!(c.get(k(3)).is_none());
        assert!(!dir.join(format!("{}.json", k(3).hex())).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_spills_to_disk_when_configured() {
        let dir = std::env::temp_dir().join(format!("iced-svc-evict-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = ResultCache::new(16, Some(dir.clone()));
        c.put(k(1), "a".repeat(10));
        c.put(k(2), "b".repeat(10)); // evicts 1 → spilled
        assert_eq!(c.entries(), 1);
        // Still reachable, via disk.
        assert_eq!(c.get(k(1)).unwrap().len(), 10);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
