//! swstore — a std-only, disk-backed, content-addressed result store.
//!
//! The serving tier's RAM cache (`swserve`'s `ResultCache`) answers in
//! nanoseconds but evaporates on every restart; the evaluations it holds
//! took microseconds (analytic) to minutes (micromagnetic) to produce.
//! This crate is the durable second level: a directory of append-only
//! **segment files** addressed by the same 64-bit FNV-1a content key the
//! RAM cache already uses, so promotion between the levels is a key
//! lookup, not a format conversion.
//!
//! Design, in one breath: writes append CRC-framed records to an active
//! segment (see [`format`](mod@format)); opening a store replays every segment into
//! a compact in-memory index (key → segment/offset/length), truncating
//! any torn tail the last crash left behind; reads seek straight to the
//! body and re-verify its CRC; capacity is bounded by total on-disk
//! bytes, and exceeding it triggers a **compaction** that rewrites the
//! most-recently-used survivors into a fresh segment via temp + rename
//! (crash-safe: either the old segments or the complete new one exist,
//! never a half state) and deletes the rest — which is also how
//! overwritten duplicates get garbage-collected. A [`Store::prewarm`]
//! path replays JSON-lines manifests (swrun/swserve run manifests, or
//! raw request logs) through a caller-supplied mapper so a fresh store
//! can be seeded from recorded work before the first request lands.
//!
//! Everything is `std`-only and safe to share: the store is internally
//! a mutex over the index plus atomic counters, and values are returned
//! as owned byte vectors.

pub mod format;

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use swjson::Json;

/// How a [`Store`] is configured.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding the segment files (created if absent).
    pub dir: PathBuf,
    /// Total on-disk budget in bytes; exceeding it triggers compaction,
    /// which evicts least-recently-used entries (min 64 KiB).
    pub capacity_bytes: u64,
    /// Active-segment rotation threshold (min 4 KiB). Smaller segments
    /// mean finer-grained compaction; larger ones mean fewer files.
    pub segment_bytes: u64,
}

impl StoreConfig {
    /// A store rooted at `dir` with the default 64 MiB capacity and
    /// 8 MiB segments.
    pub fn new(dir: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            dir: dir.into(),
            capacity_bytes: 64 << 20,
            segment_bytes: 8 << 20,
        }
    }

    /// Overrides the on-disk capacity.
    #[must_use]
    pub fn capacity_bytes(mut self, bytes: u64) -> StoreConfig {
        self.capacity_bytes = bytes.max(64 << 10);
        self
    }

    /// Overrides the segment rotation threshold.
    #[must_use]
    pub fn segment_bytes(mut self, bytes: u64) -> StoreConfig {
        self.segment_bytes = bytes.max(4 << 10);
        self
    }
}

/// Where one live value lives on disk.
#[derive(Debug, Clone, Copy)]
struct Entry {
    segment: u32,
    body_offset: u64,
    body_len: u32,
    /// Logical access clock at last get/put — the LRU ordering key.
    touched: u64,
}

#[derive(Debug, Default)]
struct Inner {
    index: HashMap<u64, Entry>,
    /// Byte size of every sealed segment still on disk, by id.
    sealed: Vec<(u32, u64)>,
    active: Option<File>,
    active_id: u32,
    active_bytes: u64,
    clock: u64,
}

impl Inner {
    fn disk_bytes(&self) -> u64 {
        self.sealed.iter().map(|(_, bytes)| bytes).sum::<u64>() + self.active_bytes
    }
}

/// Monotonic lifetime counters, snapshot via [`Store::counters`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreCounters {
    /// `get` calls that found a value.
    pub hits: u64,
    /// `get` calls that found nothing.
    pub misses: u64,
    /// Records appended (puts + pre-warm inserts).
    pub puts: u64,
    /// Body bytes read back by hits.
    pub read_bytes: u64,
    /// Record bytes appended (headers included).
    pub written_bytes: u64,
    /// Compactions run.
    pub compactions: u64,
    /// Entries evicted by compaction (LRU overflow).
    pub evicted: u64,
    /// Entries inserted by [`Store::prewarm`].
    pub prewarm_records: u64,
    /// Live entries in the index right now.
    pub entries: u64,
    /// Total segment bytes on disk right now.
    pub disk_bytes: u64,
}

/// The disk-backed content-addressed store.
#[derive(Debug)]
pub struct Store {
    config: StoreConfig,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    puts: AtomicU64,
    read_bytes: AtomicU64,
    written_bytes: AtomicU64,
    compactions: AtomicU64,
    evicted: AtomicU64,
    prewarm_records: AtomicU64,
}

impl Store {
    /// Opens (or creates) the store at `config.dir`, replaying every
    /// segment into the in-memory index. A torn tail on the newest
    /// segment — the signature of a crash mid-append — is truncated so
    /// the segment is clean for future reads; corrupt records in older
    /// segments simply end that segment's replay early (later segments
    /// still load, and compaction eventually rewrites everything).
    ///
    /// # Errors
    ///
    /// Directory creation and segment I/O failures.
    pub fn open(config: StoreConfig) -> std::io::Result<Store> {
        fs::create_dir_all(&config.dir)?;
        let mut ids: Vec<u32> = Vec::new();
        for entry in fs::read_dir(&config.dir)? {
            let name = entry?.file_name();
            if let Some(id) = segment_id(&name.to_string_lossy()) {
                ids.push(id);
            }
        }
        ids.sort_unstable();

        let mut inner = Inner::default();
        for (position, &id) in ids.iter().enumerate() {
            let path = segment_path(&config.dir, id);
            let bytes = fs::read(&path)?;
            let scan = format::scan(&bytes);
            if scan.valid_len < bytes.len() as u64 && position == ids.len() - 1 {
                // Torn tail on the newest segment: truncate in place so
                // the file's contents and the index agree byte for byte.
                let file = OpenOptions::new().write(true).open(&path)?;
                file.set_len(scan.valid_len)?;
                file.sync_all()?;
            }
            for record in scan.records {
                inner.clock += 1;
                inner.index.insert(
                    record.key,
                    Entry {
                        segment: id,
                        body_offset: record.body_offset,
                        body_len: record.body_len,
                        touched: inner.clock,
                    },
                );
            }
            inner.sealed.push((id, scan.valid_len));
        }
        inner.active_id = ids.last().map_or(0, |id| id + 1);
        Ok(Store {
            config,
            inner: Mutex::new(inner),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            read_bytes: AtomicU64::new(0),
            written_bytes: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            prewarm_records: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }

    /// Looks up `key`, returning the stored body. The body's CRC is
    /// re-verified on every read; a record that fails (bit rot, external
    /// tampering) is treated as a miss and dropped from the index.
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        let mut inner = self.inner.lock().expect("store poisoned");
        let Some(entry) = inner.index.get(&key).copied() else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let verified = self
            .read_body(&entry)
            .ok()
            .filter(|body| read_header_crc(&self.config.dir, &entry) == Some(body_crc(key, body)));
        match verified {
            Some(body) => {
                inner.clock += 1;
                let clock = inner.clock;
                if let Some(live) = inner.index.get_mut(&key) {
                    live.touched = clock;
                }
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.read_bytes
                    .fetch_add(body.len() as u64, Ordering::Relaxed);
                Some(body)
            }
            None => {
                // Unreadable or checksum-failed (bit rot, tampering):
                // drop the entry so future lookups recompute.
                inner.index.remove(&key);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores `body` under `key`, overwriting any previous value. The
    /// record is flushed to the OS before the call returns; if the new
    /// total exceeds the capacity budget, a compaction runs inline.
    ///
    /// # Errors
    ///
    /// Segment I/O failures (the index is only updated on success).
    pub fn put(&self, key: u64, body: &[u8]) -> std::io::Result<()> {
        let mut inner = self.inner.lock().expect("store poisoned");
        self.append_locked(&mut inner, key, body)?;
        if inner.disk_bytes() > self.config.capacity_bytes {
            self.compact_locked(&mut inner)?;
        }
        Ok(())
    }

    /// True when `key` has a live entry (no I/O, no LRU touch).
    pub fn contains(&self, key: u64) -> bool {
        self.inner
            .lock()
            .expect("store poisoned")
            .index
            .contains_key(&key)
    }

    /// Live entries in the index.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("store poisoned").index.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total segment bytes currently on disk.
    pub fn disk_bytes(&self) -> u64 {
        self.inner.lock().expect("store poisoned").disk_bytes()
    }

    /// A snapshot of the lifetime counters plus current entry/byte
    /// gauges.
    pub fn counters(&self) -> StoreCounters {
        let (entries, disk_bytes) = {
            let inner = self.inner.lock().expect("store poisoned");
            (inner.index.len() as u64, inner.disk_bytes())
        };
        StoreCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            read_bytes: self.read_bytes.load(Ordering::Relaxed),
            written_bytes: self.written_bytes.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            prewarm_records: self.prewarm_records.load(Ordering::Relaxed),
            entries,
            disk_bytes,
        }
    }

    /// Replays a JSON-lines manifest into the store. Each parseable
    /// line is offered to `map`; a `Some((key, body))` answer is
    /// inserted **unless the key is already present** (live entries are
    /// assumed correct — pre-warm fills gaps, it does not clobber).
    /// Returns the number of entries inserted. Unparseable lines (e.g.
    /// a tail torn by a kill) are skipped, matching swrun's own
    /// manifest-replay tolerance.
    ///
    /// # Errors
    ///
    /// Manifest read failures and segment write failures. A missing
    /// manifest file is not an error — there is simply nothing to warm.
    pub fn prewarm<F>(&self, manifest: &Path, mut map: F) -> std::io::Result<usize>
    where
        F: FnMut(&Json) -> Option<(u64, String)>,
    {
        let text = match fs::read_to_string(manifest) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        let mut inserted = 0usize;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let Ok(record) = Json::parse(line) else {
                continue;
            };
            let Some((key, body)) = map(&record) else {
                continue;
            };
            let mut inner = self.inner.lock().expect("store poisoned");
            if inner.index.contains_key(&key) {
                continue;
            }
            self.append_locked(&mut inner, key, body.as_bytes())?;
            if inner.disk_bytes() > self.config.capacity_bytes {
                self.compact_locked(&mut inner)?;
            }
            drop(inner);
            self.prewarm_records.fetch_add(1, Ordering::Relaxed);
            inserted += 1;
        }
        Ok(inserted)
    }

    fn read_body(&self, entry: &Entry) -> std::io::Result<Vec<u8>> {
        let mut file = File::open(segment_path(&self.config.dir, entry.segment))?;
        file.seek(SeekFrom::Start(entry.body_offset))?;
        let mut body = vec![0u8; entry.body_len as usize];
        file.read_exact(&mut body)?;
        Ok(body)
    }

    fn append_locked(&self, inner: &mut Inner, key: u64, body: &[u8]) -> std::io::Result<()> {
        let record = format::encode(key, body);
        if inner.active.is_none() {
            let path = segment_path(&self.config.dir, inner.active_id);
            let file = OpenOptions::new().create(true).append(true).open(path)?;
            inner.active = Some(file);
            inner.active_bytes = 0;
        }
        let body_offset = inner.active_bytes + format::HEADER_LEN as u64;
        {
            let file = inner.active.as_mut().expect("just ensured");
            file.write_all(&record)?;
            file.flush()?;
        }
        inner.active_bytes += record.len() as u64;
        inner.clock += 1;
        inner.index.insert(
            key,
            Entry {
                segment: inner.active_id,
                body_offset,
                body_len: body.len() as u32,
                touched: inner.clock,
            },
        );
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.written_bytes
            .fetch_add(record.len() as u64, Ordering::Relaxed);
        if inner.active_bytes >= self.config.segment_bytes {
            // Seal the active segment; the next append opens a new one.
            if let Some(file) = inner.active.take() {
                file.sync_all()?;
            }
            inner.sealed.push((inner.active_id, inner.active_bytes));
            inner.active_id += 1;
            inner.active_bytes = 0;
        }
        Ok(())
    }

    /// Rewrites the most-recently-used live entries into one fresh
    /// segment and deletes every older file. Survivors are chosen
    /// newest-first until half the capacity budget is used (so the
    /// store breathes between compactions); everything else is evicted
    /// LRU. The new segment is written to a `.tmp` path, synced, then
    /// renamed into place — a crash at any point leaves either the old
    /// segments (rename not reached) or a complete new one.
    fn compact_locked(&self, inner: &mut Inner) -> std::io::Result<()> {
        // Seal the active segment so every body is readable from a file.
        if let Some(file) = inner.active.take() {
            file.sync_all()?;
            inner.sealed.push((inner.active_id, inner.active_bytes));
            inner.active_id += 1;
            inner.active_bytes = 0;
        }

        let mut live: Vec<(u64, Entry)> = inner.index.iter().map(|(k, e)| (*k, *e)).collect();
        live.sort_by_key(|entry| std::cmp::Reverse(entry.1.touched));
        let budget = self.config.capacity_bytes / 2;
        let mut kept_bytes = 0u64;
        let mut survivors = Vec::new();
        for (key, entry) in live {
            let record_bytes = u64::from(entry.body_len) + format::HEADER_LEN as u64;
            if !survivors.is_empty() && kept_bytes + record_bytes > budget {
                break;
            }
            kept_bytes += record_bytes;
            survivors.push((key, entry));
        }
        let evicted = inner.index.len() - survivors.len();

        let new_id = inner.active_id;
        let final_path = segment_path(&self.config.dir, new_id);
        let tmp_path = final_path.with_extension("log.tmp");
        let mut new_index = HashMap::with_capacity(survivors.len());
        let mut written = 0u64;
        {
            let mut tmp = File::create(&tmp_path)?;
            // Oldest-touched first, so the newest survivors win any
            // replay and sit at the segment tail.
            for (key, entry) in survivors.iter().rev() {
                let body = self.read_body(entry)?;
                let record = format::encode(*key, &body);
                inner.clock += 1;
                new_index.insert(
                    *key,
                    Entry {
                        segment: new_id,
                        body_offset: written + format::HEADER_LEN as u64,
                        body_len: entry.body_len,
                        touched: inner.clock,
                    },
                );
                tmp.write_all(&record)?;
                written += record.len() as u64;
            }
            tmp.sync_all()?;
        }
        fs::rename(&tmp_path, &final_path)?;

        for (id, _) in &inner.sealed {
            fs::remove_file(segment_path(&self.config.dir, *id)).ok();
        }
        inner.sealed.clear();
        inner.sealed.push((new_id, written));
        inner.index = new_index;
        inner.active_id = new_id + 1;
        inner.active = None;
        inner.active_bytes = 0;
        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.evicted.fetch_add(evicted as u64, Ordering::Relaxed);
        Ok(())
    }
}

fn segment_path(dir: &Path, id: u32) -> PathBuf {
    dir.join(format!("seg-{id:08}.log"))
}

fn segment_id(name: &str) -> Option<u32> {
    name.strip_prefix("seg-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

fn read_header_crc(dir: &Path, entry: &Entry) -> Option<u32> {
    let mut file = File::open(segment_path(dir, entry.segment)).ok()?;
    file.seek(SeekFrom::Start(entry.body_offset - 4)).ok()?;
    let mut crc = [0u8; 4];
    file.read_exact(&mut crc).ok()?;
    Some(u32::from_le_bytes(crc))
}

fn body_crc(key: u64, body: &[u8]) -> u32 {
    let mut covered = Vec::with_capacity(12 + body.len());
    covered.extend_from_slice(&key.to_le_bytes());
    covered.extend_from_slice(&(body.len() as u32).to_le_bytes());
    covered.extend_from_slice(body);
    format::crc32(&covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("swstore-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_store(dir: &Path) -> Store {
        Store::open(
            StoreConfig::new(dir)
                .capacity_bytes(64 << 10)
                .segment_bytes(4 << 10),
        )
        .expect("open store")
    }

    #[test]
    fn put_get_round_trip_and_overwrite() {
        let dir = temp_dir("roundtrip");
        let store = small_store(&dir);
        assert_eq!(store.get(1), None);
        store.put(1, b"{\"out\":1}").unwrap();
        store.put(2, b"{\"out\":2}").unwrap();
        assert_eq!(store.get(1).as_deref(), Some(&b"{\"out\":1}"[..]));
        store.put(1, b"{\"out\":1,\"v\":2}").unwrap();
        assert_eq!(store.get(1).as_deref(), Some(&b"{\"out\":1,\"v\":2}"[..]));
        let c = store.counters();
        assert_eq!(c.puts, 3);
        assert_eq!(c.hits, 2);
        assert_eq!(c.misses, 1);
        assert_eq!(c.entries, 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_recovers_entries_and_latest_wins() {
        let dir = temp_dir("reopen");
        {
            let store = small_store(&dir);
            store.put(7, b"first").unwrap();
            store.put(8, b"other").unwrap();
            store.put(7, b"second").unwrap();
        }
        let store = small_store(&dir);
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(7).as_deref(), Some(&b"second"[..]));
        assert_eq!(store.get(8).as_deref(), Some(&b"other"[..]));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = temp_dir("torn");
        {
            let store = small_store(&dir);
            store.put(1, b"whole record").unwrap();
        }
        // Simulate a crash mid-append: a partial record at the tail.
        let seg = segment_path(&dir, 0);
        let mut file = OpenOptions::new().append(true).open(&seg).unwrap();
        let torn = format::encode(2, b"interrupted");
        file.write_all(&torn[..torn.len() - 4]).unwrap();
        drop(file);

        let store = small_store(&dir);
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(1).as_deref(), Some(&b"whole record"[..]));
        assert_eq!(store.get(2), None);
        // The tail was physically truncated, so appends stay readable.
        store.put(3, b"post-crash").unwrap();
        drop(store);
        let store = small_store(&dir);
        assert_eq!(store.get(3).as_deref(), Some(&b"post-crash"[..]));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_evicts_least_recently_used() {
        let dir = temp_dir("compact");
        let store = Store::open(
            StoreConfig::new(&dir)
                .capacity_bytes(64 << 10)
                .segment_bytes(4 << 10),
        )
        .unwrap();
        let body = vec![b'x'; 1024];
        for key in 0..40u64 {
            store.put(key, &body).unwrap(); // ~41 KiB total: under capacity
        }
        assert_eq!(store.counters().compactions, 0);
        // Touch key 0 so it is the most recently used despite being oldest.
        assert!(store.get(0).is_some());
        // One oversized record pushes past capacity -> compaction.
        store.put(99, &vec![b'z'; 30 << 10]).unwrap();
        let c = store.counters();
        assert!(c.compactions >= 1, "expected a compaction, got {c:?}");
        assert!(c.evicted > 0);
        assert!(store.disk_bytes() <= 64 << 10);
        assert!(store.get(0).is_some(), "recently-touched entry survived");
        assert!(store.get(99).is_some(), "newest entry survived");
        assert!(
            store.get(1).is_none(),
            "cold entry was evicted ({} live)",
            store.len()
        );
        // Survivors are still readable after a reopen (rename landed).
        drop(store);
        let store = small_store(&dir);
        assert!(store.get(0).is_some());
        assert!(store.get(99).is_some());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_body_is_dropped_not_served() {
        let dir = temp_dir("bitrot");
        let store = small_store(&dir);
        store.put(5, b"pristine bytes").unwrap();
        // Flip one body byte on disk behind the store's back.
        let seg = segment_path(&dir, 0);
        let mut bytes = fs::read(&seg).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&seg, &bytes).unwrap();
        assert_eq!(store.get(5), None, "corrupt record must not be served");
        assert_eq!(store.len(), 0, "corrupt record is dropped from the index");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prewarm_inserts_mapped_lines_and_skips_present_keys() {
        let dir = temp_dir("prewarm");
        let store = small_store(&dir);
        store.put(11, b"already here").unwrap();
        let manifest = dir.join("manifest.jsonl");
        fs::write(
            &manifest,
            concat!(
                "{\"key\":11.0,\"body\":\"clobber?\"}\n",
                "{\"key\":12.0,\"body\":\"warmed\"}\n",
                "not json at all\n",
                "{\"unrelated\":true}\n",
                "{\"key\":13.0,\"body\":\"also warmed\"}\n",
            ),
        )
        .unwrap();
        let inserted = store
            .prewarm(&manifest, |record| {
                let key = record.get("key")?.as_f64()? as u64;
                let body = record.get("body")?.as_str()?.to_string();
                Some((key, body))
            })
            .unwrap();
        assert_eq!(inserted, 2);
        assert_eq!(store.get(11).as_deref(), Some(&b"already here"[..]));
        assert_eq!(store.get(12).as_deref(), Some(&b"warmed"[..]));
        assert_eq!(store.get(13).as_deref(), Some(&b"also warmed"[..]));
        assert_eq!(store.counters().prewarm_records, 2);
        // A missing manifest is a no-op, not an error.
        assert_eq!(store.prewarm(&dir.join("nope.jsonl"), |_| None).unwrap(), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segment_rotation_seals_files() {
        let dir = temp_dir("rotate");
        let store = small_store(&dir); // 4 KiB segments
        let body = vec![b'y'; 1500];
        for key in 0..6u64 {
            store.put(key, &body).unwrap();
        }
        let segments = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| segment_id(&e.as_ref().unwrap().file_name().to_string_lossy()).is_some())
            .count();
        assert!(
            segments >= 2,
            "expected rotation, got {segments} segment(s)"
        );
        for key in 0..6u64 {
            assert!(store.get(key).is_some(), "key {key} readable post-rotation");
        }
        fs::remove_dir_all(&dir).ok();
    }
}
