//! The store proper: directory layout, manifest handling, index,
//! append, merge, and GC compaction.

use crate::error::StoreError;
use crate::segment::{check_segment, encode_line, Entry};
use serde::Value;
use std::collections::{btree_map, BTreeMap};
use std::fs;
use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

const MANIFEST: &str = "manifest.json";
const MANIFEST_VERSION: u64 = 1;

/// One live segment as recorded in the manifest.
#[derive(Debug, Clone)]
struct SegmentMeta {
    name: String,
    entries: u64,
}

/// Aggregate facts about an open store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Distinct keys in the index.
    pub entries: u64,
    /// Live segment files.
    pub segments: u64,
    /// Segments quarantined on open (corrupt or truncated).
    pub quarantined: u64,
    /// Duplicate-key lines skipped on load (first write wins).
    pub duplicates: u64,
}

/// Result of a [`Store::gc`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Entries surviving the cutoff.
    pub kept: u64,
    /// Entries dropped as expired.
    pub dropped: u64,
    /// Segment files before compaction.
    pub segments_before: u64,
    /// Segment files after compaction (1, or 0 for an emptied store).
    pub segments_after: u64,
}

/// A live entry as [`Store::entries`] yields it, borrowed from the store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntryRef<'s> {
    /// The content address of the entry.
    pub key: &'s str,
    /// Unix seconds at write time.
    pub stamp: u64,
    /// The stored document.
    pub payload: &'s Value,
}

impl EntryRef<'_> {
    /// An owned copy of the entry.
    pub fn to_entry(self) -> Entry {
        Entry { key: self.key.to_string(), stamp: self.stamp, payload: self.payload.clone() }
    }
}

/// One live entry in the store's memory. Its key is held once, by the
/// index.
#[derive(Debug)]
struct Slot {
    stamp: u64,
    payload: Payload,
}

/// A payload as the store holds it.
#[derive(Debug)]
enum Payload {
    /// Appended since open: the value as given.
    Given(Value),
    /// Loaded at open: `texts[text][range]`, verified then and parsed on
    /// the first lookup.
    Loaded { text: usize, range: Range<usize>, value: OnceLock<Value> },
}

/// An on-disk content-addressed store with an in-memory index.
///
/// [`open`] verifies every segment line in full — checksum, frame and
/// the payload's JSON syntax — and indexes the keys, but keeps each
/// payload as a range of its segment's text; [`get`] parses a payload
/// the first time it is asked for and keeps the value. A warm replay
/// therefore builds only the payloads it serves. The store is `Sync`:
/// concurrent readers parse (once each) in parallel. All writes go
/// through [`append`]-style batch operations that publish one new
/// immutable segment atomically. See the crate docs for the format.
///
/// [`open`]: Store::open
/// [`get`]: Store::get
/// [`append`]: Store::append
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    // The text of every loaded segment, which `Payload::Loaded` ranges
    // index into.
    texts: Vec<String>,
    entries: Vec<Slot>,
    // Key → position in `entries`, holding the one copy of each key
    // (`entries()` reads keys back from it). A BTreeMap keeps that
    // iteration deterministic (no-hash-collections).
    index: BTreeMap<String, usize>,
    segments: Vec<SegmentMeta>,
    // The number the next published segment takes; `u64::MAX` once no
    // number is left (a segment numbered `u64::MAX - 1` or above exists).
    next_segment: u64,
    stats_quarantined: u64,
    stats_duplicates: u64,
}

impl Store {
    /// Opens (creating if needed) the store at `dir`.
    ///
    /// Loads the manifest, verifies every listed segment line-by-line
    /// (checksum, frame and payload syntax; no payload is built until
    /// [`get`](Store::get) asks for it), quarantines corrupt segments,
    /// and adopts valid segments present on disk but missing from the
    /// manifest (published just before a crash). A missing or corrupt
    /// manifest is rebuilt from the segment files.
    ///
    /// # Errors
    ///
    /// Filesystem failures only — corrupt data is quarantined, not
    /// fatal.
    pub fn open(dir: impl AsRef<Path>) -> Result<Store, StoreError> {
        let _span = sleepy_telemetry::span("store", "open");
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| StoreError::Io(dir.clone(), e))?;
        let mut store = Store {
            dir: dir.clone(),
            texts: Vec::new(),
            entries: Vec::new(),
            index: BTreeMap::new(),
            segments: Vec::new(),
            next_segment: 1,
            stats_quarantined: 0,
            stats_duplicates: 0,
        };

        let listed = store.read_manifest();
        store.sweep_leftovers()?;
        let mut on_disk = store.scan_segment_files()?;
        // Manifest order first (the canonical entry order), then any
        // orphans in name order.
        let mut names: Vec<String> = Vec::new();
        for name in &listed {
            if on_disk.contains(name) {
                names.push(name.clone());
                on_disk.retain(|n| n != name);
            }
        }
        let adopted = !on_disk.is_empty();
        names.extend(on_disk);

        for name in names {
            store.load_segment(&name)?;
        }
        // Persist the reconciled view whenever it differs from what the
        // manifest said (orphans adopted, segments quarantined or gone).
        let live: Vec<String> = store.segments.iter().map(|s| s.name.clone()).collect();
        if adopted || live != listed {
            store.write_manifest()?;
        }
        let stats = store.stats();
        sleepy_telemetry::counter_add("store.segments_loaded", stats.segments);
        sleepy_telemetry::counter_add("store.entries_loaded", stats.entries);
        sleepy_telemetry::counter_add("store.quarantined", stats.quarantined);
        Ok(store)
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Looks a payload up by key. A payload loaded from disk is parsed on
    /// its first lookup and kept, so later lookups, from any thread,
    /// return the same value without parsing again.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.index.get(key).map(|&i| self.payload(&self.entries[i]))
    }

    /// The payload of `slot`, parsed on first use.
    fn payload<'s>(&'s self, slot: &'s Slot) -> &'s Value {
        match &slot.payload {
            Payload::Given(value) => value,
            Payload::Loaded { text, range, value } => value.get_or_init(|| {
                sleepy_telemetry::counter_add("store.payloads_decoded", 1);
                // `check_segment` ran the parser's own grammar over this
                // text at open, so the parse cannot fail.
                serde_json::from_str(&self.texts[*text][range.clone()])
                    .expect("payload validated at open")
            }),
        }
    }

    /// Whether a key is present.
    pub fn contains(&self, key: &str) -> bool {
        self.index.contains_key(key)
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// All live entries in canonical (segment, line) order, each payload
    /// parsed as [`get`](Store::get) would. (Shadowed duplicates are
    /// dropped at load/append time, so everything held in memory is
    /// live.)
    pub fn entries(&self) -> impl Iterator<Item = EntryRef<'_>> {
        let mut keys = vec![""; self.entries.len()];
        for (key, &i) in &self.index {
            keys[i] = key;
        }
        keys.into_iter().zip(&self.entries).map(|(key, slot)| EntryRef {
            key,
            stamp: slot.stamp,
            payload: self.payload(slot),
        })
    }

    /// Aggregate stats (entry/segment counts, quarantine tally).
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            entries: self.index.len() as u64,
            segments: self.segments.len() as u64,
            quarantined: self.stats_quarantined,
            duplicates: self.stats_duplicates,
        }
    }

    /// Appends a batch of `(key, payload)` pairs stamped with the
    /// current wall-clock time, publishing them as one new segment.
    /// Keys already present are skipped (first write wins). Returns the
    /// number of entries actually written.
    ///
    /// # Errors
    ///
    /// Filesystem failures, and [`StoreError::SegmentsExhausted`].
    pub fn append(&mut self, batch: Vec<(String, Value)>) -> Result<u64, StoreError> {
        let stamp = now_unix();
        self.append_stamped(batch, stamp)
    }

    /// [`append`](Store::append) with an explicit stamp — for tests and
    /// for callers that manage TTL time themselves.
    ///
    /// # Errors
    ///
    /// Filesystem failures, and [`StoreError::SegmentsExhausted`].
    pub fn append_stamped(
        &mut self,
        batch: Vec<(String, Value)>,
        stamp: u64,
    ) -> Result<u64, StoreError> {
        let _span = sleepy_telemetry::span("store", "append");
        let added = self.append_entries(
            batch.into_iter().map(|(key, payload)| Entry { key, stamp, payload }).collect(),
        )?;
        sleepy_telemetry::counter_add("store.records_stored", added);
        Ok(added)
    }

    /// Unions `other` into this store: every entry of `other` whose key
    /// is absent here is appended (stamps preserved), as one new
    /// segment, in `other`'s canonical entry order. Returns the number
    /// of entries added. The operation is idempotent and associative on
    /// key sets, so shard stores produced by independent processes can
    /// be merged in any grouping.
    ///
    /// # Errors
    ///
    /// Filesystem failures, and [`StoreError::SegmentsExhausted`].
    pub fn merge_from(&mut self, other: &Store) -> Result<u64, StoreError> {
        let _span = sleepy_telemetry::span("store", "merge");
        let fresh: Vec<Entry> =
            other.entries().filter(|e| !self.contains(e.key)).map(EntryRef::to_entry).collect();
        let added = self.append_entries(fresh)?;
        sleepy_telemetry::counter_add("store.records_merged", added);
        Ok(added)
    }

    /// Drops every entry stamped strictly before `expire_before` (pass
    /// 0 to keep everything) and compacts all surviving entries into a
    /// single fresh segment, deleting the old segment files.
    ///
    /// # Errors
    ///
    /// Filesystem failures, and [`StoreError::SegmentsExhausted`] (then
    /// nothing is retired).
    pub fn gc(&mut self, expire_before: u64) -> Result<GcStats, StoreError> {
        let _span = sleepy_telemetry::span("store", "gc");
        // Fail before retiring anything if no new segment can be published.
        self.segment_number()?;
        let segments_before = self.segments.len() as u64;
        let survivors: Vec<Entry> =
            self.entries().filter(|e| e.stamp >= expire_before).map(EntryRef::to_entry).collect();
        let dropped = self.index.len() as u64 - survivors.len() as u64;
        let old: Vec<String> = self.segments.iter().map(|s| s.name.clone()).collect();

        // Retire the old segments FIRST, by renaming them to a name the
        // open-time orphan scan never adopts. Crash before any retire:
        // nothing happened. Crash mid-retire: the manifest still lists
        // the old names, so the survivors load and expired entries in
        // already-retired files are merely re-executed later — expired
        // entries can never be resurrected by orphan adoption.
        for name in &old {
            let path = self.dir.join(name);
            let target = self.dir.join(format!("{name}.retired"));
            fs::rename(&path, &target).map_err(|e| StoreError::Io(path, e))?;
        }
        self.segments.clear();
        self.entries.clear();
        self.index.clear();
        self.texts.clear();
        self.stats_duplicates = 0;
        let kept = self.append_entries(survivors)?;
        self.write_manifest()?;
        for name in old {
            let path = self.dir.join(format!("{name}.retired"));
            fs::remove_file(&path).map_err(|e| StoreError::Io(path, e))?;
        }
        Ok(GcStats { kept, dropped, segments_before, segments_after: self.segments.len() as u64 })
    }

    /// Core append: filters out keys already present, writes one
    /// segment atomically, and updates manifest + index.
    fn append_entries(&mut self, batch: Vec<Entry>) -> Result<u64, StoreError> {
        let mut fresh: Vec<Entry> = Vec::with_capacity(batch.len());
        let mut batch_keys: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        for e in batch {
            // Skip keys already stored and duplicates within the batch
            // itself; only the key is cloned, never the payload.
            if !self.contains(&e.key) && batch_keys.insert(e.key.clone()) {
                fresh.push(e);
            }
        }
        drop(batch_keys);
        if fresh.is_empty() {
            return Ok(0);
        }
        let number = self.segment_number()?;
        let name = format!("seg-{number:08}.jsonl");
        self.next_segment = number + 1;
        let mut text = String::new();
        for e in &fresh {
            text.push_str(&encode_line(e));
            text.push('\n');
        }
        self.write_atomic(&name, text.as_bytes())?;
        self.segments.push(SegmentMeta { name, entries: fresh.len() as u64 });
        self.write_manifest()?;
        let added = fresh.len() as u64;
        for e in fresh {
            self.index.insert(e.key, self.entries.len());
            self.entries.push(Slot { stamp: e.stamp, payload: Payload::Given(e.payload) });
        }
        Ok(added)
    }

    /// The number the next published segment takes.
    fn segment_number(&self) -> Result<u64, StoreError> {
        match self.next_segment {
            u64::MAX => Err(StoreError::SegmentsExhausted(self.dir.clone())),
            number => Ok(number),
        }
    }

    /// Reads the manifest's segment list; a missing or corrupt manifest
    /// yields an empty list (the caller rebuilds from the segment scan).
    fn read_manifest(&mut self) -> Vec<String> {
        let path = self.dir.join(MANIFEST);
        let Ok(bytes) = fs::read(&path) else { return Vec::new() };
        let json =
            std::str::from_utf8(&bytes).ok().and_then(|text| serde_json::from_str(text).ok());
        let parsed = json.and_then(|v: Value| {
            // `u64::MAX` would leave no number for the next append. Only
            // the segment files can say that, so a manifest claiming it
            // is corrupt. (A store that really holds a segment numbered
            // `u64::MAX - 1` or above gets its manifest rebuilt on every
            // open; no writer numbers that high.)
            let next = v.get("next_segment")?.as_u64().filter(|&n| n < u64::MAX)?;
            let segs = v.get("segments")?.as_array()?.clone();
            let names: Option<Vec<String>> =
                segs.iter().map(|s| Some(s.get("name")?.as_str()?.to_string())).collect();
            Some((next, names?))
        });
        match parsed {
            Some((next, names)) => {
                self.next_segment = self.next_segment.max(next);
                names
            }
            None => {
                // Corrupt manifest: set it aside and rebuild from disk.
                let _ = fs::rename(&path, self.dir.join("manifest.json.quarantined"));
                self.stats_quarantined += 1;
                Vec::new()
            }
        }
    }

    /// Removes leftovers of interrupted operations: `.tmp-*` files
    /// (writes that never renamed into place) and `*.retired` segments
    /// (a GC that died between retiring and deleting). Neither is ever
    /// loaded or adopted, so deleting them only reclaims space; entries
    /// lost this way re-execute on the next run — see [`gc`](Store::gc).
    fn sweep_leftovers(&self) -> Result<(), StoreError> {
        let iter = fs::read_dir(&self.dir).map_err(|e| StoreError::Io(self.dir.clone(), e))?;
        for dent in iter {
            let dent = dent.map_err(|e| StoreError::Io(self.dir.clone(), e))?;
            let name = dent.file_name().to_string_lossy().into_owned();
            if name.starts_with(".tmp-") || name.ends_with(".retired") {
                let path = self.dir.join(&name);
                fs::remove_file(&path).map_err(|e| StoreError::Io(path, e))?;
            }
        }
        Ok(())
    }

    /// Lists `seg-*.jsonl` files in the store directory, name-sorted.
    fn scan_segment_files(&self) -> Result<Vec<String>, StoreError> {
        let mut names = Vec::new();
        let iter = fs::read_dir(&self.dir).map_err(|e| StoreError::Io(self.dir.clone(), e))?;
        for dent in iter {
            let dent = dent.map_err(|e| StoreError::Io(self.dir.clone(), e))?;
            let name = dent.file_name().to_string_lossy().into_owned();
            if name.starts_with("seg-") && name.ends_with(".jsonl") {
                names.push(name);
            }
        }
        names.sort();
        Ok(names)
    }

    /// Loads one segment into the index, quarantining it wholesale on
    /// the first corrupt line.
    fn load_segment(&mut self, name: &str) -> Result<(), StoreError> {
        let path = self.dir.join(name);
        let bytes = fs::read(&path).map_err(|e| StoreError::Io(path.clone(), e))?;
        // A segment must be valid UTF-8 lines of self-checking JSON; any
        // deviation (including a missing trailing newline — truncation)
        // condemns the file.
        let text = String::from_utf8(bytes).ok().filter(|t| t.is_empty() || t.ends_with('\n'));
        let Some((text, checked)) = text.and_then(|t| check_segment(&t).map(|c| (t, c))) else {
            let target = self.dir.join(format!("{name}.quarantined"));
            fs::rename(&path, &target).map_err(|e| StoreError::Io(path.clone(), e))?;
            self.stats_quarantined += 1;
            return Ok(());
        };
        // Keep next_segment ahead of every on-disk segment number.
        if let Some(num) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".jsonl"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            self.next_segment = self.next_segment.max(num.saturating_add(1));
        }
        let mut live = 0u64;
        self.entries.reserve(checked.len());
        for (key, stamp, range) in checked {
            match self.index.entry(key) {
                // Shadowed by an earlier segment (first write wins);
                // dropping it here keeps losers out of memory entirely.
                btree_map::Entry::Occupied(_) => self.stats_duplicates += 1,
                btree_map::Entry::Vacant(slot) => {
                    slot.insert(self.entries.len());
                    let text = self.texts.len();
                    let payload = Payload::Loaded { text, range, value: OnceLock::new() };
                    self.entries.push(Slot { stamp, payload });
                    live += 1;
                }
            }
        }
        self.texts.push(text);
        self.segments.push(SegmentMeta { name: name.to_string(), entries: live });
        Ok(())
    }

    /// Atomically replaces the manifest.
    fn write_manifest(&self) -> Result<(), StoreError> {
        let segments: Vec<Value> = self
            .segments
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".to_string(), Value::String(s.name.clone())),
                    ("entries".to_string(), Value::UInt(s.entries)),
                ])
            })
            .collect();
        let doc = Value::Object(vec![
            ("version".to_string(), Value::UInt(MANIFEST_VERSION)),
            ("next_segment".to_string(), Value::UInt(self.next_segment)),
            ("segments".to_string(), Value::Array(segments)),
        ]);
        let text = serde_json::to_string_pretty(&doc).expect("manifest serializes");
        self.write_atomic(MANIFEST, format!("{text}\n").as_bytes())
    }

    /// Writes `name` under the store directory via temp-file + rename.
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let tmp = self.dir.join(format!(".tmp-{name}"));
        let target = self.dir.join(name);
        let io = |e| StoreError::Io(tmp.clone(), e);
        let mut f = fs::File::create(&tmp).map_err(io)?;
        f.write_all(bytes).map_err(io)?;
        f.sync_all().map_err(io)?;
        drop(f);
        fs::rename(&tmp, &target).map_err(|e| StoreError::Io(target.clone(), e))
    }
}

/// Current unix time in seconds (0 if the clock is before the epoch).
fn now_unix() -> u64 {
    // sleepy-lint: allow(no-wall-clock): TTL stamps are cache *metadata* — they gate gc
    // expiry only and are never part of a content-addressed key or a replayed payload,
    // so byte identity of artifacts is untouched (pinned by cache_semantics.rs).
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sleepy-store-test-{tag}-{}-{:?}",
            std::process::id(),
            {
                use std::time::{SystemTime, UNIX_EPOCH};
                // sleepy-lint: allow(no-wall-clock): test-only temp-dir nonce; cannot
                // reach any artifact bytes.
                SystemTime::now().duration_since(UNIX_EPOCH).unwrap().subsec_nanos()
            }
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn payload(i: u64) -> Value {
        serde_json::json!({ "value": i, "half": i as f64 / 2.0 })
    }

    #[test]
    fn append_get_and_reopen() {
        let dir = tmp_dir("basic");
        let mut s = Store::open(&dir).unwrap();
        assert!(s.is_empty());
        let added = s.append(vec![("a".into(), payload(1)), ("b".into(), payload(2))]).unwrap();
        assert_eq!(added, 2);
        assert_eq!(s.get("a"), Some(&payload(1)));
        assert!(s.contains("b"));
        assert!(!s.contains("c"));
        // First write wins; duplicate appends are no-ops.
        assert_eq!(s.append(vec![("a".into(), payload(9))]).unwrap(), 0);
        assert_eq!(s.get("a"), Some(&payload(1)));
        drop(s);
        let s2 = Store::open(&dir).unwrap();
        assert_eq!(s2.len(), 2);
        assert_eq!(s2.get("a"), Some(&payload(1)));
        assert_eq!(s2.stats().segments, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_append_writes_no_segment() {
        let dir = tmp_dir("empty");
        let mut s = Store::open(&dir).unwrap();
        assert_eq!(s.append(Vec::new()).unwrap(), 0);
        assert_eq!(s.stats().segments, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_segment_is_quarantined_not_served() {
        let dir = tmp_dir("corrupt");
        let mut s = Store::open(&dir).unwrap();
        s.append(vec![("a".into(), payload(1))]).unwrap();
        s.append(vec![("b".into(), payload(2))]).unwrap();
        drop(s);
        // Corrupt the second segment in place.
        let seg = dir.join("seg-00000002.jsonl");
        let text = fs::read_to_string(&seg).unwrap();
        fs::write(&seg, text.replace("\"value\":2", "\"value\":3")).unwrap();
        let s = Store::open(&dir).unwrap();
        assert!(s.contains("a"));
        assert!(!s.contains("b"), "corrupted entry must not be served");
        assert_eq!(s.stats().quarantined, 1);
        assert!(dir.join("seg-00000002.jsonl.quarantined").exists());
        assert!(!seg.exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_segment_is_quarantined() {
        let dir = tmp_dir("trunc");
        let mut s = Store::open(&dir).unwrap();
        s.append(vec![("a".into(), payload(1)), ("b".into(), payload(2))]).unwrap();
        drop(s);
        let seg = dir.join("seg-00000001.jsonl");
        let text = fs::read_to_string(&seg).unwrap();
        fs::write(&seg, &text[..text.len() - 7]).unwrap();
        let s = Store::open(&dir).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.stats().quarantined, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphan_segment_is_adopted() {
        let dir = tmp_dir("orphan");
        let mut s = Store::open(&dir).unwrap();
        s.append(vec![("a".into(), payload(1))]).unwrap();
        drop(s);
        // Simulate a crash that lost the manifest update: hand-write a
        // valid segment the manifest doesn't know about.
        let entry = Entry { key: "x".into(), stamp: 5, payload: payload(7) };
        fs::write(dir.join("seg-00000009.jsonl"), format!("{}\n", encode_line(&entry))).unwrap();
        let s = Store::open(&dir).unwrap();
        assert!(s.contains("a"));
        assert_eq!(s.get("x"), Some(&payload(7)));
        assert_eq!(s.stats().segments, 2);
        drop(s);
        // And the adoption was persisted.
        let s = Store::open(&dir).unwrap();
        assert_eq!(s.stats().segments, 2);
        // next_segment moved past the adopted number.
        let mut s = s;
        s.append(vec![("y".into(), payload(8))]).unwrap();
        assert!(dir.join("seg-00000010.jsonl").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_is_rebuilt_from_segments() {
        let dir = tmp_dir("manifest");
        let mut s = Store::open(&dir).unwrap();
        s.append(vec![("a".into(), payload(1))]).unwrap();
        drop(s);
        fs::write(dir.join(MANIFEST), "{{{ not json").unwrap();
        let s = Store::open(&dir).unwrap();
        assert_eq!(s.get("a"), Some(&payload(1)));
        assert!(dir.join("manifest.json.quarantined").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_manifest_mutation_opens_and_serves_everything() {
        let dir = tmp_dir("manifest-mutants");
        let mut s = Store::open(&dir).unwrap();
        for i in 0..3 {
            s.append(vec![(format!("k{i}"), payload(i))]).unwrap();
        }
        drop(s);
        let manifest = dir.join(MANIFEST);
        let aside = dir.join("manifest.json.quarantined");
        let original = fs::read(&manifest).unwrap();
        // Open must succeed, serve every entry, and either use the
        // manifest as written or set exactly it aside.
        let check = |mutant: &[u8]| {
            fs::write(&manifest, mutant).unwrap();
            let _ = fs::remove_file(&aside);
            let s = Store::open(&dir).unwrap();
            let shown = String::from_utf8_lossy(mutant);
            for i in 0..3 {
                assert_eq!(s.get(&format!("k{i}")), Some(&payload(i)), "{shown}");
            }
            match s.stats().quarantined {
                0 => {
                    let parsed = std::str::from_utf8(mutant).map(serde_json::from_str);
                    assert!(matches!(parsed, Ok(Ok(_))) && !aside.exists(), "{shown}");
                }
                1 => assert_eq!(fs::read(&aside).unwrap(), mutant, "{shown}"),
                n => panic!("{n} quarantined for {shown}"),
            }
        };
        let mut bytes = original.clone();
        for at in 0..bytes.len() {
            check(&original[..at]);
            for bit in 0..8 {
                bytes[at] ^= 1 << bit;
                check(&bytes);
                bytes[at] ^= 1 << bit;
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_segment_numbered_u64_max_leaves_no_number_to_append_under() {
        let dir = tmp_dir("seg-max");
        let mut s = Store::open(&dir).unwrap();
        s.append(vec![("a".into(), payload(1))]).unwrap();
        drop(s);
        fs::write(dir.join(format!("seg-{}.jsonl", u64::MAX)), "").unwrap();
        let mut s = Store::open(&dir).unwrap();
        assert_eq!((s.len(), s.stats().segments, s.stats().quarantined), (1, 2, 0));
        let refused = s.append(vec![("b".into(), payload(2))]);
        assert!(matches!(refused, Err(StoreError::SegmentsExhausted(_))), "{refused:?}");
        // gc would publish a segment too, so it refuses before retiring any.
        assert!(matches!(s.gc(0), Err(StoreError::SegmentsExhausted(_))));
        drop(s);
        let s = Store::open(&dir).unwrap();
        assert_eq!(s.get("a"), Some(&payload(1)));
        assert!(!s.contains("b"));
        assert!(!dir.join("seg-00000000.jsonl").exists(), "the numbering must not wrap");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_manifest_claiming_u64_max_is_set_aside() {
        let dir = tmp_dir("manifest-max");
        let mut s = Store::open(&dir).unwrap();
        s.append(vec![("a".into(), payload(1))]).unwrap();
        drop(s);
        let text = fs::read_to_string(dir.join(MANIFEST)).unwrap();
        let claim = text.replace("\"next_segment\": 2", &format!("\"next_segment\": {}", u64::MAX));
        assert_ne!(claim, text);
        fs::write(dir.join(MANIFEST), claim).unwrap();
        let mut s = Store::open(&dir).unwrap();
        assert_eq!(s.stats().quarantined, 1);
        assert!(dir.join("manifest.json.quarantined").exists());
        assert_eq!(s.append(vec![("b".into(), payload(2))]).unwrap(), 1);
        assert!(dir.join("seg-00000002.jsonl").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn payloads_are_parsed_on_first_lookup_only() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<Store>();
        let parsed = |s: &Store| {
            let loaded =
                |p: &Payload| matches!(p, Payload::Loaded { value, .. } if value.get().is_some());
            s.entries.iter().filter(|e| loaded(&e.payload)).count()
        };
        let dir = tmp_dir("lazy");
        let mut s = Store::open(&dir).unwrap();
        s.append((0..4).map(|i| (format!("k{i}"), payload(i))).collect()).unwrap();
        drop(s);
        let s = Store::open(&dir).unwrap();
        assert_eq!(parsed(&s), 0, "open verifies payloads but builds none");
        assert_eq!(s.get("k2"), Some(&payload(2)));
        assert_eq!(s.get("k2"), Some(&payload(2)));
        assert_eq!(parsed(&s), 1);
        // Readers on two threads share one parse.
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| assert_eq!(s.get("k3"), Some(&payload(3))));
            }
        });
        assert_eq!(parsed(&s), 2);
        let all: Vec<Entry> = s.entries().map(EntryRef::to_entry).collect();
        assert_eq!(all.len(), 4);
        assert_eq!(parsed(&s), 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_unions_and_is_idempotent() {
        let dir_a = tmp_dir("merge-a");
        let dir_b = tmp_dir("merge-b");
        let mut a = Store::open(&dir_a).unwrap();
        a.append(vec![("k1".into(), payload(1)), ("k2".into(), payload(2))]).unwrap();
        let mut b = Store::open(&dir_b).unwrap();
        b.append(vec![("k2".into(), payload(99)), ("k3".into(), payload(3))]).unwrap();
        assert_eq!(a.merge_from(&b).unwrap(), 1);
        assert_eq!(a.len(), 3);
        // k2 kept the first-written payload.
        assert_eq!(a.get("k2"), Some(&payload(2)));
        assert_eq!(a.get("k3"), Some(&payload(3)));
        // Idempotent.
        assert_eq!(a.merge_from(&b).unwrap(), 0);
        fs::remove_dir_all(&dir_a).unwrap();
        fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn gc_expires_and_compacts() {
        let dir = tmp_dir("gc");
        let mut s = Store::open(&dir).unwrap();
        s.append_stamped(vec![("old".into(), payload(1))], 100).unwrap();
        s.append_stamped(vec![("new".into(), payload(2))], 200).unwrap();
        s.append_stamped(vec![("newer".into(), payload(3))], 300).unwrap();
        assert_eq!(s.stats().segments, 3);
        let gc = s.gc(150).unwrap();
        assert_eq!(gc, GcStats { kept: 2, dropped: 1, segments_before: 3, segments_after: 1 });
        assert!(!s.contains("old"));
        assert!(s.contains("new") && s.contains("newer"));
        drop(s);
        let s = Store::open(&dir).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.stats().segments, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_everything_leaves_empty_store() {
        let dir = tmp_dir("gc-all");
        let mut s = Store::open(&dir).unwrap();
        s.append_stamped(vec![("a".into(), payload(1))], 10).unwrap();
        let gc = s.gc(u64::MAX).unwrap();
        assert_eq!(gc.kept, 0);
        assert_eq!(gc.segments_after, 0);
        assert!(s.is_empty());
        drop(s);
        assert!(Store::open(&dir).unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retired_and_tmp_leftovers_are_swept_not_adopted() {
        // Simulate a gc that died between retiring the old segments and
        // deleting them, plus an interrupted atomic write: neither file
        // may be adopted (that would resurrect expired entries), and
        // both are cleaned up on open.
        let dir = tmp_dir("retired");
        let mut s = Store::open(&dir).unwrap();
        s.append_stamped(vec![("expired".into(), payload(1))], 10).unwrap();
        drop(s);
        fs::rename(dir.join("seg-00000001.jsonl"), dir.join("seg-00000001.jsonl.retired")).unwrap();
        fs::write(dir.join(".tmp-seg-00000002.jsonl"), "half a li").unwrap();
        let s = Store::open(&dir).unwrap();
        assert!(s.is_empty(), "retired segments must not resurrect entries");
        assert!(!dir.join("seg-00000001.jsonl.retired").exists());
        assert!(!dir.join(".tmp-seg-00000002.jsonl").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entries_iterate_in_canonical_order() {
        let dir = tmp_dir("iter");
        let mut s = Store::open(&dir).unwrap();
        s.append_stamped(vec![("b".into(), payload(2))], 1).unwrap();
        s.append_stamped(vec![("a".into(), payload(1))], 1).unwrap();
        let keys: Vec<&str> = s.entries().map(|e| e.key).collect();
        assert_eq!(keys, vec!["b", "a"], "segment order, not key order");
        fs::remove_dir_all(&dir).unwrap();
    }
}
