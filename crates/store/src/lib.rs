//! # sleepy-store
//!
//! A persistent, content-addressed result store — the "sleeping" idea
//! applied to the runtime itself: work already done stays asleep. The
//! fleet runtime keys every trial by a content key (algorithm ×
//! workload × execution × seed); this crate persists the keyed results
//! so re-running an overlapping plan only executes trials never seen
//! before.
//!
//! ## Design
//!
//! * **Append-only JSONL segments.** Each write batch becomes one
//!   immutable segment file (`seg-NNNNNNNN.jsonl`), one JSON object per
//!   line carrying `key`, `stamp` (unix seconds, for TTL), `payload`
//!   (an arbitrary JSON value), and `sum` (an FNV-1a-64 checksum of the
//!   rest of the line, exactly 16 lowercase hex digits). The checksum
//!   is verified over the raw line bytes as written, and a payload is
//!   never re-serialized. Segments are written to a temp file and
//!   published with an atomic rename, so a crash can never leave a
//!   half-written segment under its final name.
//! * **Verify at open, decode on first lookup.** Opening a store costs
//!   one hash pass and one validating scan per line (the JSON parser's
//!   own grammar, building nothing) and builds no payload;
//!   [`Store::get`] parses a payload the first time it is asked for and
//!   keeps it. A replay that serves a third of the store builds a third
//!   of the payloads.
//! * **Manifest.** `manifest.json` lists the live segments in order. It
//!   is itself replaced atomically. The manifest is an accelerator, not
//!   the source of truth: segments are self-validating, so a missing or
//!   corrupt manifest is rebuilt from the segment files on disk, and a
//!   segment published after a crash that lost the manifest update is
//!   *adopted* on the next open.
//! * **Corruption quarantine.** A segment with any unparsable or
//!   checksum-mismatching line, or any line not in the writer's exact
//!   layout, is renamed to `*.quarantined` on open and none of its
//!   entries are used — corrupted data is never silently served; the
//!   affected trials simply re-execute.
//! * **First write wins.** Duplicate keys across segments resolve to
//!   the earliest entry, so replays and merges are idempotent.
//! * **TTL/GC compaction.** [`Store::gc`] drops entries stamped before
//!   a cutoff and rewrites the survivors as a single compacted segment.
//! * **Merge.** [`Store::merge_from`] unions another store into this
//!   one — the coordinator step of multi-process sharding, where every
//!   worker process fills its own store and the results are combined.
//!
//! The payload is an opaque [`serde::Value`]; this crate knows nothing
//! about trials or MIS algorithms. `sleepy-fleet` layers the trial
//! encoding and cache lookups on top (static records under `s/` keys,
//! dynamic per-phase records under `d/` — see `docs/store_format.md`).
//!
//! ## Example
//!
//! ```
//! use sleepy_store::Store;
//!
//! let dir = std::env::temp_dir().join(format!("sleepy-store-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let mut store = Store::open(&dir)?;
//! store.append(vec![("job/t1".into(), serde_json::json!({"awake": 2.5}))])?;
//! assert!(store.contains("job/t1"));
//! drop(store);
//!
//! // Reopen from disk: entries persist; duplicate appends are no-ops
//! // (first write wins).
//! let mut store = Store::open(&dir)?;
//! assert_eq!(store.append(vec![("job/t1".into(), serde_json::json!(null))])?, 0);
//! let awake = store.get("job/t1").and_then(|v| v.get("awake")).and_then(|v| v.as_f64());
//! assert_eq!(awake, Some(2.5));
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), sleepy_store::StoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
mod error;
mod segment;
mod store;

pub use chaos::{StoreFault, StoreFaultInjector};
pub use error::StoreError;
pub use segment::{decode_line, encode_line, fnv1a64, Entry};
pub use store::{EntryRef, GcStats, Store, StoreStats};
