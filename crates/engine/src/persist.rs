//! Eviction for the cache directory's on-disk store.
//!
//! Finished jobs live in one store,
//! [`StageStore`](crate::stagecache::StageStore): `<key>.stage` files
//! under `<cache-dir>/stages/`, where the filesystem is the index. A sweep
//! is therefore one oldest-first walk over that directory's files, under
//! one policy and one byte budget, skipping every file a live engine pins.
//! Files no lookup reads — the stage files and verify tokens older builds
//! wrote — are swept like any other.

use crate::key::JobKey;
use crate::stagecache::StoreFile;
use std::collections::HashSet;
use std::fmt;
use std::io;
use std::time::Duration;

/// What [`crate::Engine::prune_cache`] may evict: files above a total
/// size budget and/or older than an age bound. Unset limits prune nothing,
/// so the default policy is a no-op.
#[derive(Clone, Copy, Debug, Default)]
pub struct PrunePolicy {
    /// Keep total file bytes at or under this budget, evicting the oldest
    /// files first.
    pub max_bytes: Option<u64>,
    /// Evict files older than this.
    pub max_age: Option<Duration>,
}

/// What an eviction sweep did, counted in store files (`job` files and
/// the files older builds left alike).
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub struct PruneReport {
    /// Files in the store before the sweep.
    pub scanned: usize,
    /// Files deleted.
    pub removed: usize,
    /// Bytes those files occupied.
    pub freed_bytes: u64,
    /// Files left after the sweep.
    pub kept: usize,
    /// Bytes the remaining files occupy.
    pub kept_bytes: u64,
    /// Files that were over budget but skipped because a live engine
    /// holds their job result in memory.
    pub pinned: usize,
}

impl fmt::Display for PruneReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pruned {} of {} files ({} bytes freed), {} kept ({} bytes)",
            self.removed, self.scanned, self.freed_bytes, self.kept, self.kept_bytes
        )?;
        if self.pinned > 0 {
            write!(f, ", {} pinned by the live run", self.pinned)?;
        }
        Ok(())
    }
}

/// Runs one eviction sweep over `files` (oldest first, as
/// [`StageStore::files`](crate::stagecache::StageStore::files) lists
/// them): first drops files older than `max_age`, then evicts
/// oldest-first until the remainder fits in `max_bytes`. Files whose key
/// is in `pinned` are never touched — they belong to a live run.
pub(crate) fn prune(
    files: &[StoreFile],
    policy: &PrunePolicy,
    pinned: &HashSet<JobKey>,
    now_secs: u64,
) -> io::Result<PruneReport> {
    let is_pinned = |file: &StoreFile| file.key.is_some_and(|key| pinned.contains(&key));
    let mut evict = vec![false; files.len()];
    let mut spared = vec![false; files.len()];
    if let Some(max_age) = policy.max_age {
        for (i, file) in files.iter().enumerate() {
            if now_secs.saturating_sub(file.mtime) > max_age.as_secs() {
                if is_pinned(file) {
                    spared[i] = true;
                } else {
                    evict[i] = true;
                }
            }
        }
    }
    if let Some(max_bytes) = policy.max_bytes {
        let mut total: u64 =
            files.iter().zip(&evict).filter(|(_, &e)| !e).map(|(f, _)| f.bytes).sum();
        for (i, file) in files.iter().enumerate() {
            if total <= max_bytes {
                break;
            }
            if evict[i] {
                continue;
            }
            if is_pinned(file) {
                spared[i] = true;
                continue;
            }
            evict[i] = true;
            total -= file.bytes;
        }
    }

    let mut report = PruneReport {
        scanned: files.len(),
        removed: 0,
        freed_bytes: 0,
        kept: 0,
        kept_bytes: 0,
        pinned: spared.iter().filter(|&&s| s).count(),
    };
    for (file, &evict) in files.iter().zip(&evict) {
        if !evict {
            report.kept += 1;
            report.kept_bytes += file.bytes;
            continue;
        }
        match std::fs::remove_file(&file.path) {
            Ok(()) => report.freed_bytes += file.bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        report.removed += 1;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stagecache::StageStore;
    use std::path::PathBuf;
    use std::time::SystemTime;

    fn temp_store(tag: &str) -> StageStore {
        let dir =
            std::env::temp_dir().join(format!("bittrans_persist_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = StageStore::of(&dir);
        std::fs::create_dir_all(store.dir()).unwrap();
        store
    }

    /// Writes a store file named `name` with a stage envelope and the
    /// given mtime.
    fn write_file(store: &StageStore, name: &str, mtime: u64) -> PathBuf {
        let path = store.dir().join(name);
        std::fs::write(&path, "bittrans-stage 2 verify ok\n").unwrap();
        let file = std::fs::File::options().write(true).open(&path).unwrap();
        let time = SystemTime::UNIX_EPOCH + Duration::from_secs(mtime);
        file.set_times(std::fs::FileTimes::new().set_modified(time)).unwrap();
        path
    }

    fn key(tag: &[u8]) -> JobKey {
        JobKey::of_bytes(tag)
    }

    #[test]
    fn prune_evicts_oldest_first_and_respects_pins() {
        let store = temp_store("prune");
        let keys: Vec<JobKey> = (0u8..4).map(|i| key(&[b'p', i])).collect();
        // keys[0] oldest … keys[3] newest.
        let paths: Vec<PathBuf> = [600u64, 700, 800, 900]
            .iter()
            .zip(&keys)
            .map(|(&mtime, k)| write_file(&store, &format!("{k}.stage"), mtime))
            .collect();
        let bytes = store.files()[0].bytes;

        // Age bound removes the two files older than 250 s; the oldest of
        // them is pinned and must survive.
        let pinned: HashSet<JobKey> = [keys[0]].into_iter().collect();
        let policy = PrunePolicy { max_age: Some(Duration::from_secs(250)), max_bytes: None };
        let report = prune(&store.files(), &policy, &pinned, 1000).unwrap();
        assert_eq!((report.scanned, report.removed, report.pinned), (4, 1, 1));
        assert_eq!(report.freed_bytes, bytes);
        assert!(paths[0].exists() && !paths[1].exists());

        // Size bound: budget for two files evicts oldest-first among the
        // unpinned (keys[2] before keys[3]).
        let policy = PrunePolicy { max_bytes: Some(2 * bytes), max_age: None };
        let report = prune(&store.files(), &policy, &pinned, 1000).unwrap();
        assert_eq!(report.removed, 1);
        assert!(!paths[2].exists() && paths[3].exists());
        assert_eq!((report.kept, report.kept_bytes), (2, 2 * bytes));
        std::fs::remove_dir_all(store.dir().parent().unwrap()).unwrap();
    }

    #[test]
    fn prune_ages_out_legacy_tokens_and_skips_temp_files() {
        let store = temp_store("legacy");
        let old = write_file(&store, &format!("{}.stage", key(b"old")), 100);
        let legacy = write_file(&store, &format!("{}.json", key(b"legacy")), 150);
        let fresh = write_file(&store, &format!("{}.stage", key(b"new")), 900);
        let temp = write_file(&store, ".deadbeef.tmp", 10);
        let policy = PrunePolicy { max_age: Some(Duration::from_secs(500)), max_bytes: None };
        let report = prune(&store.files(), &policy, &HashSet::new(), 1000).unwrap();
        assert_eq!(report.scanned, 3, "temp files are not scanned");
        assert_eq!((report.removed, report.kept), (2, 1));
        assert!(!old.exists() && !legacy.exists());
        assert!(fresh.exists() && temp.exists());
        std::fs::remove_dir_all(store.dir().parent().unwrap()).unwrap();
    }

    #[test]
    fn default_policy_is_a_no_op() {
        let store = temp_store("noop");
        let path = write_file(&store, &format!("{}.stage", key(b"keep")), 1);
        let report =
            prune(&store.files(), &PrunePolicy::default(), &HashSet::new(), 1_000_000).unwrap();
        assert_eq!((report.removed, report.kept), (0, 1));
        assert!(path.exists());
        std::fs::remove_dir_all(store.dir().parent().unwrap()).unwrap();
    }
}
