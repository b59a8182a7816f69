//! The persistent on-disk verdict cache.
//!
//! A sweep's expensive artifact is not the prefix space itself — it is the
//! *answer* derived from it. This module journals every deterministic
//! scenario outcome (verdict, detail fields, and a compact space digest)
//! to a cache directory, keyed by
//! `(adversary fingerprint, input domain, depth, analysis)` and salted
//! with a code-version tag, so a second `consensus-lab sweep` in a fresh
//! process answers warm scenarios with **zero** prefix-space expansions.
//!
//! ## Directory layout
//!
//! ```text
//! <cache-dir>/
//!   cache-meta.json     {"salt": "<code-version salt>"}
//!   verdicts.jsonl      one journal entry per cached outcome, append-only
//! ```
//!
//! The journal is append-only and crash-tolerant: a torn final line (the
//! process died mid-append) is skipped on load, never fatal. When the salt
//! in `cache-meta.json` does not match the running binary's
//! [`cache_salt`], the journal is discarded wholesale — any change to the
//! analysis code may change answers, and a stale cache must lose loudly
//! rather than leak old verdicts into new reports.
//!
//! ## What is (and is not) cached
//!
//! Only *budget-independent* outcomes are persisted: verdicts computed to
//! completion. `error`, `budget-exceeded`, budget-starved `undecided`, and
//! `timed_out`-flagged records depend on the budget/limit flags of the run
//! that produced them and are always recomputed. `matches_expected` is
//! likewise *not* persisted — it is re-derived against the current
//! catalog's pinned ground truth at lookup time, so the CI verdict gate
//! can never be masked by a cache written before a ground-truth change.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use consensus_core::config::CacheConfig;
use consensus_core::error::Error;
use consensus_core::space::SpaceStats;
use consensus_obs::metrics::{registry, Counter, Gauge};
use consensus_obs::trace::tracer;
use ptgraph::Value as InputValue;

use crate::json::{self, Value};
use crate::scenario::AnalysisKind;
use crate::store::{Outcome, ScenarioRecord};

/// Process-global registry mirrors of journal effectiveness, fed by
/// every [`DiskCache`] instance (see the equivalent note in
/// [`crate::cache`]).
struct JournalCounters {
    lookups: Arc<Counter>,
    hits: Arc<Counter>,
    stores: Arc<Counter>,
    loaded: Arc<Gauge>,
    hit_rate_pct: Arc<Gauge>,
}

fn journal_counters() -> &'static JournalCounters {
    static COUNTERS: OnceLock<JournalCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| JournalCounters {
        lookups: registry().counter("journal.lookups"),
        hits: registry().counter("journal.hits"),
        stores: registry().counter("journal.stores"),
        loaded: registry().gauge("journal.loaded"),
        hit_rate_pct: registry().gauge("journal.hit_rate_pct"),
    })
}

impl JournalCounters {
    fn note_lookup(&self, hit: bool) {
        self.lookups.inc();
        if hit {
            self.hits.inc();
        }
        if let Some(pct) = (self.hits.get() * 100).checked_div(self.lookups.get()) {
            self.hit_rate_pct.set(pct);
        }
    }
}

/// Journal file name inside the cache directory.
pub const JOURNAL_FILE: &str = "verdicts.jsonl";
/// Metadata file name inside the cache directory.
pub const META_FILE: &str = "cache-meta.json";

/// Bump this when an analysis change invalidates previously journaled
/// verdicts without a crate-version bump.
/// `r2`: journal keys gained the analysis-params component (the
/// `Session`-level `AnalysisConfig` can now change solvability verdicts,
/// so differently configured sessions must not share entries).
/// `r3`: entries gained the `certificate` payload (the checkable
/// `consensus-cert/v1` object journaled with definitive solvability
/// verdicts); pre-certificate journals would answer certificate-requesting
/// scenarios with nothing attached, so they are invalidated wholesale.
const SALT_REVISION: &str = "r3";

/// The cache-invalidation salt: crate version × salt revision. Journals
/// written under a different salt are discarded on open.
pub fn cache_salt() -> String {
    format!("{}+{}", env!("CARGO_PKG_VERSION"), SALT_REVISION)
}

/// Cache key: adversary fingerprint × input-domain code × depth ×
/// analysis name × analysis-params code. The step budget is deliberately
/// absent — persisted outcomes are exact, so they hold under any budget.
/// The params code (see [`crate::runner::scenario_params`]) captures the
/// configuration dimensions that *do* change answers (validity flavor,
/// exact-chain search depth), so sessions with different
/// `AnalysisConfig`s can share a cache directory without poisoning each
/// other's verdicts.
type Key = (u64, String, usize, String, String);

fn domain_code(values: &[InputValue]) -> String {
    values.iter().map(ToString::to_string).collect::<Vec<_>>().join(",")
}

/// One journaled outcome: everything scenario execution needs to answer
/// without touching a prefix space.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskEntry {
    /// Verdict and detail fields.
    pub outcome: Outcome,
    /// Compact digest of the space the analysis ran on (absent for
    /// solvability records, which never expose one).
    pub space: Option<SpaceStats>,
    /// The checkable certificate extracted with a definitive solvability
    /// verdict (the `consensus-cert/v1` JSON object), journaled so a warm
    /// process can hand it out with **zero** re-expansions. Shared with
    /// the records that carry it.
    pub certificate: Option<Arc<Value>>,
}

impl DiskEntry {
    fn to_json(&self, key: &Key) -> Value {
        let mut fields: Vec<(String, Value)> = vec![
            ("fingerprint".into(), Value::Str(format!("{:016x}", key.0))),
            ("domain".into(), Value::Str(key.1.clone())),
            ("depth".into(), Value::Int(key.2 as i64)),
            ("analysis".into(), Value::Str(key.3.clone())),
            ("params".into(), Value::Str(key.4.clone())),
            ("verdict".into(), Value::Str(self.outcome.verdict.clone())),
            (
                "details".into(),
                Value::Obj(
                    self.outcome.details.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
                ),
            ),
        ];
        if let Some(stats) = self.space {
            fields.push((
                "space".into(),
                Value::Obj(vec![
                    ("depth".into(), Value::Int(stats.depth as i64)),
                    ("runs".into(), Value::Int(stats.runs as i64)),
                    ("views".into(), Value::Int(stats.views as i64)),
                    ("components".into(), Value::Int(stats.components as i64)),
                ]),
            ));
        }
        if let Some(cert) = &self.certificate {
            fields.push(("certificate".into(), Value::clone(cert)));
        }
        Value::Obj(fields)
    }

    fn from_json(v: &Value) -> Option<(Key, DiskEntry)> {
        let fingerprint = u64::from_str_radix(v.get("fingerprint")?.as_str()?, 16).ok()?;
        let domain = v.get("domain")?.as_str()?.to_string();
        let depth = v.get_usize("depth")?;
        let analysis = v.get("analysis")?.as_str()?.to_string();
        let params = v.get("params")?.as_str()?.to_string();
        let verdict = v.get("verdict")?.as_str()?.to_string();
        let Value::Obj(detail_fields) = v.get("details")? else {
            return None;
        };
        let space = match v.get("space") {
            None => None,
            Some(obj) => Some(SpaceStats {
                depth: obj.get_usize("depth")?,
                runs: obj.get_usize("runs")?,
                views: obj.get_usize("views")?,
                components: obj.get_usize("components")?,
            }),
        };
        Some((
            (fingerprint, domain, depth, analysis, params),
            DiskEntry {
                outcome: Outcome { verdict, details: detail_fields.clone() },
                space,
                certificate: v.get("certificate").cloned().map(Arc::new),
            },
        ))
    }
}

/// Whether a record's outcome may be journaled: computed to completion,
/// with no budget or wall-clock contingency. See the module docs.
pub fn persistable(record: &ScenarioRecord) -> bool {
    !record.budget_hit
        && record.outcome.verdict != "error"
        && record.outcome.verdict != "budget-exceeded"
        && !record.outcome.details.iter().any(|(k, _)| k == "timed_out")
}

/// A thread-safe persistent verdict cache over one directory; see the
/// module docs.
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
    entries: Mutex<HashMap<Key, DiskEntry>>,
    journal: Mutex<fs::File>,
    loaded: usize,
    hits: AtomicUsize,
    stores: AtomicUsize,
}

impl DiskCache {
    /// Open (creating if necessary) the cache directory, validate its
    /// salt, and load the journal. A salt mismatch discards the stale
    /// journal and starts fresh.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<DiskCache> {
        let mut span = tracer().span("journal.load");
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let meta_path = dir.join(META_FILE);
        let journal_path = dir.join(JOURNAL_FILE);

        let salt = cache_salt();
        let fresh = match fs::read_to_string(&meta_path) {
            Ok(text) => {
                let stored = json::parse(&text)
                    .ok()
                    .and_then(|v| v.get("salt").and_then(Value::as_str).map(str::to_string));
                stored.as_deref() != Some(salt.as_str())
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => true,
            Err(e) => return Err(e),
        };
        if fresh {
            // Stale or new: drop any old journal, stamp the current salt.
            match fs::remove_file(&journal_path) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
            let meta = Value::Obj(vec![("salt".into(), Value::Str(salt))]);
            fs::write(&meta_path, format!("{meta}\n"))?;
        }

        let mut entries = HashMap::new();
        match fs::read_to_string(&journal_path) {
            Ok(text) => {
                for line in text.lines() {
                    if line.trim().is_empty() {
                        continue;
                    }
                    // A torn tail from a crashed append is skipped, not
                    // fatal; the scenario simply recomputes.
                    if let Some((key, entry)) =
                        json::parse(line).ok().as_ref().and_then(DiskEntry::from_json)
                    {
                        entries.insert(key, entry);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let journal = fs::OpenOptions::new().create(true).append(true).open(&journal_path)?;
        let loaded = entries.len();
        span.set_attr("loaded", loaded);
        span.set_attr("fresh", fresh);
        journal_counters().loaded.set(loaded as u64);
        Ok(DiskCache {
            dir,
            entries: Mutex::new(entries),
            journal: Mutex::new(journal),
            loaded,
            hits: AtomicUsize::new(0),
            stores: AtomicUsize::new(0),
        })
    }

    /// Open the cache named by a [`CacheConfig`], if it names one:
    /// `Ok(None)` when `disk_dir` is unset.
    ///
    /// # Errors
    /// Returns [`Error::Io`] (with the directory in the context) on
    /// filesystem failure.
    pub fn from_config(cfg: &CacheConfig) -> Result<Option<DiskCache>, Error> {
        match &cfg.disk_dir {
            None => Ok(None),
            Some(dir) => Self::open(dir)
                .map(Some)
                .map_err(|e| Error::io(format!("opening cache dir {}", dir.display()), e)),
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Entries currently held (loaded plus stored this process).
    pub fn len(&self) -> usize {
        self.entries.lock().expect("disk cache lock poisoned").len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries loaded from the journal at open time.
    pub fn loaded(&self) -> usize {
        self.loaded
    }

    /// Lookups answered from the cache so far.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Entries journaled by this process so far.
    pub fn stores(&self) -> usize {
        self.stores.load(Ordering::Relaxed)
    }

    /// The journaled outcome for a scenario cell, if present. `params` is
    /// the analysis-params code of the requesting configuration (see
    /// [`crate::runner::scenario_params`]); entries journaled under
    /// different params never answer.
    pub fn lookup(
        &self,
        fingerprint: u64,
        values: &[InputValue],
        depth: usize,
        analysis: AnalysisKind,
        params: &str,
    ) -> Option<DiskEntry> {
        let key: Key =
            (fingerprint, domain_code(values), depth, analysis.name().to_string(), params.into());
        let entry = self.entries.lock().expect("disk cache lock poisoned").get(&key).cloned();
        if entry.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        journal_counters().note_lookup(entry.is_some());
        entry
    }

    /// Journal an outcome (first writer wins; the entry is flushed before
    /// the in-memory map is updated, so a loadable journal line exists for
    /// everything lookups can see).
    ///
    /// # Errors
    /// Propagates filesystem errors; the in-memory map is unchanged then.
    pub fn store(
        &self,
        fingerprint: u64,
        values: &[InputValue],
        depth: usize,
        analysis: AnalysisKind,
        params: &str,
        entry: DiskEntry,
    ) -> io::Result<()> {
        let key: Key =
            (fingerprint, domain_code(values), depth, analysis.name().to_string(), params.into());
        self.store_entry(key, entry).map(|_| ())
    }

    /// Journal one keyed entry; `Ok(true)` when it was newly written,
    /// `Ok(false)` when the key was already claimed (first writer wins).
    fn store_entry(&self, key: Key, entry: DiskEntry) -> io::Result<bool> {
        // The entries lock is held across the journal append so two workers
        // finishing structurally aliased scenarios cannot both claim the
        // key: exactly one journal line per key, and reload order agrees
        // with first-writer-wins. Lock order is entries → journal
        // (`lookup` takes only entries; no inversion exists).
        let mut entries = self.entries.lock().expect("disk cache lock poisoned");
        if entries.contains_key(&key) {
            return Ok(false);
        }
        let line = entry.to_json(&key).to_string();
        {
            let mut journal = self.journal.lock().expect("disk cache journal lock poisoned");
            writeln!(journal, "{line}")?;
            journal.flush()?;
        }
        entries.insert(key, entry);
        self.stores.fetch_add(1, Ordering::Relaxed);
        journal_counters().stores.inc();
        Ok(true)
    }

    /// Every journaled entry as its journal-line JSON object, in
    /// deterministic (key-sorted) order — the `/v1/journal/segment`
    /// payload, and exactly the shape [`absorb`](Self::absorb) accepts on
    /// the receiving side.
    pub fn export_entries(&self) -> Vec<Value> {
        let entries = self.entries.lock().expect("disk cache lock poisoned");
        let mut keyed: Vec<(&Key, &DiskEntry)> = entries.iter().collect();
        keyed.sort_by(|a, b| a.0.cmp(b.0));
        keyed.into_iter().map(|(key, entry)| entry.to_json(key)).collect()
    }

    /// Absorb a peer's exported journal segment — the warm-start tier
    /// below memory and local disk. `salt` must equal this binary's
    /// [`cache_salt`] (verdicts journaled under another code version are
    /// refused wholesale, exactly like a stale local journal), and every
    /// entry must parse as a journal line; keys already present keep
    /// their local value (first writer wins). Returns how many entries
    /// were newly journaled.
    ///
    /// # Errors
    /// [`Error::CacheConflict`] on a salt mismatch or a malformed entry;
    /// [`Error::Io`] if the local journal append fails.
    pub fn absorb(&self, salt: &str, entries: &[Value]) -> Result<usize, Error> {
        let expected = cache_salt();
        if salt != expected {
            return Err(Error::CacheConflict {
                reason: format!(
                    "peer journal salt {salt:?} does not match this binary's {expected:?}; \
                     refusing to absorb verdicts from a different code version"
                ),
            });
        }
        let mut span = tracer().span("absorb");
        let mut absorbed = 0usize;
        for (i, value) in entries.iter().enumerate() {
            let Some((key, entry)) = DiskEntry::from_json(value) else {
                return Err(Error::CacheConflict {
                    reason: format!("peer journal entry {i} is malformed"),
                });
            };
            if self
                .store_entry(key, entry)
                .map_err(|e| Error::io("appending absorbed journal entries".to_string(), e))?
            {
                absorbed += 1;
            }
        }
        span.set_attr("entries", entries.len());
        span.set_attr("absorbed", absorbed);
        Ok(absorbed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value as Json;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("consensus-lab-persist-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn entry() -> DiskEntry {
        DiskEntry {
            outcome: Outcome::tag("separated")
                .with("mixed_components", Json::Int(0))
                .with("chain_found", Json::Bool(false)),
            space: Some(SpaceStats { depth: 2, runs: 36, views: 40, components: 3 }),
            certificate: None,
        }
    }

    #[test]
    fn store_then_lookup_roundtrips_across_instances() {
        let dir = tmp_dir("roundtrip");
        let values: &[InputValue] = &[0, 1];
        {
            let cache = DiskCache::open(&dir).unwrap();
            assert!(cache.is_empty());
            assert!(cache.lookup(7, values, 2, AnalysisKind::Bivalence, "").is_none());
            cache.store(7, values, 2, AnalysisKind::Bivalence, "", entry()).unwrap();
            assert_eq!(cache.stores(), 1);
            assert_eq!(cache.lookup(7, values, 2, AnalysisKind::Bivalence, "").unwrap(), entry());
        }
        // A second instance (≈ a second process) loads the journal.
        let warm = DiskCache::open(&dir).unwrap();
        assert_eq!(warm.loaded(), 1);
        assert_eq!(warm.lookup(7, values, 2, AnalysisKind::Bivalence, "").unwrap(), entry());
        assert_eq!(warm.hits(), 1);
        // Distinct key coordinates do not collide.
        assert!(warm.lookup(7, values, 3, AnalysisKind::Bivalence, "").is_none());
        assert!(warm.lookup(7, values, 2, AnalysisKind::ComponentStats, "").is_none());
        assert!(warm.lookup(8, values, 2, AnalysisKind::Bivalence, "").is_none());
        assert!(warm.lookup(7, &[0, 1, 2], 2, AnalysisKind::Bivalence, "").is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn salt_mismatch_discards_stale_journal() {
        let dir = tmp_dir("salt");
        {
            let cache = DiskCache::open(&dir).unwrap();
            cache.store(1, &[0, 1], 1, AnalysisKind::Solvability, "wc3", entry()).unwrap();
        }
        // Forge a meta from an older code version.
        fs::write(dir.join(META_FILE), "{\"salt\":\"0.0.0+r0\"}\n").unwrap();
        let reopened = DiskCache::open(&dir).unwrap();
        assert_eq!(reopened.loaded(), 0, "stale journal must be discarded");
        assert!(reopened.lookup(1, &[0, 1], 1, AnalysisKind::Solvability, "wc3").is_none());
        // The directory is re-stamped with the current salt.
        let meta = fs::read_to_string(dir.join(META_FILE)).unwrap();
        assert!(meta.contains(&cache_salt()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_journal_tail_is_skipped_not_fatal() {
        let dir = tmp_dir("torn");
        {
            let cache = DiskCache::open(&dir).unwrap();
            cache.store(1, &[0, 1], 1, AnalysisKind::Bivalence, "", entry()).unwrap();
        }
        // Simulate a crash mid-append.
        let mut journal = fs::OpenOptions::new().append(true).open(dir.join(JOURNAL_FILE)).unwrap();
        journal.write_all(b"{\"fingerprint\":\"0000").unwrap();
        drop(journal);
        let reopened = DiskCache::open(&dir).unwrap();
        assert_eq!(reopened.loaded(), 1, "intact lines survive a torn tail");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistable_excludes_contingent_outcomes() {
        use crate::store::ScenarioRecord;
        let base = ScenarioRecord {
            index: 0,
            adversary: "x".into(),
            describe: String::new(),
            fingerprint: 1,
            n: 2,
            compact: true,
            depth: 1,
            analysis: AnalysisKind::Solvability,
            outcome: Outcome::tag("solvable"),
            expected: None,
            matches_expected: None,
            certificate: None,
            space: None,
            cached_space: None,
            budget_hit: false,
            wall_ms: 0.0,
        };
        assert!(persistable(&base));
        let budget = ScenarioRecord { budget_hit: true, ..base.clone() };
        assert!(!persistable(&budget));
        let errored = ScenarioRecord { outcome: Outcome::tag("error"), ..base.clone() };
        assert!(!persistable(&errored));
        let exceeded = ScenarioRecord { outcome: Outcome::tag("budget-exceeded"), ..base.clone() };
        assert!(!persistable(&exceeded));
        let timed = ScenarioRecord {
            outcome: Outcome::tag("passed").with("timed_out", Json::Bool(true)),
            ..base
        };
        assert!(!persistable(&timed));
    }

    #[test]
    fn params_are_a_key_dimension() {
        let dir = tmp_dir("params");
        let cache = DiskCache::open(&dir).unwrap();
        cache.store(9, &[0, 1], 1, AnalysisKind::Solvability, "wc3", entry()).unwrap();
        // A differently-configured requester must not be answered.
        assert!(cache.lookup(9, &[0, 1], 1, AnalysisKind::Solvability, "sc3").is_none());
        assert!(cache.lookup(9, &[0, 1], 1, AnalysisKind::Solvability, "wc0").is_none());
        assert!(cache.lookup(9, &[0, 1], 1, AnalysisKind::Solvability, "wc3").is_some());
        // Both configurations coexist in one journal.
        let other =
            DiskEntry { outcome: Outcome::tag("undecided"), space: None, certificate: None };
        cache.store(9, &[0, 1], 1, AnalysisKind::Solvability, "sc3", other).unwrap();
        assert_eq!(cache.stores(), 2);
        let reopened = DiskCache::open(&dir).unwrap();
        assert_eq!(
            reopened
                .lookup(9, &[0, 1], 1, AnalysisKind::Solvability, "wc3")
                .unwrap()
                .outcome
                .verdict,
            "separated"
        );
        assert_eq!(
            reopened
                .lookup(9, &[0, 1], 1, AnalysisKind::Solvability, "sc3")
                .unwrap()
                .outcome
                .verdict,
            "undecided"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn first_writer_wins_on_duplicate_store() {
        let dir = tmp_dir("dup");
        let cache = DiskCache::open(&dir).unwrap();
        cache.store(5, &[0, 1], 1, AnalysisKind::Bivalence, "", entry()).unwrap();
        let other = DiskEntry { outcome: Outcome::tag("mixed"), space: None, certificate: None };
        cache.store(5, &[0, 1], 1, AnalysisKind::Bivalence, "", other).unwrap();
        assert_eq!(cache.stores(), 1);
        assert_eq!(
            cache
                .lookup(5, &[0, 1], 1, AnalysisKind::Bivalence, "")
                .unwrap()
                .outcome
                .verdict,
            "separated"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
