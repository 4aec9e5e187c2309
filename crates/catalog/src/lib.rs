#![warn(missing_docs)]

//! # axs-catalog — named stores under one data root, opened lazily
//!
//! The paper engineers one adaptive store per document; a fleet serves
//! many. This crate lifts the paper's laziness one level up: a [`Catalog`]
//! owns a registry of *named* [`XmlStore`]s under a single data root, each
//! with its own directory, WAL, and adaptive-index state. A store's files
//! are not touched until the first request addresses it (lazy open runs
//! that store's crash recovery right then), and an open-store cap evicts
//! the least-recently-used idle store — flush, close, reopen later — so a
//! server can own thousands of tenants while paying memory for a handful.
//!
//! ## On-disk layout
//!
//! ```text
//! <root>/stores/<name>/{data.pages,index.pages,wal.log}
//! <root>/stores/.tmp.<name>    create in flight (removed on boot)
//! <root>/stores/.drop.<name>   drop in flight   (removed on boot)
//! ```
//!
//! The filesystem *is* the catalog: a store exists iff its directory
//! exists under `stores/`. Create builds the store in a `.tmp.` directory,
//! flushes it, then renames into place and fsyncs the parent — a crash at
//! any point leaves either no store or a complete one, never a phantom.
//! Drop renames to `.drop.` first (atomic disappearance from the
//! namespace), then deletes; boot sweeps both prefixes, so a crash during
//! either operation cannot leak orphan directories into the registry.
//!
//! ## Ids and slots
//!
//! Each live name is bound to a process-lifetime `u16` id (the wire
//! protocol routes requests by id, see `axs-client`). Ids are never
//! reused: dropping a store dangles its id, and recreating the name mints
//! a fresh one — a stale id from before a drop surfaces as a typed
//! [`CatalogError::UnknownStore`] instead of silently writing into the
//! successor store. Every open store is a [`StoreSlot`] carrying its own
//! [`ConcurrentStore`] — the one handle on that store: its reader-writer
//! lock, its epoch registry and its durable-write path — so sessions on
//! different stores never contend.
//!
//! Legacy roots (a bare single-store directory with `data.pages` at top
//! level) are adopted as the `default` store in place, so pre-catalog data
//! directories keep working unchanged.

use axs_core::{ConcurrentStore, StatRow, StoreBuilder, StoreError, XmlStore};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The name every catalog starts with; requests that never call
/// `UseStore` land here (store id 0).
pub const DEFAULT_STORE: &str = "default";

/// Longest permitted store name.
pub const MAX_NAME_LEN: usize = 64;

/// Prefix of an in-flight create directory (crash leftovers are swept on
/// boot).
const TMP_PREFIX: &str = ".tmp.";

/// Prefix of an in-flight drop directory (crash leftovers are swept on
/// boot).
const DROP_PREFIX: &str = ".drop.";

/// Catalog-level failures, each mapping onto a typed wire error.
#[derive(Debug)]
pub enum CatalogError {
    /// No live store has this name (or a request carried a stale id).
    UnknownStore(String),
    /// `create` on a name that already exists.
    StoreExists(String),
    /// The name is not a valid store name (`[a-z0-9_-]{1,64}`).
    InvalidName(String),
    /// The catalog adopted a single store and has no data root to create
    /// more (start the server with a directory to enable the catalog ops).
    NoRoot,
    /// The `default` store cannot be dropped.
    CannotDropDefault,
    /// The underlying store failed to open, flush, or build.
    Store(StoreError),
    /// Filesystem manipulation of the catalog layout failed.
    Io(std::io::Error),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::UnknownStore(name) => write!(f, "unknown store {name:?}"),
            CatalogError::StoreExists(name) => write!(f, "store {name:?} already exists"),
            CatalogError::InvalidName(name) => write!(
                f,
                "invalid store name {name:?} (want 1-{MAX_NAME_LEN} chars of [a-z0-9_-])"
            ),
            CatalogError::NoRoot => {
                write!(f, "server has no data root; catalog operations need one")
            }
            CatalogError::CannotDropDefault => write!(f, "the default store cannot be dropped"),
            CatalogError::Store(e) => write!(f, "store: {e}"),
            CatalogError::Io(e) => write!(f, "catalog io: {e}"),
        }
    }
}

impl std::error::Error for CatalogError {}

impl From<StoreError> for CatalogError {
    fn from(e: StoreError) -> Self {
        CatalogError::Store(e)
    }
}

impl From<std::io::Error> for CatalogError {
    fn from(e: std::io::Error) -> Self {
        CatalogError::Io(e)
    }
}

/// True for names the catalog accepts: 1–64 chars of `[a-z0-9_-]`. The
/// character set keeps names safe as directory components (no separators,
/// no leading dots, nothing the `.tmp.`/`.drop.` sweeps could collide
/// with) and as metric label values.
pub fn valid_store_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_NAME_LEN
        && name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'-')
}

/// Tuning for one [`Catalog`].
#[derive(Debug, Clone)]
pub struct CatalogConfig {
    /// Stores held open at once; opening one more evicts the
    /// least-recently-used idle store (flushes it through its WAL, then
    /// closes it). Stores with requests in flight are never evicted, so
    /// the cap is soft under pressure.
    pub max_open: usize,
    /// Group-commit window applied to every store the catalog opens.
    pub commit_window: Duration,
}

impl Default for CatalogConfig {
    fn default() -> Self {
        CatalogConfig {
            max_open: 8,
            commit_window: Duration::ZERO,
        }
    }
}

impl CatalogConfig {
    fn normalized(mut self) -> CatalogConfig {
        self.max_open = self.max_open.max(1);
        self
    }
}

/// One open store: its name, its id and its [`ConcurrentStore`] handle.
/// Requests on different slots share nothing, so sessions on different
/// stores never contend.
pub struct StoreSlot {
    /// The store's catalog name.
    pub name: String,
    /// The store's process-lifetime id (what the wire protocol routes by).
    pub id: u16,
    /// The one handle on the store: shared reads, snapshot pins (which stay
    /// readable even if the catalog evicts the store underneath them) and
    /// the write guard, the only arbiter of a write.
    pub store: ConcurrentStore,
    /// LRU stamp maintained by [`Catalog::slot_by_id`].
    last_used: AtomicU64,
}

impl StoreSlot {
    fn new(name: String, id: u16, store: XmlStore) -> Arc<StoreSlot> {
        Arc::new(StoreSlot {
            name,
            id,
            store: ConcurrentStore::new(store),
            last_used: AtomicU64::new(0),
        })
    }
}

/// One row of [`Catalog::list`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreInfo {
    /// Store name.
    pub name: String,
    /// Bound id (what `UseStore` returns over the wire).
    pub id: u16,
    /// Whether the store is currently open (resident) or would be opened
    /// lazily by the next request.
    pub open: bool,
}

axs_core::series! {
    /// Catalog activity counters (the `cat.*` stats).
    #[derive(Debug, Default)]
    pub struct CatalogCounters => CatalogStats {
        /// Stores opened lazily on first access (each ran crash recovery).
        lazy_opens: Counter "cat.lazy_opens",
        /// Stores flushed and closed to stay under the open cap.
        evictions: Counter "cat.evictions",
        /// Stores created.
        creates: Counter "cat.creates",
        /// Stores dropped.
        drops: Counter "cat.drops",
        /// Crash leftovers (.tmp. and .drop. directories) swept at boot.
        orphans_swept: Counter "cat.orphans_swept",
    }
}

/// How the catalog is backed.
enum Backing {
    /// Stores live in directories under `<root>/stores/`; `legacy_default`
    /// maps the `default` store onto the root itself when the root is a
    /// pre-catalog single-store directory.
    Durable { root: PathBuf, legacy_default: bool },
    /// Every store is in-memory and permanently resident (eviction would
    /// lose data). Create/drop work; nothing persists.
    Memory,
    /// Exactly one adopted store; catalog create/drop are unavailable.
    Adopted,
}

struct Inner {
    /// Live name → id. Absence here is what "dropped" means.
    ids: HashMap<String, u16>,
    /// id → name for every id ever minted (dropped ids stay, dangling).
    names: Vec<String>,
    /// Resident stores by id.
    open: HashMap<u16, Arc<StoreSlot>>,
    /// LRU clock, bumped on every slot access.
    clock: u64,
    stats: CatalogCounters,
}

impl Inner {
    fn mint(&mut self, name: &str) -> u16 {
        let id = u16::try_from(self.names.len()).expect("more than 65536 stores in one process");
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }
}

/// A registry of named stores under one data root. See the crate docs for
/// layout and crash-safety; see [`Catalog::slot_by_id`] for the lazy
/// open/evict policy.
pub struct Catalog {
    backing: Backing,
    config: CatalogConfig,
    inner: Mutex<Inner>,
}

impl Catalog {
    /// Opens (or initializes) a durable catalog at `root`: sweeps crash
    /// leftovers, registers every existing store directory, and binds
    /// `default` to id 0 — without opening any store files (that happens
    /// lazily, per store, on first access).
    ///
    /// A `root` that is itself a pre-catalog single-store directory
    /// (`data.pages` at top level) is adopted as the `default` store in
    /// place.
    pub fn open(root: impl Into<PathBuf>, config: CatalogConfig) -> Result<Catalog, CatalogError> {
        let root = root.into();
        let legacy_default = root.join("data.pages").exists();
        let stores = root.join("stores");
        std::fs::create_dir_all(&stores)?;

        let mut inner = Inner {
            ids: HashMap::new(),
            names: Vec::new(),
            open: HashMap::new(),
            clock: 0,
            stats: CatalogCounters::default(),
        };
        // The default store is always id 0, registered before any scan so
        // the binding is stable across boots.
        inner.mint(DEFAULT_STORE);

        // Sweep crash leftovers, then register every surviving directory.
        // Sweeping first means a name can never be registered from a
        // half-created or half-dropped directory.
        let mut entries: Vec<String> = Vec::new();
        for entry in std::fs::read_dir(&stores)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with(TMP_PREFIX) || name.starts_with(DROP_PREFIX) {
                std::fs::remove_dir_all(entry.path())?;
                inner.stats.orphans_swept.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if entry.file_type()?.is_dir() && valid_store_name(&name) && name != DEFAULT_STORE {
                entries.push(name);
            }
        }
        // Registration order (and so id assignment) is deterministic.
        entries.sort();
        for name in entries {
            inner.mint(&name);
        }
        Ok(Catalog {
            backing: Backing::Durable {
                root,
                legacy_default,
            },
            config: config.normalized(),
            inner: Mutex::new(inner),
        })
    }

    /// An in-memory catalog: `default` exists, `create` makes more
    /// in-memory stores, nothing persists and nothing is ever evicted
    /// (closing an in-memory store would lose its contents).
    pub fn in_memory(config: CatalogConfig) -> Result<Catalog, CatalogError> {
        let catalog = Catalog {
            backing: Backing::Memory,
            config: config.normalized(),
            inner: Mutex::new(Inner {
                ids: HashMap::new(),
                names: Vec::new(),
                open: HashMap::new(),
                clock: 0,
                stats: CatalogCounters::default(),
            }),
        };
        {
            let mut inner = catalog.inner.lock();
            let id = inner.mint(DEFAULT_STORE);
            let store = StoreBuilder::new().build()?;
            store.set_commit_window(catalog.config.commit_window);
            let slot = StoreSlot::new(DEFAULT_STORE.to_string(), id, store);
            inner.open.insert(id, slot);
        }
        Ok(catalog)
    }

    /// Wraps one existing store as the permanent `default`. Catalog
    /// create/drop report [`CatalogError::NoRoot`]; everything else works.
    /// This is the compatibility path for embedders that build their own
    /// store and hand it to the server.
    pub fn adopt(store: XmlStore, config: CatalogConfig) -> Catalog {
        let config = config.normalized();
        store.set_commit_window(config.commit_window);
        let mut inner = Inner {
            ids: HashMap::new(),
            names: Vec::new(),
            open: HashMap::new(),
            clock: 0,
            stats: CatalogCounters::default(),
        };
        let id = inner.mint(DEFAULT_STORE);
        inner
            .open
            .insert(id, StoreSlot::new(DEFAULT_STORE.to_string(), id, store));
        Catalog {
            backing: Backing::Adopted,
            config,
            inner: Mutex::new(inner),
        }
    }

    /// Where `name`'s files live (durable catalogs only).
    pub fn store_dir(&self, name: &str) -> Option<PathBuf> {
        match &self.backing {
            Backing::Durable {
                root,
                legacy_default,
            } => Some(if *legacy_default && name == DEFAULT_STORE {
                root.clone()
            } else {
                root.join("stores").join(name)
            }),
            _ => None,
        }
    }

    /// Creates a new empty store and binds it to a fresh id.
    ///
    /// Durable path: the store is built and flushed inside
    /// `stores/.tmp.<name>`, then renamed into place and the parent
    /// directory fsynced — a crash anywhere leaves either no store (the
    /// boot sweep removes the `.tmp.` leftovers) or a complete one.
    pub fn create(&self, name: &str) -> Result<u16, CatalogError> {
        if !valid_store_name(name) {
            return Err(CatalogError::InvalidName(name.to_string()));
        }
        let mut inner = self.inner.lock();
        if inner.ids.contains_key(name) {
            return Err(CatalogError::StoreExists(name.to_string()));
        }
        match &self.backing {
            Backing::Adopted => Err(CatalogError::NoRoot),
            Backing::Memory => {
                let id = inner.mint(name);
                let store = StoreBuilder::new().build()?;
                store.set_commit_window(self.config.commit_window);
                let slot = StoreSlot::new(name.to_string(), id, store);
                slot.last_used.store(inner.clock, Ordering::Relaxed);
                inner.open.insert(id, slot);
                inner.stats.creates.fetch_add(1, Ordering::Relaxed);
                Ok(id)
            }
            Backing::Durable { root, .. } => {
                let stores = root.join("stores");
                let tmp = stores.join(format!("{TMP_PREFIX}{name}"));
                let dest = stores.join(name);
                if dest.exists() {
                    // Directory present but unregistered can only mean a
                    // concurrent external create; refuse rather than clobber.
                    return Err(CatalogError::StoreExists(name.to_string()));
                }
                let _ = std::fs::remove_dir_all(&tmp);
                // Build + flush the complete store inside the tmp dir, then
                // publish it with one atomic rename.
                {
                    let mut store = StoreBuilder::new().directory(&tmp).build()?;
                    store.flush()?;
                }
                std::fs::rename(&tmp, &dest)?;
                sync_dir(&stores);
                let id = inner.mint(name);
                inner.stats.creates.fetch_add(1, Ordering::Relaxed);
                Ok(id)
            }
        }
    }

    /// Drops a store: unbinds the name (its id dangles forever — stale
    /// requests get [`CatalogError::UnknownStore`]), closes it if open,
    /// and removes its files.
    ///
    /// Durable path: the directory is renamed to `stores/.drop.<name>`
    /// first (one atomic step removes it from the namespace), then
    /// deleted; a crash in between is cleaned by the boot sweep.
    pub fn drop_store(&self, name: &str) -> Result<(), CatalogError> {
        if name == DEFAULT_STORE {
            return Err(CatalogError::CannotDropDefault);
        }
        let mut inner = self.inner.lock();
        let Some(id) = inner.ids.remove(name) else {
            return Err(CatalogError::UnknownStore(name.to_string()));
        };
        // In-flight requests on other sessions may still hold the slot
        // Arc; they finish against the orphaned store harmlessly.
        inner.open.remove(&id);
        if let Backing::Durable { root, .. } = &self.backing {
            let stores = root.join("stores");
            let dir = stores.join(name);
            if dir.exists() {
                let grave = stores.join(format!("{DROP_PREFIX}{name}"));
                let _ = std::fs::remove_dir_all(&grave);
                std::fs::rename(&dir, &grave)?;
                sync_dir(&stores);
                std::fs::remove_dir_all(&grave)?;
            }
        }
        inner.stats.drops.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Resolves a live store name to its id (`UseStore` over the wire).
    pub fn resolve(&self, name: &str) -> Result<u16, CatalogError> {
        self.inner
            .lock()
            .ids
            .get(name)
            .copied()
            .ok_or_else(|| CatalogError::UnknownStore(name.to_string()))
    }

    /// The live name bound to `id`, if any.
    pub fn name_of(&self, id: u16) -> Option<String> {
        let inner = self.inner.lock();
        let name = inner.names.get(id as usize)?;
        (inner.ids.get(name) == Some(&id)).then(|| name.clone())
    }

    /// The slot for a live name, opening it lazily (see
    /// [`Catalog::slot_by_id`]).
    pub fn slot(&self, name: &str) -> Result<Arc<StoreSlot>, CatalogError> {
        let id = self.resolve(name)?;
        self.slot_by_id(id)
    }

    /// The slot for a live id, opening the store lazily on first access
    /// (running its crash recovery right then) and evicting the
    /// least-recently-used idle store when the open cap is exceeded.
    /// Dangling ids (dropped, or from before a restart) are a typed
    /// [`CatalogError::UnknownStore`].
    pub fn slot_by_id(&self, id: u16) -> Result<Arc<StoreSlot>, CatalogError> {
        let mut inner = self.inner.lock();
        let Some(name) = inner.names.get(id as usize).cloned() else {
            return Err(CatalogError::UnknownStore(format!("#{id}")));
        };
        if inner.ids.get(&name) != Some(&id) {
            return Err(CatalogError::UnknownStore(name));
        }
        inner.clock += 1;
        let stamp = inner.clock;
        if let Some(slot) = inner.open.get(&id) {
            slot.last_used.store(stamp, Ordering::Relaxed);
            return Ok(slot.clone());
        }
        // Not resident: only durable catalogs can get here (memory and
        // adopted slots are permanently open).
        let dir = self
            .store_dir(&name)
            .ok_or_else(|| CatalogError::UnknownStore(name.clone()))?;
        self.evict_to_cap(&mut inner)?;
        let builder = StoreBuilder::new()
            .directory(&dir)
            .commit_window(self.config.commit_window);
        let store = if dir.join("data.pages").exists() {
            builder.open()? // runs this store's crash recovery
        } else {
            // Registered but never materialized — only the default store
            // of a fresh root; build it in place.
            builder.build()?
        };
        let slot = StoreSlot::new(name, id, store);
        slot.last_used.store(stamp, Ordering::Relaxed);
        inner.open.insert(id, slot.clone());
        inner.stats.lazy_opens.fetch_add(1, Ordering::Relaxed);
        Ok(slot)
    }

    /// Flushes and closes LRU idle stores until the resident count is
    /// below the cap (leaving room for the store about to open). A slot
    /// still referenced by an in-flight request is not evictable; the cap
    /// is soft under that pressure.
    fn evict_to_cap(&self, inner: &mut Inner) -> Result<(), CatalogError> {
        while inner.open.len() >= self.config.max_open {
            let victim = inner
                .open
                .values()
                .filter(|slot| Arc::strong_count(slot) == 1)
                .min_by_key(|slot| slot.last_used.load(Ordering::Relaxed))
                .map(|slot| slot.id);
            let Some(id) = victim else {
                return Ok(()); // everything resident is in use
            };
            let slot = inner.open.remove(&id).expect("victim is resident");
            slot.store.with_write(XmlStore::flush)?;
            inner.stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Every live store, sorted by name, with its id and residency.
    pub fn list(&self) -> Vec<StoreInfo> {
        let inner = self.inner.lock();
        let mut out: Vec<StoreInfo> = inner
            .ids
            .iter()
            .map(|(name, &id)| StoreInfo {
                name: name.clone(),
                id,
                open: inner.open.contains_key(&id),
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Names of the currently resident stores (for per-store metrics).
    pub fn open_store_names(&self) -> Vec<String> {
        self.inner
            .lock()
            .open
            .values()
            .map(|s| s.name.clone())
            .collect()
    }

    /// Flushes every resident store through its WAL (graceful shutdown;
    /// callers must ensure no request is mid-write).
    pub fn flush_all(&self) -> Result<(), CatalogError> {
        let slots: Vec<Arc<StoreSlot>> = self.inner.lock().open.values().cloned().collect();
        for slot in slots {
            slot.store.with_write(XmlStore::flush)?;
        }
        Ok(())
    }

    /// Counters plus the live/resident gauges.
    pub fn stats(&self) -> (CatalogStats, usize, usize) {
        let inner = self.inner.lock();
        (inner.stats.snapshot(), inner.ids.len(), inner.open.len())
    }

    /// The `cat.*` `Stats` rows: the live/resident gauges, then the
    /// counters.
    pub fn stat_rows(&self, out: &mut Vec<StatRow>) {
        let inner = self.inner.lock();
        out.extend(axs_core::stat_rows![
            /// Stores in the catalog.
            Gauge "cat.stores" = inner.ids.len() as u64,
            /// Stores open (resident).
            Gauge "cat.open_stores" = inner.open.len() as u64,
        ]);
        inner.stats.rows(out);
    }
}

/// Best-effort directory fsync so a rename survives power loss. Errors are
/// swallowed: some filesystems refuse O_RDONLY fsync on directories, and
/// the rename itself is already on the journal of any fs that matters.
fn sync_dir(dir: &Path) {
    if let Ok(f) = std::fs::File::open(dir) {
        let _ = f.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("axs-catalog-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn names_validate() {
        assert!(valid_store_name("default"));
        assert!(valid_store_name("tenant-42_a"));
        assert!(!valid_store_name(""));
        assert!(!valid_store_name("Tenant"));
        assert!(!valid_store_name("a/b"));
        assert!(!valid_store_name(".tmp.x"));
        assert!(!valid_store_name(&"x".repeat(65)));
    }

    #[test]
    fn memory_catalog_create_use_drop() {
        let cat = Catalog::in_memory(CatalogConfig::default()).unwrap();
        assert_eq!(cat.resolve(DEFAULT_STORE).unwrap(), 0);
        let id = cat.create("alpha").unwrap();
        assert!(id > 0);
        assert!(matches!(
            cat.create("alpha"),
            Err(CatalogError::StoreExists(_))
        ));
        let slot = cat.slot("alpha").unwrap();
        assert_eq!(slot.id, id);
        assert!(matches!(
            cat.drop_store(DEFAULT_STORE),
            Err(CatalogError::CannotDropDefault)
        ));
        cat.drop_store("alpha").unwrap();
        assert!(matches!(
            cat.slot_by_id(id),
            Err(CatalogError::UnknownStore(_))
        ));
        // Recreating mints a fresh id; the stale one stays dangling.
        let id2 = cat.create("alpha").unwrap();
        assert_ne!(id, id2);
        assert!(cat.slot_by_id(id).is_err());
        assert!(cat.slot_by_id(id2).is_ok());
    }

    #[test]
    fn durable_lazy_open_and_eviction() {
        let root = tmp_root("evict");
        let cat = Catalog::open(
            &root,
            CatalogConfig {
                max_open: 2,
                ..CatalogConfig::default()
            },
        )
        .unwrap();
        cat.create("a").unwrap();
        cat.create("b").unwrap();
        cat.create("c").unwrap();
        // Nothing is open until touched.
        let (_, live, open) = cat.stats();
        assert_eq!((live, open), (4, 0));
        for name in ["a", "b", "c"] {
            let slot = cat.slot(name).unwrap();
            let doc = axs_xml::parse_fragment(
                &format!("<{name}/>"),
                axs_xml::ParseOptions::data_centric(),
            )
            .unwrap();
            slot.store.with_write(|s| s.bulk_insert(doc)).unwrap();
        }
        let (stats, live, open) = cat.stats();
        assert_eq!(live, 4);
        assert!(open <= 2, "open {open} exceeds the cap");
        assert!(stats.lazy_opens >= 3);
        assert!(stats.evictions >= 1);
        // Evicted stores were flushed by eviction; flush the still-resident
        // rest (graceful shutdown) and reopen each to find its document.
        cat.flush_all().unwrap();
        drop(cat);
        let cat = Catalog::open(&root, CatalogConfig::default()).unwrap();
        for name in ["a", "b", "c"] {
            let slot = cat.slot(name).unwrap();
            let tokens = slot.store.with_read(XmlStore::read_all).unwrap();
            let xml = axs_xml::serialize(&tokens, &axs_xml::SerializeOptions::default()).unwrap();
            assert!(xml.contains(&format!("<{name}/>")), "{name}: {xml}");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn legacy_single_store_root_is_adopted_as_default() {
        let root = tmp_root("legacy");
        {
            let mut store = StoreBuilder::new().directory(&root).build().unwrap();
            store
                .bulk_insert(
                    axs_xml::parse_fragment("<legacy/>", axs_xml::ParseOptions::data_centric())
                        .unwrap(),
                )
                .unwrap();
            store.flush().unwrap();
        }
        let cat = Catalog::open(&root, CatalogConfig::default()).unwrap();
        assert_eq!(cat.store_dir(DEFAULT_STORE).unwrap(), root);
        let slot = cat.slot(DEFAULT_STORE).unwrap();
        let tokens = slot.store.with_read(XmlStore::read_all).unwrap();
        let xml = axs_xml::serialize(&tokens, &axs_xml::SerializeOptions::default()).unwrap();
        assert!(xml.contains("<legacy/>"), "{xml}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn adopted_catalog_refuses_create() {
        let cat = Catalog::adopt(
            StoreBuilder::new().build().unwrap(),
            CatalogConfig::default(),
        );
        assert!(cat.slot(DEFAULT_STORE).is_ok());
        assert!(matches!(cat.create("x"), Err(CatalogError::NoRoot)));
    }
}
