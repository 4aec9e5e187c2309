//! Crash-matrix extension for the catalog's create/drop protocol.
//!
//! The filesystem is the catalog: a store exists iff its directory sits
//! under `<root>/stores/`. Create stages the new store in a `.tmp.<name>`
//! directory and renames it into place; drop renames the doomed
//! directory to `.drop.<name>` before deleting it. A crash at any point
//! therefore leaves either a fully-live store or a prefixed leftover that
//! the next open sweeps — never an orphan dir posing as a store, never a
//! registered name without data behind it.

use axs_catalog::{Catalog, CatalogConfig};
use std::path::PathBuf;

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("axs-cat-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn store_names(catalog: &Catalog) -> Vec<String> {
    catalog.list().into_iter().map(|s| s.name).collect()
}

/// Crash after create staged the store but before the rename: the
/// `.tmp.` directory is swept on reopen and the name never existed.
#[test]
fn crash_mid_create_leaves_no_phantom_store() {
    let root = temp_root("mid-create");
    {
        let catalog = Catalog::open(&root, CatalogConfig::default()).unwrap();
        catalog.create("survivor").unwrap();
    }

    // Simulate the crash window: a staged-but-never-renamed store.
    let staged = root.join("stores").join(".tmp.victim");
    std::fs::create_dir_all(&staged).unwrap();
    std::fs::write(staged.join("data.pages"), b"partial").unwrap();

    let catalog = Catalog::open(&root, CatalogConfig::default()).unwrap();
    assert_eq!(store_names(&catalog), ["default", "survivor"]);
    assert!(!staged.exists(), "staged dir swept on reopen");
    let (stats, live, _open) = catalog.stats();
    assert_eq!(stats.orphans_swept, 1);
    assert_eq!(live, 2);

    // The name is free: creating it now succeeds from scratch.
    catalog.create("victim").unwrap();
    assert_eq!(store_names(&catalog), ["default", "survivor", "victim"]);
    std::fs::remove_dir_all(&root).unwrap();
}

/// Crash after drop renamed the directory but before deletion: the
/// `.drop.` leftover is swept and the store stays dropped.
#[test]
fn crash_mid_drop_leaves_no_orphan_dir() {
    let root = temp_root("mid-drop");
    {
        let catalog = Catalog::open(&root, CatalogConfig::default()).unwrap();
        catalog.create("doomed").unwrap();
        catalog.create("survivor").unwrap();
        catalog.flush_all().unwrap();
    }

    // Simulate the crash window: drop got as far as the rename.
    let stores = root.join("stores");
    std::fs::rename(stores.join("doomed"), stores.join(".drop.doomed")).unwrap();

    let catalog = Catalog::open(&root, CatalogConfig::default()).unwrap();
    assert_eq!(store_names(&catalog), ["default", "survivor"]);
    assert!(!stores.join(".drop.doomed").exists(), "leftover swept");
    assert!(!stores.join("doomed").exists(), "store stays dropped");
    let (stats, _, _) = catalog.stats();
    assert_eq!(stats.orphans_swept, 1);
    std::fs::remove_dir_all(&root).unwrap();
}

/// Crash after create's rename: the store is fully live on reopen with
/// whatever its own WAL recovered — the catalog half is atomic with the
/// rename.
#[test]
fn crash_after_create_rename_keeps_the_store() {
    let root = temp_root("post-create");
    {
        let catalog = Catalog::open(&root, CatalogConfig::default()).unwrap();
        catalog.create("kept").unwrap();
        // No flush_all, no graceful close: the process "crashes" here.
        // The staged store was flushed before the rename, so an empty
        // but openable store must come back.
    }
    let catalog = Catalog::open(&root, CatalogConfig::default()).unwrap();
    assert_eq!(store_names(&catalog), ["default", "kept"]);
    let slot = catalog.slot("kept").unwrap();
    assert!(slot.store.with_read(|s| s.read_all()).unwrap().is_empty());
    std::fs::remove_dir_all(&root).unwrap();
}

/// Both crash windows at once — a staged create and an unfinished drop
/// from "the previous run" — plus a live store: one reopen settles all
/// of it.
#[test]
fn reopen_settles_mixed_leftovers() {
    let root = temp_root("mixed");
    {
        let catalog = Catalog::open(&root, CatalogConfig::default()).unwrap();
        catalog.create("live").unwrap();
        catalog.flush_all().unwrap();
    }
    let stores = root.join("stores");
    std::fs::create_dir_all(stores.join(".tmp.half-made")).unwrap();
    std::fs::create_dir_all(stores.join(".drop.half-gone")).unwrap();

    let catalog = Catalog::open(&root, CatalogConfig::default()).unwrap();
    assert_eq!(store_names(&catalog), ["default", "live"]);
    let leftovers: Vec<String> = std::fs::read_dir(&stores)
        .unwrap()
        .filter_map(|e| e.unwrap().file_name().into_string().ok())
        .filter(|n| n.starts_with('.'))
        .collect();
    assert!(leftovers.is_empty(), "unswept: {leftovers:?}");
    let (stats, _, _) = catalog.stats();
    assert_eq!(stats.orphans_swept, 2);
    std::fs::remove_dir_all(&root).unwrap();
}
