//! Failure injection: corrupted files must surface clean errors, never
//! panics or silent wrong answers.

use adaptive_xml_storage::prelude::*;
use axs_core::StoreError;
use axs_storage::StorageError;
use axs_workload::docgen;
use std::fs::OpenOptions;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("axs-fail-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn build_store(dir: &Path) -> Result<(), StoreError> {
    let mut s = StoreBuilder::new()
        .directory(dir)
        .storage(StorageConfig {
            page_size: 1024,
            pool_frames: 8,
        })
        .build()?;
    s.bulk_insert(docgen::purchase_orders(3, 30))?;
    s.flush()?;
    Ok(())
}

fn open_store(dir: &Path) -> Result<XmlStore, StoreError> {
    StoreBuilder::new()
        .directory(dir)
        .storage(StorageConfig {
            page_size: 1024,
            pool_frames: 8,
        })
        .open()
}

/// Flips bytes at `offset` in the data file.
fn corrupt(dir: &Path, offset: u64, len: usize) {
    let mut f = OpenOptions::new()
        .read(true)
        .write(true)
        .open(dir.join("data.pages"))
        .unwrap();
    f.seek(SeekFrom::Start(offset)).unwrap();
    let mut bytes = vec![0u8; len];
    f.read_exact(&mut bytes).unwrap();
    for b in &mut bytes {
        *b ^= 0xFF;
    }
    f.seek(SeekFrom::Start(offset)).unwrap();
    f.write_all(&bytes).unwrap();
}

#[test]
fn smashed_meta_magic_fails_cleanly() {
    let dir = temp_dir("meta");
    build_store(&dir).unwrap();
    corrupt(&dir, 0, 8); // meta magic
    match open_store(&dir) {
        // The page checksum fires before the magic is even inspected.
        Err(StoreError::Storage(StorageError::Corrupt { page, .. })) => {
            assert_eq!(page.0, 0);
        }
        Err(StoreError::Corrupt(reason)) => assert!(reason.contains("meta")),
        Err(other) => panic!("expected corrupt-meta error, got {other}"),
        Ok(_) => panic!("corrupt meta must not open"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_block_header_is_detected() {
    let dir = temp_dir("blockhdr");
    build_store(&dir).unwrap();
    // Page 1 is the first block; smash its header magic.
    corrupt(&dir, 1024, 4);
    let result = open_store(&dir).and_then(|s| s.read_all());
    assert!(result.is_err(), "corruption must surface as an error");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_payload_bytes_fail_decoding_not_process() {
    let dir = temp_dir("payload");
    build_store(&dir).unwrap();
    // Smash bytes in the middle of the first block's payload heap (top of
    // the page, where payloads live).
    corrupt(&dir, 1024 + 900, 60);
    // Open may succeed or fail depending on which structures the bytes hit;
    // either way nothing panics and errors are typed.
    match open_store(&dir) {
        Ok(s) => {
            let _ = s.read_all(); // must not panic
            let _ = s.check_invariants(); // must not panic
        }
        Err(e) => {
            let _ = e.to_string();
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_index_file_is_rebuilt_on_open() {
    let dir = temp_dir("idx");
    build_store(&dir).unwrap();
    // Indexes are derived data: wipe the index file entirely.
    std::fs::write(dir.join("index.pages"), []).unwrap();
    let s = open_store(&dir).unwrap();
    s.check_invariants().unwrap();
    assert!(s.read_node(NodeId(2)).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn misaligned_data_file_is_repaired_on_open() {
    let dir = temp_dir("misaligned");
    build_store(&dir).unwrap();
    // Append garbage so the file length is no longer page-aligned — the
    // signature a torn page-append crash leaves behind.
    let mut f = OpenOptions::new()
        .append(true)
        .open(dir.join("data.pages"))
        .unwrap();
    f.write_all(b"garbage").unwrap();
    drop(f);
    let s = open_store(&dir).expect("recovery repairs the torn tail");
    assert!(s.stats().torn_tail_truncations >= 1);
    s.check_invariants().unwrap();
    assert!(!s.read_all().unwrap().is_empty());
    // The repair is durable: the file is aligned again.
    let len = std::fs::metadata(dir.join("data.pages")).unwrap().len();
    assert_eq!(len % 1024, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn random_page_corruption_never_panics() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0xBAD);
    for trial in 0..12 {
        let dir = temp_dir(&format!("rand{trial}"));
        build_store(&dir).unwrap();
        let file_len = std::fs::metadata(dir.join("data.pages")).unwrap().len();
        let offset = rng.gen_range(0..file_len.saturating_sub(16));
        corrupt(&dir, offset, rng.gen_range(1..64));
        match open_store(&dir) {
            Ok(s) => {
                // Exercise the main read paths; errors allowed, panics not.
                let _ = s.read_all();
                for id in 1..10u64 {
                    let _ = s.read_node(NodeId(id));
                }
                let _ = s.check_invariants();
                let _ = s.storage_report();
            }
            Err(e) => {
                let _ = e.to_string();
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn reopen_after_unflushed_changes_sees_exactly_the_flushed_state() {
    // The data pool runs no-steal for directory stores: dirty pages only
    // reach the file through flush(), so dropping a store mid-update must
    // land the reopened store exactly on the last flushed snapshot — not
    // merely "something internally consistent".
    let dir = temp_dir("unflushed");
    let flushed;
    {
        let mut s = StoreBuilder::new()
            .directory(&dir)
            .storage(StorageConfig {
                page_size: 1024,
                pool_frames: 8,
            })
            .build()
            .unwrap();
        s.bulk_insert(docgen::purchase_orders(9, 10)).unwrap();
        s.flush().unwrap();
        flushed = s.read_all().unwrap();
        // More inserts, deliberately not flushed.
        s.bulk_insert(docgen::purchase_orders(10, 10)).unwrap();
        // Dropped without flush.
    }
    let s = open_store(&dir).unwrap();
    s.check_invariants().unwrap();
    assert_eq!(s.read_all().unwrap(), flushed);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn single_byte_corruption_always_detected() {
    // Sweep every byte offset of one data page: each single-byte flip must
    // surface as StorageError::Corrupt when the page is read back — no
    // offset may slip past the checksum (including flips inside the stamp
    // itself).
    let dir = temp_dir("sweep");
    build_store(&dir).unwrap();
    let pristine = std::fs::read(dir.join("data.pages")).unwrap();
    assert!(pristine.len() >= 2048, "need at least two pages");
    for offset in 0..1024usize {
        let mut bytes = pristine.clone();
        bytes[1024 + offset] ^= 0xFF; // page 1: the first block page
        std::fs::write(dir.join("data.pages"), &bytes).unwrap();
        let outcome = open_store(&dir).and_then(|s| {
            s.read_all()?;
            Ok(())
        });
        match outcome {
            Err(StoreError::Storage(StorageError::Corrupt { page, .. })) => {
                assert_eq!(page.0, 1, "flip at offset {offset} blamed page {page:?}");
            }
            Err(other) => panic!("offset {offset}: wrong error type: {other}"),
            Ok(()) => panic!("offset {offset}: corruption went undetected"),
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_token_tag_under_a_valid_checksum_fails_open() {
    // A bad token tag inside a range payload, on a page whose stamp has
    // been recomputed so the checksum passes: open must still reject the
    // range under every policy, whether it decodes tokens or only counts
    // them.
    use axs_core::RANGE_HEADER_LEN;
    use axs_storage::{block, checksum, PageId};
    use axs_xdm::codec::CodecError;
    let range_only = IndexingPolicy::RangeOnly {
        target_range_bytes: 8 * 1024,
    };
    let full = IndexingPolicy::FullIndex {
        target_range_bytes: 8 * 1024,
    };
    for (tag, policy) in [
        ("tag-lazy", IndexingPolicy::default_lazy()),
        ("tag-range", range_only),
        ("tag-full", full),
    ] {
        let dir = temp_dir(tag);
        build_store(&dir).unwrap();
        let mut bytes = std::fs::read(dir.join("data.pages")).unwrap();
        let page = &mut bytes[1024..2048]; // page 1: the first block page
        let payload = block::range_bytes(page, PageId(1), 0).unwrap();
        let first_tag = payload.as_ptr() as usize - page.as_ptr() as usize + RANGE_HEADER_LEN;
        page[first_tag] = 0xEE;
        let lsn = checksum::page_lsn(page);
        checksum::stamp_page(page, u64::from(lsn));
        std::fs::write(dir.join("data.pages"), &bytes).unwrap();
        let opened = StoreBuilder::new()
            .directory(&dir)
            .policy(policy)
            .storage(StorageConfig {
                page_size: 1024,
                pool_frames: 8,
            })
            .open();
        match opened {
            Err(StoreError::Codec(CodecError::BadTag(0xEE))) => {}
            Err(other) => panic!("{tag}: wrong error: {other}"),
            Ok(_) => panic!("{tag}: a corrupt range opened"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
